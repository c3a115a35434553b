"""Sweep jobs, figure presets, config files, and CSV/JSON emission.

A sweep evaluates the closed-form reduced density at each grid time, one
``reduced_density`` call per point, and stacks the results into a (T, 4, 4)
array.  The maximum CHSH value, the concurrence, the trace deficit and the
optional rescale are then each one array operation over that stack, and the
CSV writers format each row with a single ``%``.  Nothing in a sweep is
random, so identical jobs write byte-identical files.
"""
from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import concurrence, max_chsh
from .dynamics import reduced_density
from .states import CavityConfig, EntangledStateSpec, Polarization

CSV_HEADER = "t_over_T,p_chsh_max,concurrence,trace_deficit"
SCHEMA_VERSION = 2

KNOWN_OUTPUTS = ("p_chsh_max", "concurrence", "trace_deficit", "rho_elements")
DEFAULT_OUTPUTS = ("p_chsh_max", "concurrence", "trace_deficit")

#: angle labels used in figure presets and file names
ANGLES = {
    "0": 0.0,
    "pi6": math.pi / 6.0,
    "pi4": math.pi / 4.0,
    "pi3": math.pi / 3.0,
    "3pi4": 3.0 * math.pi / 4.0,
}


@dataclass(frozen=True)
class SweepJob:
    """One time sweep: state family, cavity, grid in units of T, and outputs."""

    spec: EntangledStateSpec
    cfg: CavityConfig
    start: float = 0.0
    stop: float = 10.0
    count: int = 400
    tol: float = 1e-10
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    renormalize: bool = False

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("count must be >= 2")
        if not self.start < self.stop:
            raise ValueError("start must be < stop")
        if not 0.0 < self.tol <= 1e-3:
            raise ValueError("tol must lie in (0, 1e-3]")
        unknown = set(self.outputs) - set(KNOWN_OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}")

    def times_over_period(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class CorrelationSeries:
    """Per-time maximum CHSH value and concurrence, plus truncation metadata."""

    times_over_T: np.ndarray
    p_chsh_max: np.ndarray
    concurrence: np.ndarray
    trace_deficit: np.ndarray
    n_max: int
    tail_bound: float
    job: SweepJob
    rho: np.ndarray | None = None


def run_sweep(job: SweepJob) -> CorrelationSeries:
    """Evaluate the reduced density at each grid time, one ``reduced_density``
    call per point, then derive every series from the (T, 4, 4) stack: one
    ``max_chsh`` and one ``concurrence`` call, and the trace deficit and the
    optional rescale as array operations."""
    period = job.cfg.period
    times = job.times_over_period()
    points = [reduced_density(job.spec, tau * period, job.cfg, tol=job.tol) for tau in times]
    rho = np.stack([p[0] for p in points])
    trunc = points[-1][1]
    trace = rho.trace(axis1=-2, axis2=-1).real
    if job.renormalize:
        rho = rho / trace[:, None, None]
    return CorrelationSeries(
        times_over_T=times,
        p_chsh_max=max_chsh(rho),
        concurrence=concurrence(rho),
        trace_deficit=1.0 - trace,
        n_max=trunc.n_max,
        tail_bound=trunc.tail_bound,
        job=job,
        rho=rho if "rho_elements" in job.outputs else None,
    )


def series_manifest(series: CorrelationSeries) -> dict:
    """Flat record of every number needed to re-run the sweep."""
    job = series.job
    return {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "polarization": job.spec.polarization.value,
        "xi": job.spec.xi,
        "eta": job.spec.eta,
        "omega": job.cfg.omega,
        "g": job.cfg.g,
        "gamma": job.cfg.gamma,
        "gamma2": job.cfg.mean_photons,
        "phi": job.cfg.phi,
        "t_start_over_T": job.start,
        "t_stop_over_T": job.stop,
        "points": job.count,
        "tol": job.tol,
        "outputs": ",".join(job.outputs),
        "renormalize": job.renormalize,
        "n_max": series.n_max,
        "tail_bound": series.tail_bound,
    }


def _write_rows(path, header: str, row_format: str, table: np.ndarray) -> None:
    """CSV with ``header`` and one ``row_format % row`` line per row of ``table``, LF endings."""
    lines = [header] + [row_format % tuple(row) for row in table.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_series_csv(series: CorrelationSeries, path) -> None:
    """Fixed 4-column CSV: t_over_T, p_chsh_max, concurrence, trace_deficit."""
    table = np.column_stack([series.times_over_T, series.p_chsh_max,
                             series.concurrence, series.trace_deficit])
    _write_rows(path, CSV_HEADER, "%.12g,%.17g,%.17g,%.17g", table)


def write_rho_csv(series: CorrelationSeries, path) -> None:
    """Side-car CSV with the full reduced density per time (re/im of all 16 entries)."""
    if series.rho is None:
        raise ValueError("sweep was run without the rho_elements output")
    cols = ["t_over_T"] + [f"{part}_{i}{j}" for i in range(1, 5) for j in range(1, 5)
                           for part in ("re", "im")]
    # a complex (T, 4, 4) array viewed as float interleaves re and im in header order
    flat = np.ascontiguousarray(series.rho, dtype=complex).view(float).reshape(len(series.rho), 32)
    _write_rows(path, ",".join(cols), "%.12g" + ",%.17g" * 32,
                np.column_stack([series.times_over_T, flat]))


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8", newline="\n")


# --------------------------------------------------------------------------
# figure presets

@dataclass(frozen=True)
class FigurePreset:
    """One published figure: a polarization, a set of curves, four photon panels."""

    figure: str
    polarization: Polarization
    curves: tuple[tuple[str, float, float], ...]  # (label, xi, eta)
    panel_gamma2: tuple[float, ...]
    notes: tuple[str, ...] = ()


_FIG1_NOTE = ("third curve: text says xi=3pi/4 (consistent with the flat singlet "
              "series), caption says pi/3; default 3pi/4, switchable")
_FIG3_NOTE = ("panel 2 photon number: caption says gamma^2=1, body text says 5; "
              "default caption, switchable")


def figure_preset(figure: str, fig1_third_xi: str = "3pi4",
                  fig3_panel2: str = "caption") -> FigurePreset:
    """Preset for fig1..fig4 with the published parameter tuples baked in.

    The two printed discrepancies are selectable: ``fig1_third_xi`` in
    {"3pi4", "pi3"} and ``fig3_panel2`` in {"caption", "text"}.
    """
    gamma2 = (0.01, 1.0, 15.0, 150.0)
    if figure == "fig1":
        if fig1_third_xi not in ("3pi4", "pi3"):
            raise ValueError("fig1_third_xi must be '3pi4' or 'pi3'")
        xis = ("pi6", "pi4", fig1_third_xi)
        return FigurePreset(
            "fig1", Polarization.ANTIPARALLEL,
            tuple((f"xi-{lbl}", ANGLES[lbl], 0.0) for lbl in xis),
            gamma2, (_FIG1_NOTE,))
    if figure == "fig2":
        return FigurePreset(
            "fig2", Polarization.ANTIPARALLEL,
            tuple((f"eta-{lbl}", ANGLES["pi4"], ANGLES[lbl]) for lbl in ("pi6", "pi4", "pi3")),
            gamma2)
    if figure == "fig3":
        if fig3_panel2 not in ("caption", "text"):
            raise ValueError("fig3_panel2 must be 'caption' or 'text'")
        g2 = (0.01, 1.0 if fig3_panel2 == "caption" else 5.0, 15.0, 150.0)
        return FigurePreset(
            "fig3", Polarization.PARALLEL,
            tuple((f"xi-{lbl}", ANGLES[lbl], 0.0) for lbl in ("pi3", "pi4", "3pi4")),
            g2, (_FIG3_NOTE,))
    if figure == "fig4":
        return FigurePreset(
            "fig4", Polarization.PARALLEL,
            tuple((f"eta-{lbl}", ANGLES["pi4"], ANGLES[lbl]) for lbl in ("pi6", "pi4", "pi3")),
            gamma2)
    raise ValueError(f"unknown figure {figure!r} (expected fig1..fig4)")


def _gamma2_label(g2: float) -> str:
    return ("%g" % g2).replace(".", "p")


def run_figure(preset: FigurePreset, outdir, start: float = 0.0, stop: float = 10.0,
               count: int = 400, tol: float = 1e-10, panels=None,
               omega: float = 1.0, g: float = 1.0) -> dict:
    """Sweep every (panel, curve) of a preset into CSV files plus a manifest.

    ``panels`` selects distinct 1-based panels; an out-of-range or repeated
    panel is a ValueError.
    """
    selected = range(1, len(preset.panel_gamma2) + 1) if panels is None else list(panels)
    bad = [p for p in selected if not 1 <= p <= len(preset.panel_gamma2)]
    if bad:
        raise ValueError(f"panel out of range: {bad}")
    if len(set(selected)) != len(selected):
        raise ValueError(f"repeated panel in {selected}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for panel in selected:
        g2 = preset.panel_gamma2[panel - 1]
        for label, xi, eta in preset.curves:
            spec = EntangledStateSpec(preset.polarization, xi, eta)
            cfg = CavityConfig.from_mean_photons(g2, omega=omega, g=g)
            job = SweepJob(spec, cfg, start=start, stop=stop, count=count, tol=tol)
            series = run_sweep(job)
            name = f"{preset.figure}_p{panel}_g2-{_gamma2_label(g2)}_{label}.csv"
            write_series_csv(series, outdir / name)
            entry = series_manifest(series)
            entry.update({"figure": preset.figure, "panel": panel, "curve": label,
                          "file": name})
            write_manifest(entry, outdir / (name[:-4] + ".json"))
            files.append(entry)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "figure": preset.figure,
        "polarization": preset.polarization.value,
        "panel_gamma2": list(preset.panel_gamma2),
        "notes": list(preset.notes),
        "files": files,
    }
    write_manifest(manifest, outdir / f"{preset.figure}_manifest.json")
    return manifest


# --------------------------------------------------------------------------
# config files

def load_job_config(path) -> dict:
    """Read a key = value config mirroring SweepJob fields; returns a flat dict.

    Sections: [state] polarization/xi/eta, [cavity] omega/g/gamma2/phi,
    [grid] start/stop/count, [run] tol/outputs/renormalize.  Any other
    section or key is a ValueError naming it.  CLI flags override whatever
    the file sets.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"could not read config file {path}")
    out: dict = {}
    getters = {
        ("state", "polarization"): ("polarization", str),
        ("state", "xi"): ("xi", float),
        ("state", "eta"): ("eta", float),
        ("cavity", "omega"): ("omega", float),
        ("cavity", "g"): ("g", float),
        ("cavity", "gamma2"): ("gamma2", float),
        ("cavity", "phi"): ("phi", float),
        ("grid", "start"): ("t_start", float),
        ("grid", "stop"): ("t_end", float),
        ("grid", "count"): ("points", int),
        ("run", "tol"): ("tol", float),
        ("run", "outputs"): ("outputs", str),
        ("run", "renormalize"): ("renormalize", None),
    }
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in getters:
                raise ValueError(f"unknown config key {key!r} in section [{section}] of {path}")
    for (section, key), (name, conv) in getters.items():
        if parser.has_option(section, key):
            if conv is None:
                out[name] = parser.getboolean(section, key)
            else:
                out[name] = conv(parser.get(section, key))
    return out
