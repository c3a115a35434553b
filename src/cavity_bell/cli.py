"""Command-line front end: state inspection, spectra, sweeps, figures, checks."""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .correlations import concurrence, max_chsh
from .dynamics import DEFAULT_TOL, TruncationError
from .numerics import NumericalFailure
from .oracle import FRAMES, PASS_TOL, TruncationTooSmall, compare_closed_form
from .states import (
    BASIS_LABELS,
    CavityConfig,
    EntangledStateSpec,
    Polarization,
    density_from_pure,
    make_entangled,
    semiclassical_spectrum,
    split_local_nonlocal,
    stationary_amplitudes,
)
from .sweeps import (
    SweepJob,
    figure_preset,
    load_job_config,
    run_figure,
    run_sweep,
    series_manifest,
    write_manifest,
    write_rho_csv,
    write_series_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # unknown flags and bad values print usage and exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _spec(values: dict, degrees: bool) -> EntangledStateSpec:
    """State spec from the user-given polarization/xi/eta in ``values`` (None or
    absent means default); --degrees converts only given angles, never the
    radian defaults xi = pi/4, eta = 0."""
    def angle(key, default):
        value = values.get(key)
        if value is None:
            return default
        return math.radians(value) if degrees else value

    return EntangledStateSpec(Polarization(values.get("polarization") or "antiparallel"),
                              angle("xi", math.pi / 4), angle("eta", 0.0))


def _cavity(values: dict) -> CavityConfig:
    """Cavity from the user-given omega/g/phi and gamma or gamma2 in ``values``;
    None or absent keeps the CavityConfig default."""
    given = {k: values[k] for k in ("omega", "g", "gamma", "phi") if values.get(k) is not None}
    if values.get("gamma2") is None:
        return CavityConfig(**given)
    return CavityConfig.from_mean_photons(values["gamma2"], **given)


def _job_fields(values: dict) -> dict:
    """SweepJob keyword arguments for the user-given grid and run options in ``values``."""
    fields = {"t_start": "start", "t_end": "stop", "points": "count", "tol": "tol",
              "renormalize": "renormalize"}
    return {f: values[k] for k, f in fields.items() if values.get(k) is not None}


def _add_grid_args(p):
    p.add_argument("--t-start", type=float, help=f"grid start t/T (default {SweepJob.start:g})")
    p.add_argument("--t-end", type=float, help=f"grid end t/T (default {SweepJob.stop:g})")
    p.add_argument("--points", type=int, help=f"grid size (default {SweepJob.count})")
    p.add_argument("--tol", type=float, help=f"Poisson tail tolerance (default {DEFAULT_TOL:g})")


def _add_state_args(p, with_gamma=True):
    p.add_argument("--polarization", choices=[pol.value for pol in Polarization],
                   default=None, help="entangled-state family")
    p.add_argument("--xi", type=float, default=None, help="mixing angle xi")
    p.add_argument("--eta", type=float, default=None, help="relative phase angle eta")
    p.add_argument("--degrees", action="store_true",
                   help="interpret the given xi/eta in degrees")
    p.add_argument("--omega", type=float, help=f"field frequency (default {CavityConfig.omega:g})")
    p.add_argument("--g", type=float, help=f"coupling / omega (default {CavityConfig.g:g})")
    if with_gamma:
        p.add_argument("--gamma2", type=float, default=None,
                       help="mean photon number gamma^2 (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cavity-bell",
                     description="Two-spin cavity entanglement dynamics: CHSH and concurrence series")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="print an entangled state and its local/nonlocal split")
    _add_state_args(p_state, with_gamma=False)

    p_spec = sub.add_parser("spectrum", help="semiclassical level energies at a coherent amplitude")
    p_spec.add_argument("--omega", type=float)
    p_spec.add_argument("--g", type=float)
    p_spec.add_argument("--gamma", type=float, help="coherent amplitude gamma")
    p_spec.add_argument("--phi", type=float, help="coherent phase")
    p_spec.add_argument("--states", action="store_true", help="also print the eigenstates")
    p_spec.add_argument("--stationary", action="store_true",
                        help="also print the variational stationary points")

    p_sweep = sub.add_parser("sweep", help="time sweep of P_CHSH^max and concurrence")
    _add_state_args(p_sweep)
    _add_grid_args(p_sweep)
    p_sweep.add_argument("--renormalize", action="store_true",
                         help="rescale the reduced density to unit trace")
    p_sweep.add_argument("--rho-out", default=None, help="also write the density entries to this CSV")
    p_sweep.add_argument("--config", default=None, help="key = value config file; flags override")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_fig = sub.add_parser("figure", help="reproduce a published figure as CSV series")
    p_fig.add_argument("--figure", required=True, choices=["fig1", "fig2", "fig3", "fig4"])
    p_fig.add_argument("--outdir", required=True)
    _add_grid_args(p_fig)
    p_fig.add_argument("--panels", default=None, help="comma-separated panel subset, e.g. 1,4")
    p_fig.add_argument("--fig1-third-xi", choices=["3pi4", "pi3"], default="3pi4",
                       help="third fig1 curve: 3pi/4 (body text) or pi/3 (caption)")
    p_fig.add_argument("--fig3-panel2", choices=["caption", "text"], default="caption",
                       help="fig3 panel-2 photon number: caption (1) or text (5)")

    p_orc = sub.add_parser("oracle-check",
                           help="closed form vs joint-space evolution on a time grid")
    _add_state_args(p_orc)
    p_orc.add_argument("--t-end", type=float, default=5.0, help="grid end in units of T")
    p_orc.add_argument("--points", type=int, default=50)
    p_orc.add_argument("--tol", type=float, default=PASS_TOL,
                       help=f"pass threshold (default {PASS_TOL:g})")
    p_orc.add_argument("--frame", choices=list(FRAMES), default="corotating")
    p_orc.add_argument("--phi", type=float, help=f"coherent phase (default {CavityConfig.phi:g})")

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--fast", action="store_true", help="reduced grids, smoke test only")

    return parser


def _cmd_state(args) -> int:
    spec = _spec(vars(args), args.degrees)
    amps = make_entangled(spec)
    print(f"polarization = {spec.polarization.value}, xi = {spec.xi:.12g}, eta = {spec.eta:.12g}")
    for label, amp in zip(BASIS_LABELS, amps):
        print(f"  {label}: {amp.real:+.12f} {amp.imag:+.12f}i")
    local, nonlocal_ = split_local_nonlocal(spec)
    print(f"local weights: diag({', '.join('%.12g' % w.real for w in np.diag(local))})")
    idx = np.argwhere(nonlocal_ != 0)
    if idx.size:
        i, j = idx[0]
        print(f"nonlocal cross term ({i + 1},{j + 1}): {nonlocal_[i, j]:.12g}")
    else:
        print("nonlocal part: zero (product state)")
    rho = density_from_pure(amps)
    print(f"t=0 values: P_chsh_max = {max_chsh(rho):.12g}, concurrence = {concurrence(rho):.12g}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _cavity(vars(args))
    levels = semiclassical_spectrum(cfg, cfg.gamma)
    for level in levels:
        print(f"branch {level.index}: energy = {level.energy:.12g}")
        if args.states:
            amps = ", ".join(f"{a.real:+.6f}{a.imag:+.6f}i" for a in level.state)
            print(f"  state: ({amps})")
    if args.stationary:
        for pt in stationary_amplitudes(cfg):
            print(f"stationary branch {pt.branch}: gamma* = {pt.gamma:.12g}, "
                  f"energy = {pt.energy:.12g}, {pt.kind.value}")
    return EXIT_OK


def _merge_sweep_options(args) -> dict:
    merged = dict(load_job_config(args.config)) if args.config else {}
    overrides = {
        "polarization": args.polarization,
        "xi": args.xi, "eta": args.eta,
        "omega": args.omega, "g": args.g, "gamma2": args.gamma2,
        "t_start": args.t_start, "t_end": args.t_end, "points": args.points,
        "tol": args.tol,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if args.renormalize:
        merged["renormalize"] = True
    return merged


def _cmd_sweep(args) -> int:
    opts = _merge_sweep_options(args)
    job = SweepJob(_spec(opts, args.degrees), _cavity(opts), **_job_fields(opts))
    series = run_sweep(job)
    write_series_csv(series, args.out)
    write_manifest(series_manifest(series), str(args.out) + ".json" if not str(args.out).endswith(".csv")
                   else str(args.out)[:-4] + ".json")
    if args.rho_out:
        write_rho_csv(series, args.rho_out)
    print(f"wrote {job.count} points to {args.out} (n_max = {series.n_max}, "
          f"tail bound = {series.tail_bound:.3e})")
    return EXIT_OK


def _cmd_figure(args) -> int:
    preset = figure_preset(args.figure, fig1_third_xi=args.fig1_third_xi,
                           fig3_panel2=args.fig3_panel2)
    panels = [int(tok) for tok in args.panels.split(",")] if args.panels else None
    manifest = run_figure(preset, args.outdir, panels=panels, **_job_fields(vars(args)))
    print(f"wrote {len(manifest['files'])} series for {args.figure} into {args.outdir}")
    for note in manifest["notes"]:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    spec = _spec(vars(args), args.degrees)
    cfg = _cavity(vars(args))
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    times = np.linspace(0.0, args.t_end * cfg.period, args.points)
    report = compare_closed_form(spec, cfg, times, tol=args.tol, frame=args.frame)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _cmd_selftest(args) -> int:
    from .acceptance import hard_failures, run_all

    results = run_all(fast=args.fast)
    for result in results:
        print(result.line())
    failures = hard_failures(results)
    if failures:
        print(f"{len(failures)} hard criterion(s) failed")
        return EXIT_NUMERICAL
    print("all hard criteria passed")
    return EXIT_OK


_COMMANDS = {
    "state": _cmd_state,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "oracle-check": _cmd_oracle_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TruncationError, TruncationTooSmall, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
