"""Correctness gate for benchmark jobs, applied outside the timed region.

Each check returns a list of problems; an empty list means the job passed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SERIES_HEADER = "t_over_T,p_chsh_max,concurrence,trace_deficit"
RHO_COLUMNS = 33
TSIRELSON = 2.0 * math.sqrt(2.0)
BOUND_SLACK = 1e-9
DEFICIT_FLOOR = -1e-12
T0_TOL = 1e-9
SPOT_P_TOL = 1e-8
#: The closed-form and oracle densities agree to ~1e-14 at small photon
#: number, but `concurrence` is accurate only to ~1e-7 on nearly rank-deficient
#: densities: each clamped eigenvalue of rho rho~ can carry rounding of order
#: 16 eps, which the square root turns into ~6e-8.  A 1e-8 bound on C would
#: fail on that defect rather than on a closed-form error, so C is held to
#: 1e-6 and the measured deviation is reported; the density elements, where
#: the sweep writes them, are held to SPOT_RHO_TOL.
SPOT_C_TOL = 1e-6
SPOT_RHO_TOL = 1e-9


def spot_indices(points: int) -> list[int]:
    """Fixed grid indices compared against the oracle, independent of the seed."""
    return sorted({points // 3, (2 * points) // 3, points - 1})


def parse_csv(text: str) -> tuple[str, list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_series(text: str, points: int, xi: float, tol: float) -> list[str]:
    """Header, row count, value ranges and the t = 0 pure-state values."""
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable series CSV: {exc}"]
    problems = []
    if header != SERIES_HEADER:
        problems.append(f"series header {header!r}")
    if len(rows) != points:
        problems.append(f"{len(rows)} series rows, expected {points}")
    for k, row in enumerate(rows):
        if len(row) != 4 or not all(math.isfinite(v) for v in row):
            problems.append(f"row {k}: malformed {row}")
            continue
        _, p, c, deficit = row
        if p > TSIRELSON + BOUND_SLACK:
            problems.append(f"row {k}: P = {p!r} above 2 sqrt 2")
        if not 0.0 <= c <= 1.0:
            problems.append(f"row {k}: C = {c!r} outside [0, 1]")
        if not DEFICIT_FLOOR <= deficit <= 2.0 * tol:
            problems.append(f"row {k}: trace deficit {deficit!r} outside [-1e-12, 2 tol]")
    if rows and len(rows[0]) == 4:
        t0, p0, c0, _ = rows[0]
        s2 = math.sin(2.0 * xi)
        if t0 != 0.0:
            problems.append(f"first row at t/T = {t0!r}, expected 0")
        if abs(p0 - 2.0 * math.sqrt(1.0 + s2 * s2)) > T0_TOL:
            problems.append(f"P(0) = {p0!r}, expected {2.0 * math.sqrt(1.0 + s2 * s2)!r}")
        if abs(c0 - abs(s2)) > T0_TOL:
            problems.append(f"C(0) = {c0!r}, expected {abs(s2)!r}")
    return problems


def check_rho(text: str, points: int) -> list[str]:
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable density CSV: {exc}"]
    problems = []
    if len(header.split(",")) != RHO_COLUMNS:
        problems.append(f"density header has {len(header.split(','))} columns")
    if len(rows) != points:
        problems.append(f"{len(rows)} density rows, expected {points}")
    if any(len(r) != RHO_COLUMNS or not all(math.isfinite(v) for v in r) for r in rows):
        problems.append("malformed density row")
    return problems


def spot_check(series_rows, entry: dict, rho_rows=None) -> tuple[list[str], float]:
    """Compare P, C (and rho, if given) at a few grid times with the oracle.

    Returns the problems and the largest |C - C_oracle| seen.
    """
    import numpy as np

    from cavity_bell.correlations import concurrence, max_chsh
    from cavity_bell.oracle import reduced_dynamics
    from cavity_bell.states import CavityConfig, EntangledStateSpec, Polarization

    spec = EntangledStateSpec(Polarization(entry["polarization"]), entry["xi"], entry["eta"])
    cfg = CavityConfig.from_mean_photons(entry["gamma2"], omega=entry["omega"], g=entry["g"])
    idx = spot_indices(len(series_rows))
    taus = [series_rows[k][0] for k in idx]
    rhos, _ = reduced_dynamics(spec, cfg, [tau * cfg.period for tau in taus])
    problems = []
    worst_c = 0.0
    for k, tau, rho in zip(idx, taus, rhos):
        _, p, c, _ = series_rows[k]
        dp, dc = abs(p - max_chsh(rho)), abs(c - concurrence(rho))
        worst_c = max(worst_c, dc)
        if dp > SPOT_P_TOL:
            problems.append(f"t/T = {tau:g}: |P - P_oracle| = {dp:.3e}")
        if dc > SPOT_C_TOL:
            problems.append(f"t/T = {tau:g}: |C - C_oracle| = {dc:.3e}")
        if rho_rows is not None:
            vals = np.asarray(rho_rows[k][1:]).reshape(4, 4, 2)
            drho = float(np.abs(vals[..., 0] + 1j * vals[..., 1] - rho).max())
            if drho > SPOT_RHO_TOL:
                problems.append(f"t/T = {tau:g}: max |rho - rho_oracle| = {drho:.3e}")
    return problems, worst_c


def _check_manifest_series(entry: dict, csv_path: Path, rho_path: Path | None):
    text = csv_path.read_text(encoding="utf-8")
    problems = check_series(text, entry["points"], entry["xi"], entry["tol"])
    if problems:
        return problems, 0.0
    rho_rows = None
    if rho_path is not None:
        rho_text = rho_path.read_text(encoding="utf-8")
        problems = check_rho(rho_text, entry["points"])
        if problems:
            return problems, 0.0
        rho_rows = parse_csv(rho_text)[1]
    return spot_check(parse_csv(text)[1], entry, rho_rows)


def check_job(job, rc, stdout: str) -> tuple[list[str], float]:
    """Full gate for one job: exit code, printed verdict and written files.

    Returns the problems and the largest concurrence spot-check deviation.
    """
    if rc != 0:
        return [f"exit code {rc}"], 0.0
    if job.kind == "oracle-check":
        return ([] if stdout.startswith("PASS") else [f"oracle-check printed {stdout.strip()!r}"]), 0.0
    if job.kind == "selftest":
        failed = [line for line in stdout.splitlines() if "] FAIL" in line]
        if failed or "all hard criteria passed" not in stdout:
            return failed or ["selftest did not report all hard criteria passed"], 0.0
        return [], 0.0
    if job.kind == "sweep":
        csv_path, manifest_path, rho_path = (Path(p) for p in job.params["files"])
        entry = json.loads(manifest_path.read_text(encoding="utf-8"))
        # the state and grid come from the job, not from what the program wrote
        entry.update({k: job.params[k] for k in ("polarization", "gamma2", "xi", "eta",
                                                 "points", "tol")})
        return _check_manifest_series(entry, csv_path, rho_path)
    if job.kind == "figure":
        outdir = Path(job.params["outdir"])
        manifest = json.loads((outdir / f"{job.params['figure']}_manifest.json").read_text())
        if len(manifest["files"]) != job.params["series"]:
            return [f"{len(manifest['files'])} series, expected {job.params['series']}"], 0.0
        problems, worst_c = [], 0.0
        for entry in manifest["files"]:
            found, dc = _check_manifest_series(entry, outdir / entry["file"], None)
            problems += [f"{entry['file']}: {p}" for p in found]
            worst_c = max(worst_c, dc)
        return problems, worst_c
    return [f"unknown job kind {job.kind!r}"], 0.0


def digest_files(paths) -> dict[str, str]:
    """sha256 of each file, keyed by path."""
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
