"""Workload job lists for the cavity-bell benchmark.

A workload is a fixed list of ``cavity-bell`` command lines.  The seed draws
only inputs that do not set the cost: the (xi, eta) angles of the entangled
state, and which of two same-cost figures runs.  The photon numbers, grid
sizes, polarization mix and job count are fixed per workload.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_POINTS = 100
FIGURE_POINTS = 12
SMALLFIELD_GAMMA2 = (0.01, 1.0)
ORACLE_GAMMA2 = (15.0, 150.0)
POLARIZATIONS = ("antiparallel", "parallel")
#: sectors evaluated per grid point are n_max + SAFETY_SECTORS + 1
SECTORS_BEYOND_NMAX = 3


@dataclass(frozen=True)
class Job:
    """One command line plus what the gate needs to check its outputs."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, hash=False, compare=False)


def _angles(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)


def _sweep_jobs(rng, work: Path) -> list[Job]:
    jobs = []
    for pol in POLARIZATIONS:
        for g2 in SMALLFIELD_GAMMA2:
            for _ in range(2):
                xi, eta = _angles(rng)
                stem = work / f"sweep{len(jobs)}"
                argv = ("sweep", "--polarization", pol, "--gamma2", repr(g2),
                        "--xi", repr(xi), "--eta", repr(eta),
                        "--t-start", "0", "--t-end", "10", "--points", str(SWEEP_POINTS),
                        "--out", f"{stem}.csv", "--rho-out", f"{stem}_rho.csv")
                jobs.append(Job("sweep", argv, {
                    "polarization": pol, "gamma2": g2, "xi": xi, "eta": eta,
                    "points": SWEEP_POINTS, "tol": 1e-10,
                    "files": [f"{stem}.csv", f"{stem}.json", f"{stem}_rho.csv"]}))
    return jobs


def _figure_jobs(rng, work: Path) -> list[Job]:
    # fig1/fig2 (antiparallel) and fig3/fig4 (parallel) have the same curve
    # count and photon numbers in panels 3 and 4, so either choice costs the same
    figures = (rng.choice(("fig1", "fig2")), rng.choice(("fig3", "fig4")))
    return [Job("figure",
                ("figure", "--figure", fig, "--panels", "3,4",
                 "--points", str(FIGURE_POINTS), "--outdir", str(work / fig)),
                {"figure": fig, "outdir": str(work / fig), "series": 6,
                 "points": FIGURE_POINTS, "tol": 1e-10})
            for fig in figures]


def _oracle_jobs(rng, work: Path) -> list[Job]:
    jobs = []
    for pol in POLARIZATIONS:
        for g2 in ORACLE_GAMMA2:
            xi, eta = _angles(rng)
            argv = ("oracle-check", "--polarization", pol, "--gamma2", repr(g2),
                    "--xi", repr(xi), "--eta", repr(eta))
            jobs.append(Job("oracle-check", argv,
                            {"polarization": pol, "gamma2": g2, "xi": xi, "eta": eta}))
    return jobs


def _selftest_jobs(rng, work: Path) -> list[Job]:
    # the acceptance criteria seed themselves; the benchmark seed is unused
    return [Job("selftest", ("selftest", "--fast"))]


WORKLOADS = {
    "sweep-smallfield": _sweep_jobs,
    "figure-revival": _figure_jobs,
    "oracle-check": _oracle_jobs,
    "selftest-fast": _selftest_jobs,
}


def build_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    """The job list of one pass; output paths live under ``work``."""
    return WORKLOADS[workload](random.Random(seed), Path(work))


def warmup_argv(workload: str, work: Path) -> list[str]:
    """One tiny job of the workload's kind, run once before any timing.

    The oracle-check and selftest warm-ups use gamma^2 = 15 so that the first
    mid-sized Hermitian eigendecomposition of the process lands in set-up.
    """
    work = Path(work)
    if workload == "sweep-smallfield":
        return ["sweep", "--gamma2", "1", "--points", "2", "--out", str(work / "warm.csv"),
                "--rho-out", str(work / "warm_rho.csv")]
    if workload == "figure-revival":
        return ["figure", "--figure", "fig1", "--panels", "3", "--points", "2",
                "--outdir", str(work / "warmfig")]
    if workload in ("oracle-check", "selftest-fast"):
        return ["oracle-check", "--gamma2", "15", "--points", "2"]
    raise KeyError(workload)


def warmup_imports(workload: str) -> tuple[str, ...]:
    """Modules a workload imports lazily; set-up imports them up front."""
    return ("cavity_bell.acceptance",) if workload == "selftest-fast" else ()


_ORACLE_LINE = re.compile(r"over (\d+) times .* n_max (\d+)\)")


def sector_points(job: Job, stdout: str) -> int:
    """Sum over grid points of the sectors evaluated, from the job's outputs."""
    if job.kind == "sweep":
        manifests = [json.loads(Path(job.params["files"][1]).read_text())]
    elif job.kind == "figure":
        path = Path(job.params["outdir"]) / f"{job.params['figure']}_manifest.json"
        manifests = json.loads(path.read_text())["files"]
    elif job.kind == "oracle-check":
        m = _ORACLE_LINE.search(stdout)
        return int(m.group(1)) * (int(m.group(2)) + SECTORS_BEYOND_NMAX) if m else 0
    else:
        return 0
    return sum(m["points"] * (m["n_max"] + SECTORS_BEYOND_NMAX) for m in manifests)


def output_files(job: Job) -> list[Path]:
    """Every file the job writes, in a stable order."""
    if job.kind == "sweep":
        return [Path(p) for p in job.params["files"]]
    if job.kind == "figure":
        return sorted(Path(job.params["outdir"]).iterdir())
    return []
