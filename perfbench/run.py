"""cavity-bell benchmark runner.

Runs one workload of ``cavity-bell`` jobs in-process through
``cavity_bell.cli.main`` as a single closed-loop client, gates every job's
outputs, and prints one JSON result as its last line of standard output::

    python3 perfbench/run.py --workload sweep-smallfield --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The package
is imported from ``src/`` next to this directory; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gate, hostspeed, workloads  # noqa: E402
from perfbench.facts import machine_facts  # noqa: E402
from perfbench.tracer import Tracer, covered_ns, self_times  # noqa: E402

PACKAGE = "cavity_bell"
LAYERS = ("cli", "sweeps", "dynamics", "correlations", "oracle", "numerics", "states",
          "acceptance")
#: layers that call numerics.hermitian_eigensystem; the metric is split by caller
EIGH_CALLERS = ("correlations", "oracle", "states")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
THREADS_ENV = "CAVITY_BELL_THREADS"
OUT_DIR = ROOT / ".perfbench"

END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    *((f"{layer}.{kind}", unit) for layer in LAYERS
      for kind, unit in (("self_s", "s"), ("calls", "count"))),
    ("bench.self_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead", "ratio"),
    ("dynamics.sector_points", "count"),
    ("dynamics.ns_per_sector_point", "ns"),
    ("correlations.max_chsh.self_s", "s"),
    ("correlations.concurrence.self_s", "s"),
    ("correlations.max_chsh_brute.self_s", "s"),
    *((f"acceptance.criterion_{k}_s", "s") for k in range(1, 10)),
    ("oracle.eigh_s", "s"),
    ("oracle.propagate_s", "s"),
    ("oracle.closed_form_s", "s"),
    ("oracle.hilbert_dim", "count"),
    *((f"numerics.hermitian_eigensystem.{caller}.{kind}", unit) for caller in EIGH_CALLERS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("sweeps.emit_s", "s"),
    ("sweeps.bytes_written", "bytes"),
)


class Refused(Exception):
    """The benchmark cannot run in this environment."""


def import_package():
    """Import the package from ``src/`` beside the benchmark, never from elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise Refused(f"no {PACKAGE} sources under {src}")
    sys.path.insert(0, str(src))
    import cavity_bell.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise Refused(f"{PACKAGE} was imported from {cli.__file__}, not from {src}")
    return cli


def run_job(argv) -> tuple[int | None, str, str]:
    """Run one command in-process; rc is None when it raised."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crashing job is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def warm_up(workload: str, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name in workloads.warmup_imports(workload):
        __import__(name)
    rc, _, err = run_job(workloads.warmup_argv(workload, work))
    if rc != 0:
        raise Refused(f"warm-up job failed with exit code {rc}: {err.strip()}")


def probe(workload: str, work: Path) -> float:
    """Set-up time of this fresh interpreter: import the CLI, finish the warm-up."""
    t0 = time.perf_counter()
    import_package()
    warm_up(workload, work)
    return time.perf_counter() - t0


def measure_setup(workload: str, work: Path) -> list[float]:
    """Set-up time from SETUP_PROBES fresh interpreters, run one after another."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = work / f"probe{k}"
        probe_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
             "--work", str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise Refused(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(jobs, tracer: Tracer | None = None) -> dict:
    """Run the job list once; with a tracer, record spans around every layer call."""
    outcomes = []
    if tracer is not None:
        tracer.reset()
    with tracer if tracer is not None else contextlib.nullcontext():
        c0, t0 = cpu_seconds(), time.perf_counter_ns()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            outcomes.append(run_job(job.argv))
        t1, c1 = time.perf_counter_ns(), cpu_seconds()
    return {"wall_s": (t1 - t0) / 1e9, "cpu_s": c1 - c0, "outcomes": outcomes,
            "traced": tracer is not None}


class Gatekeeper:
    """Checks each pass's jobs; after the first pass, written files must stay
    byte-identical to the first pass's checked ones."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference: dict[int, dict | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spot_c_max_dev = 0.0

    def _record(self, pass_no: int, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"pass {pass_no} job {i}: {p}" for p in problems]

    def check(self, pass_no: int, outcomes) -> None:
        for i, (job, (rc, stdout, stderr)) in enumerate(zip(self.jobs, outcomes)):
            files = workloads.output_files(job) if rc == 0 else []
            if i in self.reference and self.reference[i] is not None:
                problems = [f"exit code {rc}: {stderr.strip()[-500:]}"] if rc != 0 else []
                if not problems and gate.digest_files(files) != self.reference[i]:
                    problems = ["outputs differ from the first pass"]
            else:
                problems, dev = gate.check_job(job, rc, stdout)
                if rc != 0:
                    problems.append(stderr.strip()[-500:])
                self.spot_c_max_dev = max(self.spot_c_max_dev, dev)
                self.reference[i] = None if problems or not files else gate.digest_files(files)
            self._record(pass_no, i, problems)

    def rerun_check(self, pass_no: int, index: int) -> None:
        """Re-run one job outside the timed region; its files must not change."""
        before = self.reference.get(index)
        if before is None:
            return
        rc, _, stderr = run_job(self.jobs[index].argv)
        after = gate.digest_files(workloads.output_files(self.jobs[index])) if rc == 0 else None
        if after != before:
            self.failed += 1
            self.problems.append(f"pass {pass_no} job {index}: re-run is not byte-identical "
                                 f"(exit code {rc}) {stderr.strip()[-300:]}")


def pass_counts(jobs, outcomes) -> tuple[int, int]:
    """Sector points evaluated and bytes written by one pass, from its outputs."""
    sectors = sum(workloads.sector_points(job, out[1]) for job, out in zip(jobs, outcomes))
    written = sum(p.stat().st_size for job in jobs for p in workloads.output_files(job))
    return sectors, written


def layer_metrics(spans, observed, wall_s: float, sector_points: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own = self_times(spans)
    m = defaultdict(float)
    named_self, named_total = defaultdict(int), defaultdict(int)
    for s, self_ns in zip(spans, own):
        duration = s.end - s.start
        key = f"{s.layer}.{s.name}"
        parent_layer = spans[s.parent].layer if s.parent >= 0 else "bench"
        m[f"{s.layer}.self_s"] += self_ns / 1e9
        m[f"{s.layer}.calls"] += 1
        named_self[key] += self_ns
        named_total[key] += duration
        if key == "numerics.hermitian_eigensystem" and parent_layer in EIGH_CALLERS:
            m[f"{key}.{parent_layer}.calls"] += 1
            m[f"{key}.{parent_layer}.self_s"] += self_ns / 1e9
        if s.layer == "dynamics" and parent_layer == "oracle":
            m["oracle.closed_form_s"] += duration / 1e9
        if s.layer == "sweeps" and s.name.startswith("write_"):
            m["sweeps.emit_s"] += duration / 1e9
    m["bench.self_s"] = wall_s - covered_ns(spans) / 1e9
    m["traced_wall_s"] = wall_s
    m["dynamics.sector_points"] = sector_points
    m["dynamics.ns_per_sector_point"] = (m["dynamics.self_s"] * 1e9 / sector_points
                                         if sector_points else 0.0)
    for name in ("max_chsh", "concurrence", "max_chsh_brute"):
        m[f"correlations.{name}.self_s"] = named_self[f"correlations.{name}"] / 1e9
    for key, total in named_total.items():
        if key.startswith("acceptance.criterion_"):
            k = key.split("_")[1]
            m[f"acceptance.criterion_{k}_s"] += total / 1e9
    m["oracle.eigh_s"] = named_total["oracle.Propagator.__init__"] / 1e9
    m["oracle.propagate_s"] = named_total["oracle.Propagator.apply"] / 1e9
    m["oracle.hilbert_dim"] = max(observed.get("Propagator.__init__", [0]))
    m["sweeps.bytes_written"] = bytes_written
    return m


def span_table(spans) -> list[dict]:
    """Calls, total and self seconds per span name, for the results file."""
    agg = defaultdict(lambda: [0, 0, 0])
    for s, self_ns in zip(spans, self_times(spans)):
        row = agg[(s.layer, s.name)]
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += self_ns
    return [{"layer": layer, "name": name, "calls": c, "total_s": t / 1e9, "self_s": st / 1e9}
            for (layer, name), (c, t, st) in sorted(agg.items(), key=lambda kv: -kv[1][2])]


def _hamiltonian_dim(args, kwargs) -> int:
    h = kwargs.get("hamiltonian", args[1] if len(args) > 1 else None)
    return int(h.shape[0])


def benchmark(args, work: Path) -> dict:
    import_package()
    setup = [] if args.trace else measure_setup(args.workload, work)
    warm_up(args.workload, work / "warm")
    (work / "jobs").mkdir()
    jobs = workloads.build_jobs(args.workload, args.seed, work / "jobs")
    keeper = Gatekeeper(jobs)
    tracer = Tracer(PACKAGE, LAYERS, watch={"Propagator.__init__": _hamiltonian_dim})
    passes, per_layer, last_spans = [], [], []
    kernel = [] if args.trace else [hostspeed.kernel_seconds()]
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = run_pass(jobs, tracer if traced else None)
        passes.append(result)
        if not args.trace:
            kernel.append(hostspeed.kernel_seconds())
        if len(passes) == 1:
            # the high-water mark before any gate work: the oracle spot checks
            # allocate more than some workloads do
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            keeper.check(1, result["outcomes"])
            keeper.rerun_check(1, 0)
        else:
            keeper.check(len(passes), result["outcomes"])
        if traced:
            sectors, written = pass_counts(jobs, result["outcomes"])
            per_layer.append(layer_metrics(tracer.spans, tracer.observed, result["wall_s"],
                                           sectors, written))
            last_spans = tracer.spans
            tracer.reset()
        enough = not args.trace or per_layer
        if enough and sum(p["wall_s"] for p in passes) >= args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in per_layer)
                   for name, _ in PER_LAYER if name != "trace_overhead"}
        metrics["trace_overhead"] = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                                     / statistics.median(p["wall_s"] for p in untraced))
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref_s": hostspeed.rescale(statistics.median(p["wall_s"] for p in untraced),
                                            kernel),
            "cpu_ref_s": hostspeed.rescale(statistics.median(p["cpu_s"] for p in untraced),
                                           kernel),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    return {
        "correct": keeper.failed == 0,
        "attempted": keeper.attempted,
        "failed": keeper.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "details": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs_per_pass": len(jobs),
            "fail_frac": keeper.failed / keeper.attempted,
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "kernel_s": kernel,
            "spot_c_max_dev": keeper.spot_c_max_dev,
            "setup_samples_s": setup,
            "passes": [{k: v for k, v in p.items() if k != "outcomes"} for p in passes],
            "problems": keeper.problems[:50],
            "spans": span_table(last_spans),
            "facts": machine_facts(ROOT),
        },
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if os.environ.get(THREADS_ENV):
            raise Refused(f"{THREADS_ENV} is set; it selects the non-default thread-pool path")
        if args.probe:
            print(json.dumps({"setup_s": probe(args.workload, Path(args.work))}))
            return 0
        work = OUT_DIR / f"work-{os.getpid()}"
        try:
            work.mkdir(parents=True)
            result = benchmark(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2

    details = result.pop("details")
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({**result, **details}, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(details['passes'])} passes of {details['jobs_per_pass']} jobs")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_frac {details['fail_frac']:g}, max |C - C_oracle| {details['spot_c_max_dev']:.2e}")
    for problem in details["problems"][:10]:
        print(f"  problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<48} {entry['value']:>16.6g} {entry['unit']}")
    for raw in ("wall_s", "cpu_s"):
        print(f"  {raw + ' (raw, not host-rescaled)':<48} {details[raw]:>16.6g} s")
    print("facts " + json.dumps(details["facts"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
