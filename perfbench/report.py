"""Run workloads over several seeds and summarise each metric.

Each run is a fresh ``perfbench/run.py`` process, one at a time.  For every
workload and metric the summary gives the median, the quartiles and the
spread (interquartile distance over median), plus failed / attempted jobs.
With ``--trace 0`` it also summarises the raw ``wall_s`` and ``cpu_s`` behind
the host-rescaled times::

    python3 perfbench/report.py --seeds 10 --seconds 20
    python3 perfbench/report.py --workloads oracle-check --seeds 5 --trace 1
    python3 perfbench/report.py --seeds 10 --json perfbench/BASELINE.json
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900

sys.path.insert(0, str(ROOT))
from perfbench.facts import machine_facts  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not trace:
        # the raw times behind the host-rescaled ones, from the run's results file
        details = json.loads((ROOT / ".perfbench" / "results" /
                              f"{workload}-seed{seed}-trace{trace}.json").read_text())
        for raw in ("wall_s", "cpu_s"):
            result["metrics"][raw] = {"value": details[raw], "unit": "s"}
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", default=None, help="write the summary to this file")
    args = p.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "runs_per_workload": args.seeds,
               "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
               "spread": "(q3 - q1) / median, quartiles from statistics.quantiles(n=4)",
               "facts": machine_facts(ROOT), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
                 "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            entry["metrics"][name] = {"unit": first["unit"],
                                      **summarise([r["metrics"][name]["value"] for r in runs])}
        summary["workloads"][workload] = entry

    print(f"\n{'workload':<18} {'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  unit")
    for workload, entry in summary["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:<18} {name:<48} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>7.3f}  {s['unit']}")
        print(f"{workload:<18} {'fail_frac':<48} {entry['fail_frac']:>12.6g} "
              f"({entry['failed']} of {entry['attempted']} jobs)")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
