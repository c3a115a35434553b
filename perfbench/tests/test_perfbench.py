"""Tests of the benchmark itself: tracer, rebinding, seeding, gate and BENCHMARK.json."""
import json
import math
import sys
import types
from pathlib import Path

import pytest

from perfbench import gate, run, workloads
from perfbench.tracer import Tracer, covered_ns, self_times

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fake_package():
    """fakepkg.outer calls fakepkg.inner.work, imported with ``from``."""
    now = [0]

    def advance(ns):
        now[0] += ns

    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    inner = types.ModuleType("fakepkg.inner")

    def work():
        advance(3)

    work.__module__ = "fakepkg.inner"
    inner.work = work
    outer = types.ModuleType("fakepkg.outer")
    outer.work = work

    def entry():
        advance(2)
        outer.work()
        advance(1)
        outer.work()
        advance(4)

    entry.__module__ = "fakepkg.outer"
    outer.entry = entry
    mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(mods)
    try:
        yield outer, (lambda: now[0])
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_self_time_of_nested_calls(fake_package):
    outer, clock = fake_package
    tracer = Tracer("fakepkg", ("outer", "inner"), clock=clock)
    with tracer:
        outer.entry()
    spans = tracer.spans
    assert [(s.name, s.layer, s.parent) for s in spans] == [
        ("entry", "outer", -1), ("work", "inner", 0), ("work", "inner", 0)]
    assert [s.end - s.start for s in spans] == [13, 3, 3]
    assert self_times(spans) == [7, 3, 3]
    assert covered_ns(spans) == 13


def test_layer_self_times_and_bench_time_account_for_wall(fake_package):
    outer, clock = fake_package
    tracer = Tracer("fakepkg", ("outer", "inner"), clock=clock)
    with tracer:
        outer.entry()
    wall_s = 20e-9  # 7 ns of the pass spent outside any span
    m = run.layer_metrics(tracer.spans, {}, wall_s, 0, 0)
    assert m["outer.self_s"] == pytest.approx(7e-9)
    assert m["inner.self_s"] == pytest.approx(6e-9)
    assert m["inner.calls"] == 2
    assert m["outer.self_s"] + m["inner.self_s"] + m["bench.self_s"] == pytest.approx(wall_s)


def test_rebinding_reaches_from_imports():
    import cavity_bell
    import cavity_bell.dynamics as dynamics
    import cavity_bell.sweeps as sweeps
    from cavity_bell.states import CavityConfig, EntangledStateSpec, Polarization

    original = dynamics.reduced_density
    tracer = Tracer("cavity_bell", run.LAYERS)
    with tracer:
        assert sweeps.reduced_density is not original
        assert sweeps.reduced_density.__wrapped__ is original
        assert cavity_bell.reduced_density is sweeps.reduced_density
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, 0.4, 0.0)
        sweeps.run_sweep(sweeps.SweepJob(spec, CavityConfig(gamma=0.0), count=3))
    assert sweeps.reduced_density is original
    assert cavity_bell.reduced_density is original
    names = [s.name for s in tracer.spans]
    top = names.index("run_sweep")
    assert [s.parent for s in tracer.spans if s.name == "reduced_density"] == [top] * 3
    assert "SweepJob.__init__" in names and "CavityConfig.__init__" in names


def _without(argv, flags):
    out = list(argv)
    for flag in flags:
        if flag in out:
            out[out.index(flag) + 1] = "*"
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_angles_only(workload, tmp_path):
    a = workloads.build_jobs(workload, 1, tmp_path)
    b = workloads.build_jobs(workload, 2, tmp_path)
    assert len(a) == len(b)
    masked = ("--xi", "--eta", "--figure", "--outdir")
    assert [_without(j.argv, masked) for j in a] == [_without(j.argv, masked) for j in b]
    for ja, jb in zip(a, b):
        for key in ("gamma2", "points", "polarization", "series"):
            assert ja.params.get(key) == jb.params.get(key)
    if workload in ("sweep-smallfield", "oracle-check"):
        assert [j.params["xi"] for j in a] != [j.params["xi"] for j in b]
    if workload == "figure-revival":
        picks = {tuple(j.params["figure"] for j in workloads.build_jobs(workload, s, tmp_path))
                 for s in range(20)}
        assert picks <= {(f, g) for f in ("fig1", "fig2") for g in ("fig3", "fig4")}
        assert len(picks) > 1


def _series_text(xi, rows):
    s2 = math.sin(2 * xi)
    lines = [gate.SERIES_HEADER, "0,%r,%r,0" % (2 * math.sqrt(1 + s2 * s2), abs(s2))]
    lines += ["%g,%r,%r,%r" % row for row in rows]
    return "\n".join(lines) + "\n"


def test_gate_rejects_p_above_tsirelson():
    good = _series_text(0.3, [(0.5, 2.1, 0.4, 1e-11)])
    assert gate.check_series(good, 2, 0.3, 1e-10) == []
    bad = _series_text(0.3, [(0.5, 2.9, 0.4, 1e-11)])
    assert any("above 2 sqrt 2" in p for p in gate.check_series(bad, 2, 0.3, 1e-10))


def test_gate_rejects_tampered_sweep_and_nonzero_exit(tmp_path):
    job = workloads.build_jobs("sweep-smallfield", 3, tmp_path)[0]
    argv = _without(job.argv, ("--points",))
    argv[argv.index("*")] = "12"
    job = workloads.Job("sweep", tuple(argv), {**job.params, "points": 12})
    rc, stdout, _ = run.run_job(job.argv)
    assert gate.check_job(job, rc, stdout)[0] == []
    csv_path = Path(job.params["files"][0])
    lines = csv_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "2.9"
    lines[5] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    problems, _ = gate.check_job(job, rc, stdout)
    assert any("above 2 sqrt 2" in p for p in problems)
    assert gate.check_job(job, 1, stdout)[0] == ["exit code 1"]
    assert gate.check_job(job, None, stdout)[0] == ["exit code None"]


def test_refuses_with_thread_pool_env(monkeypatch, capsys):
    monkeypatch.setenv(run.THREADS_ENV, "2")
    assert run.main(["--workload", "oracle-check", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
