import csv
import json
import math

import numpy as np
import pytest

from cavity_bell import cli
from cavity_bell.cli import main
from cavity_bell.correlations import concurrence, max_chsh
from cavity_bell.dynamics import reduced_densities, reduced_density
from cavity_bell.states import CavityConfig, EntangledStateSpec, Polarization
from cavity_bell.sweeps import (
    CSV_HEADER,
    CorrelationSeries,
    SweepJob,
    figure_preset,
    load_job_config,
    run_figure,
    run_sweep,
    series_manifest,
    write_rho_csv,
    write_series_csv,
)

SINGLET = EntangledStateSpec(Polarization.ANTIPARALLEL, 3 * math.pi / 4, 0.0)
ANTI_QUARTER = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)


def small_job(**kw):
    base = dict(spec=ANTI_QUARTER, cfg=CavityConfig(gamma=0.0), start=0.0, stop=1.0, count=16)
    base.update(kw)
    return SweepJob(**base)


def test_job_validation():
    with pytest.raises(ValueError):
        small_job(count=1)
    with pytest.raises(ValueError):
        small_job(start=2.0, stop=1.0)
    with pytest.raises(ValueError):
        small_job(tol=1e-2)
    with pytest.raises(ValueError):
        small_job(outputs=("p_chsh_max", "entropy"))


def test_singlet_sweep_is_flat():
    job = SweepJob(SINGLET, CavityConfig.from_mean_photons(1.0), start=0.0, stop=10.0, count=40)
    series = run_sweep(job)
    assert np.abs(series.p_chsh_max - 2 * math.sqrt(2)).max() < 1e-6
    assert np.abs(series.concurrence - 1.0).max() < 1e-6


def test_vacuum_sweep_concurrence_law():
    cfg = CavityConfig(gamma=0.0)
    job = SweepJob(ANTI_QUARTER, cfg, start=0.0, stop=1.0 / math.sqrt(2.0), count=100)
    series = run_sweep(job)
    expected = np.cos(math.sqrt(2.0) * series.times_over_T * cfg.period) ** 2
    assert np.abs(series.concurrence - expected).max() < 1e-8


def test_series_values_in_range():
    job = SweepJob(EntangledStateSpec(Polarization.PARALLEL, 0.9, 0.5),
                   CavityConfig.from_mean_photons(5.0), start=0.0, stop=4.0, count=30)
    series = run_sweep(job)
    assert np.all(series.p_chsh_max >= 0.0)
    assert np.all(series.p_chsh_max <= 2 * math.sqrt(2) + 1e-9)
    assert np.all(series.concurrence >= 0.0)
    assert np.all(series.concurrence <= 1.0 + 1e-9)
    assert np.all(np.abs(series.trace_deficit) <= 2e-10)


def test_csv_deterministic_and_well_formed(tmp_path):
    job = small_job(count=12)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(run_sweep(job), p1)
    write_series_csv(run_sweep(job), p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    with open(p1, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert float(rows[-1]["t_over_T"]) == 1.0


def test_manifest_flat_and_complete():
    series = run_sweep(small_job())
    manifest = series_manifest(series)
    for key in ("schema_version", "n_max", "tail_bound", "polarization", "xi",
                "eta", "omega", "g", "gamma2", "phi", "tol", "points"):
        assert key in manifest
    assert manifest["schema_version"] == 2
    assert "seed" not in manifest
    assert all(not isinstance(v, (dict, list)) for v in manifest.values())


def test_rho_csv(tmp_path):
    job = small_job(outputs=("p_chsh_max", "concurrence", "trace_deficit", "rho_elements"))
    series = run_sweep(job)
    path = tmp_path / "rho.csv"
    write_rho_csv(series, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == job.count
    assert math.isclose(float(rows[0]["re_22"]), 0.5, abs_tol=1e-12)
    with pytest.raises(ValueError):
        write_rho_csv(run_sweep(small_job()), tmp_path / "missing.csv")


def test_sweep_renormalize_keeps_trace_deficit():
    cfg = CavityConfig.from_mean_photons(5.0)
    job = SweepJob(ANTI_QUARTER, cfg, start=0.0, stop=2.0, count=9, tol=1e-6,
                   outputs=("p_chsh_max", "concurrence", "trace_deficit", "rho_elements"),
                   renormalize=True)
    series = run_sweep(job)
    assert np.abs(np.trace(series.rho, axis1=1, axis2=2).real - 1.0).max() <= 1e-14
    # the deficit column reports the trace before the rescale
    raw, _ = reduced_densities(ANTI_QUARTER, series.times_over_T * cfg.period, cfg, tol=1e-6)
    deficit = 1.0 - np.trace(raw, axis1=1, axis2=2).real
    assert deficit.max() > 1e-9
    assert np.abs(series.trace_deficit - deficit).max() <= 1e-14


ALL_OUTPUTS = ("p_chsh_max", "concurrence", "trace_deficit", "rho_elements")


@pytest.mark.parametrize("polarization, gamma2, renormalize", [
    (Polarization.ANTIPARALLEL, 0.01, False),
    (Polarization.ANTIPARALLEL, 15.0, False),
    (Polarization.PARALLEL, 0.01, False),
    (Polarization.PARALLEL, 15.0, False),
    (Polarization.PARALLEL, 15.0, True),
])
def test_sweep_equals_scalar_path(polarization, gamma2, renormalize):
    # the stacked diagnostics must reproduce the per-point calls bit for bit
    cfg = CavityConfig.from_mean_photons(gamma2)
    job = SweepJob(EntangledStateSpec(polarization, 0.7, 1.1), cfg, start=0.0, stop=6.0,
                   count=25, tol=1e-6 if renormalize else 1e-10, outputs=ALL_OUTPUTS,
                   renormalize=renormalize)
    series = run_sweep(job)
    for k, tau in enumerate(series.times_over_T):
        rho, trunc = reduced_density(job.spec, tau * cfg.period, cfg, tol=job.tol)
        trace = np.trace(rho).real
        if renormalize:
            rho = rho / trace
        assert series.p_chsh_max[k] == max_chsh(rho)
        assert series.concurrence[k] == concurrence(rho)
        assert series.trace_deficit[k] == 1.0 - trace
        assert np.array_equal(series.rho[k], rho)
    assert (series.n_max, series.tail_bound) == (trunc.n_max, trunc.tail_bound)


def test_rho_csv_round_trip(tmp_path):
    job = SweepJob(EntangledStateSpec(Polarization.PARALLEL, 0.7, 1.1),
                   CavityConfig.from_mean_photons(1.0), start=0.0, stop=3.0, count=7,
                   outputs=ALL_OUTPUTS)
    series = run_sweep(job)
    path = tmp_path / "rho.csv"
    write_rho_csv(series, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "t_over_T" and len(header) == 33
    for row, tau, rho in zip(rows[1:], series.times_over_T, series.rho, strict=True):
        assert float(row[0]) == float("%.12g" % tau)
        # %.17g round-trips a double exactly, so every cell must parse back to rho
        for name, cell in zip(header[1:], row[1:], strict=True):
            part, (i, j) = name[:2], (int(name[3]) - 1, int(name[4]) - 1)
            expected = rho[i, j].real if part == "re" else rho[i, j].imag
            assert float(cell) == expected


def test_series_csv_fixed_text(tmp_path):
    series = CorrelationSeries(
        times_over_T=np.array([0.0, 1.0 / 3.0, 2.5]),
        p_chsh_max=np.array([2.0, 0.1 + 0.2, 2 * math.sqrt(2)]),
        concurrence=np.array([1.0, 0.5, 0.0]),
        trace_deficit=np.array([0.0, -1e-17, 2.220446049250313e-16]),
        n_max=0, tail_bound=0.0, job=small_job(count=3))
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    assert path.read_bytes() == (
        b"t_over_T,p_chsh_max,concurrence,trace_deficit\n"
        b"0,2,1,0\n"
        b"0.333333333333,0.30000000000000004,0.5,-1.0000000000000001e-17\n"
        b"2.5,2.8284271247461903,0,2.2204460492503131e-16\n"
    )


def test_figure_presets():
    fig1 = figure_preset("fig1")
    assert fig1.polarization is Polarization.ANTIPARALLEL
    assert [label for label, _, _ in fig1.curves] == ["xi-pi6", "xi-pi4", "xi-3pi4"]
    assert fig1.panel_gamma2 == (0.01, 1.0, 15.0, 150.0)
    assert fig1.notes
    variant = figure_preset("fig1", fig1_third_xi="pi3")
    assert variant.curves[2][1] == pytest.approx(math.pi / 3)

    fig3 = figure_preset("fig3")
    assert fig3.polarization is Polarization.PARALLEL
    assert fig3.panel_gamma2[1] == 1.0
    assert figure_preset("fig3", fig3_panel2="text").panel_gamma2[1] == 5.0

    fig4 = figure_preset("fig4")
    assert [label for label, _, _ in fig4.curves] == ["eta-pi6", "eta-pi4", "eta-pi3"]
    assert all(xi == pytest.approx(math.pi / 4) for _, xi, _ in fig4.curves)

    with pytest.raises(ValueError):
        figure_preset("fig5")
    with pytest.raises(ValueError):
        figure_preset("fig1", fig1_third_xi="pi2")


def test_run_figure_writes_files_and_manifest(tmp_path):
    manifest = run_figure(figure_preset("fig1"), tmp_path, stop=1.0, count=8, panels=[1])
    assert len(manifest["files"]) == 3
    for entry in manifest["files"]:
        assert (tmp_path / entry["file"]).exists()
        assert (tmp_path / (entry["file"][:-4] + ".json")).exists()
        assert entry["panel"] == 1
    top = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert top["schema_version"] == 2
    assert top["notes"]
    assert "seed" not in top


@pytest.mark.parametrize("panel", [0, 5])
def test_run_figure_rejects_out_of_range_panel(tmp_path, panel):
    with pytest.raises(ValueError, match="out of range"):
        run_figure(figure_preset("fig1"), tmp_path, stop=1.0, count=4, panels=[panel])
    assert not list(tmp_path.iterdir())


def test_cli_figure_rejects_repeated_panel(tmp_path, capsys):
    assert main(["figure", "--figure", "fig1", "--outdir", str(tmp_path),
                 "--t-end", "1", "--points", "4", "--panels", "1,1"]) == 1
    assert "repeated panel" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_load_job_config(tmp_path):
    cfg_file = tmp_path / "job.ini"
    cfg_file.write_text(
        "[state]\npolarization = parallel\nxi = 0.5\n"
        "[cavity]\ngamma2 = 2.0\n"
        "[grid]\nstart = 0\nstop = 3\ncount = 25\n"
        "[run]\ntol = 1e-9\nrenormalize = true\n")
    opts = load_job_config(cfg_file)
    assert opts["polarization"] == "parallel"
    assert opts["gamma2"] == 2.0
    assert opts["points"] == 25
    assert opts["renormalize"] is True
    with pytest.raises(ValueError):
        load_job_config(tmp_path / "absent.ini")


@pytest.mark.parametrize("section,key", [("grid", "points"), ("run", "workers"),
                                         ("run", "seed"), ("plot", "dpi")])
def test_load_job_config_rejects_unknown_keys(tmp_path, section, key):
    cfg_file = tmp_path / "job.ini"
    cfg_file.write_text(f"[state]\nxi = 0.5\n[{section}]\n{key} = 2\n")
    with pytest.raises(ValueError, match=key):
        load_job_config(cfg_file)


# ---------------------------------------------------------------------------
# CLI

def test_cli_spectrum_example(capsys):
    assert main(["spectrum", "--omega", "1", "--g", "1", "--gamma", "2"]) == 0
    out = capsys.readouterr().out
    energies = [float(line.split("=")[1]) for line in out.strip().splitlines()]
    assert energies == [0.0, 4.0, 4.0, 8.0]


def test_cli_spectrum_stationary(capsys):
    assert main(["spectrum", "--stationary", "--states"]) == 0
    out = capsys.readouterr().out
    assert "gamma* = 1" in out
    assert "min" in out


def test_cli_state(capsys):
    assert main(["state", "--polarization", "parallel", "--xi", "45", "--eta", "0",
                 "--degrees"]) == 0
    out = capsys.readouterr().out
    assert "P_chsh_max = 2.82842712" in out
    assert "concurrence = 1" in out


def test_cli_degrees_converts_only_given_angles(tmp_path, capsys, monkeypatch):
    # the default xi = pi/4 is already in radians, with or without --degrees
    assert main(["state", "--degrees"]) == 0
    assert "xi = 0.785398163397, eta = 0\n" in capsys.readouterr().out
    assert main(["sweep", "--degrees", "--eta", "90", "--t-end", "1", "--points", "4",
                 "--out", str(tmp_path / "flag.csv")]) == 0
    manifest = json.loads((tmp_path / "flag.json").read_text())
    assert (manifest["xi"], manifest["eta"]) == (math.pi / 4, math.pi / 2)
    ini = tmp_path / "job.ini"
    ini.write_text("[state]\neta = 30\n")
    assert main(["sweep", "--degrees", "--config", str(ini), "--t-end", "1", "--points", "4",
                 "--out", str(tmp_path / "ini.csv")]) == 0
    manifest = json.loads((tmp_path / "ini.json").read_text())
    assert (manifest["xi"], manifest["eta"]) == (math.pi / 4, math.radians(30))
    seen = []
    real_compare = cli.compare_closed_form
    monkeypatch.setattr(cli, "compare_closed_form",
                        lambda spec, *a, **kw: seen.append(spec) or real_compare(spec, *a, **kw))
    assert main(["oracle-check", "--degrees", "--t-end", "1", "--points", "3"]) == 0
    assert (seen[0].xi, seen[0].eta) == (math.pi / 4, 0.0)


def test_cli_sweep_roundtrip(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code = main(["sweep", "--polarization", "antiparallel", "--xi", "0.7853981634",
                 "--eta", "0", "--gamma2", "0", "--t-end", "2", "--points", "100",
                 "--out", str(out_csv)])
    assert code == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    cfg = CavityConfig()
    for row in rows[::9]:
        t = float(row["t_over_T"]) * cfg.period
        assert math.isclose(float(row["concurrence"]),
                            math.cos(math.sqrt(2) * t) ** 2, abs_tol=1e-8)
    assert json.loads((tmp_path / "s.json").read_text())["points"] == 100


def test_cli_sweep_config_overridden_by_flags(tmp_path):
    ini = tmp_path / "job.ini"
    ini.write_text("[grid]\ncount = 10\nstop = 1\n[cavity]\ngamma2 = 0\n")
    out_csv = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(ini), "--points", "7",
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 7


def test_cli_sweep_config_errors_and_phase(tmp_path, capsys):
    ini = tmp_path / "job.ini"
    ini.write_text("[grid]\npoints = 7\n")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "bad.csv")]) == 1
    assert "'points'" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()
    ini.write_text("[cavity]\ngamma2 = 1\nphi = 0.3\n[grid]\ncount = 5\n")
    out_csv = tmp_path / "phi.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out_csv)]) == 0
    assert json.loads((tmp_path / "phi.json").read_text())["phi"] == 0.3


def test_cli_figure(tmp_path, capsys):
    assert main(["figure", "--figure", "fig4", "--outdir", str(tmp_path),
                 "--t-end", "1", "--points", "6", "--panels", "4"]) == 0
    out = capsys.readouterr().out
    assert "3 series" in out
    assert (tmp_path / "fig4_manifest.json").exists()


def test_cli_oracle_check(capsys):
    code = main(["oracle-check", "--gamma2", "1", "--xi", "0.5235987756",
                 "--eta", "0", "--t-end", "2", "--points", "8", "--tol", "1e-6"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_oracle_check_nonzero_phase(capsys):
    code = main(["oracle-check", "--gamma2", "2", "--phi", "0.9", "--xi", "0.7",
                 "--eta", "0.4", "--t-end", "2", "--points", "8"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_cli_oracle_check_lab_frame_fails(capsys):
    code = main(["oracle-check", "--gamma2", "0", "--xi", "0.7853981634",
                 "--t-end", "1", "--points", "6", "--frame", "lab"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_validation_errors(tmp_path, capsys):
    assert main(["sweep", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["sweep", "--no-such-flag", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["figure", "--figure", "fig1", "--outdir", str(tmp_path),
                 "--panels", "9"]) == 1
    assert main(["state", "--polarization", "sideways"]) == 1


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert "cavity-bell" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_oracle_check_rejects_empty_grid(points, capsys):
    code = main(["oracle-check", "--gamma2", "1", "--points", points])
    assert code == 1
    assert f"--points must be >= 1, got {points}" in capsys.readouterr().err
