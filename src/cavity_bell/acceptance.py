"""Acceptance criteria, runnable from pytest or the `selftest` CLI subcommand.

Criteria 6 and 7 are threshold readings off published figure panels; they
are treated as soft: a miss is reported with the measured numbers instead
of raising.  Everything else is hard.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .correlations import (
    ChshQuadruple,
    MeasurementDirection,
    TSIRELSON,
    chsh_local_value,
    concurrence,
    max_chsh,
    max_chsh_brute,
)
from .dynamics import reduced_densities, reduced_density
from .numerics import DEFAULT_SEED, random_density_matrix
from .oracle import (
    Propagator,
    build_hamiltonian,
    default_n_fock,
    excitation_numbers,
    initial_joint,
    reduced_dynamics,
)
from .states import CavityConfig, EntangledStateSpec, Polarization
from .sweeps import SweepJob, figure_preset, run_sweep

SINGLET_SPEC = EntangledStateSpec(Polarization.ANTIPARALLEL, 3.0 * math.pi / 4.0, 0.0)


@dataclass
class CriterionResult:
    index: int
    name: str
    hard: bool
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        if self.passed:
            verdict = "PASS"
        else:
            verdict = "FAIL" if self.hard else "MISS (soft, reported)"
        return f"criterion {self.index} [{self.name}] {verdict} ({self.seconds:.1f}s): {self.detail}"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def criterion_1_singlet_conservation(fast: bool = False):
    """Flat (2 sqrt 2, 1) series for the singlet at every photon number."""
    gamma2s = (0.01, 150.0) if fast else (0.01, 1.0, 15.0, 150.0)
    points = 40 if fast else 200
    rhos = []

    def body():
        dev_p = dev_c = 0.0
        for g2 in gamma2s:
            job = SweepJob(SINGLET_SPEC, CavityConfig.from_mean_photons(g2),
                           start=0.0, stop=10.0, count=points,
                           outputs=("p_chsh_max", "concurrence", "trace_deficit", "rho_elements"))
            series = run_sweep(job)
            rhos.extend(series.rho)
            dev_p = max(dev_p, float(np.abs(series.p_chsh_max - TSIRELSON).max()))
            dev_c = max(dev_c, float(np.abs(series.concurrence - 1.0).max()))
        return dev_p, dev_c

    (dev_p, dev_c), secs = _timed(body)
    runtime_ok = secs < 30.0
    passed = dev_p < 1e-6 and dev_c < 1e-6 and runtime_ok
    detail = (f"max |P-2sqrt2| = {dev_p:.2e}, max |C-1| = {dev_c:.2e}, "
              f"gamma2 in {gamma2s}, runtime {'ok' if runtime_ok else 'over 30s'}")
    return CriterionResult(1, "singlet conservation", True, passed, detail, secs), rhos


def criterion_2_oracle_equivalence(fast: bool = False):
    """Sector expansion vs joint-space evolution, element-wise within 1e-6."""
    if fast:
        gamma2s, xis, etas, points = (0.0, 1.0), (math.pi / 6, 3 * math.pi / 4), (0.0, math.pi / 4), 12
    else:
        gamma2s = (0.0, 0.5, 1.0, 5.0, 15.0, 150.0)
        xis = (math.pi / 6, math.pi / 4, math.pi / 3, 3 * math.pi / 4)
        etas = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
        points = 50
    rhos = []

    def body():
        worst = 0.0
        worst_case = ""
        for pol, g2, xi, eta in product(Polarization, gamma2s, xis, etas):
            spec = EntangledStateSpec(pol, xi, eta)
            cfg = CavityConfig.from_mean_photons(g2)
            times = np.linspace(0.0, 5.0 * cfg.period, points)
            oracle_rhos, _ = reduced_dynamics(spec, cfg, times)
            closed, _ = reduced_densities(spec, times, cfg, tol=1e-10)
            rhos.extend(closed)
            devs = np.abs(closed - oracle_rhos).max(axis=(1, 2))
            k = int(np.argmax(devs))
            if devs[k] > worst:
                worst = float(devs[k])
                worst_case = (f"{pol.value} xi={xi:.4f} eta={eta:.4f} g2={g2} "
                              f"t/T={times[k] / cfg.period:.3f}")
        return worst, worst_case

    (worst, worst_case), secs = _timed(body)
    runtime_ok = secs < 300.0
    passed = worst <= 1e-6 and runtime_ok
    detail = (f"max element deviation {worst:.2e} (worst at {worst_case}), "
              f"{len(rhos)} grid points, runtime {'ok' if runtime_ok else 'over 5min'}")
    return CriterionResult(2, "oracle equivalence", True, passed, detail, secs), rhos


def criterion_3_bounds(collected_rhos, fast: bool = False):
    """Tsirelson bound on every produced density matrix; classical bound on random quadruples."""
    n_random_rho = 100 if fast else 1000
    n_quads = 1000 if fast else 10_000

    def body():
        rng = np.random.default_rng(DEFAULT_SEED)
        randoms = np.array([random_density_matrix(rng) for _ in range(n_random_rho)])
        worst = max(float(max_chsh(np.array(collected_rhos)).max()),
                    float(max_chsh(randoms).max()))
        worst_local = 0.0
        spec_a = EntangledStateSpec(Polarization.ANTIPARALLEL, 0.3, 0.0)
        spec_p = EntangledStateSpec(Polarization.PARALLEL, 0.3, 0.0)
        for _ in range(n_quads):
            thetas = rng.uniform(0.0, math.pi, size=4)
            phis = rng.uniform(0.0, 2.0 * math.pi, size=4)
            quad = ChshQuadruple(*(MeasurementDirection(th, ph)
                                   for th, ph in zip(thetas, phis)))
            worst_local = max(worst_local, chsh_local_value(spec_a, quad),
                              chsh_local_value(spec_p, quad))
        return worst, worst_local

    (worst, worst_local), secs = _timed(body)
    passed = worst <= TSIRELSON + 1e-9 and worst_local <= 2.0
    detail = (f"max max_chsh = {worst:.12f} (bound {TSIRELSON:.12f}) over "
              f"{len(collected_rhos)}+{n_random_rho} matrices; "
              f"max local CHSH = {worst_local:.12f} over {n_quads} quadruples")
    return CriterionResult(3, "Tsirelson and classical bounds", True, passed, detail, secs)


def criterion_4_initial_values(fast: bool = False):
    """P(0) = 2 sqrt(1 + sin^2 2xi) and C(0) = |sin 2xi|, photon-number independent."""
    xis = (math.pi / 8, math.pi / 6, math.pi / 4, math.pi / 3)
    etas = (0.0, math.pi / 6, math.pi / 4, math.pi / 3)
    gamma2s = (0.01,) if fast else (0.01, 15.0)

    def body():
        grid = list(product(Polarization, gamma2s, xis, etas))
        rhos = np.stack([
            reduced_density(EntangledStateSpec(pol, xi, eta), 0.0,
                            CavityConfig.from_mean_photons(g2), tol=1e-12)[0]
            for pol, g2, xi, eta in grid])
        s2 = np.array([math.sin(2.0 * xi) for _, _, xi, _ in grid])
        return float(max(np.abs(max_chsh(rhos) - 2.0 * np.sqrt(1.0 + s2 * s2)).max(),
                         np.abs(concurrence(rhos) - np.abs(s2)).max()))

    worst, secs = _timed(body)
    passed = worst < 1e-9
    detail = f"max deviation from the pure-state formulas {worst:.2e} (16-point grid, both polarizations)"
    return CriterionResult(4, "t=0 analytic values", True, passed, detail, secs)


def criterion_5_vacuum_rabi(fast: bool = False):
    """gamma = 0, antiparallel xi = pi/4: concurrence follows cos^2(sqrt2 g t)."""
    points = 50 if fast else 200

    def body():
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)
        cfg = CavityConfig(gamma=0.0)
        job = SweepJob(spec, cfg, start=0.0, stop=2.0, count=points)
        series = run_sweep(job)
        expected = np.cos(math.sqrt(2.0) * cfg.g * series.times_over_T * cfg.period) ** 2
        return float(np.abs(series.concurrence - expected).max())

    worst, secs = _timed(body)
    passed = worst < 1e-8
    detail = f"max |C - cos^2(sqrt2 g t)| = {worst:.2e} over {points} points"
    return CriterionResult(5, "vacuum-Rabi law", True, passed, detail, secs)


def criterion_6_decoherence(fast: bool = False):
    """gamma^2 = 15: the CHSH maximum should sit below 2 for >= 90% of [2T, 10T]."""
    points = 100 if fast else 400

    def body():
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
        job = SweepJob(spec, CavityConfig.from_mean_photons(15.0),
                       start=2.0, stop=10.0, count=points)
        series = run_sweep(job)
        return float(np.mean(series.p_chsh_max < 2.0)), float(series.p_chsh_max.max())

    (fraction, peak), secs = _timed(body)
    passed = fraction >= 0.9
    detail = (f"fraction of points with P < 2: {fraction:.4f} (threshold 0.9), "
              f"max P = {peak:.4f} over [2T, 10T]")
    return CriterionResult(6, "decoherence regime", False, passed, detail, secs)


def criterion_7_revival(fast: bool = False):
    """gamma^2 = 150: revival height against the published 5T window, peak time reported."""
    points = 150 if fast else 400

    def body():
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
        cfg = CavityConfig.from_mean_photons(150.0)
        t0 = time.perf_counter()
        job = SweepJob(spec, cfg, start=0.0, stop=8.0, count=points)
        series = run_sweep(job)
        sweep_secs = time.perf_counter() - t0
        tau = series.times_over_T
        p = series.p_chsh_max
        win = (tau >= 4.5) & (tau <= 5.5)
        base = (tau >= 2.0) & (tau <= 3.0)
        post = tau >= 1.0
        peak_tau = float(tau[post][np.argmax(p[post])])
        return (float(p[win].max()), float(p[base].max()), peak_tau,
                float(p[post].max()), series.n_max, sweep_secs)

    (win_max, base_max, peak_tau, peak_val, n_max, sweep_secs), secs = _timed(body)
    passed = win_max > 2.4 and (win_max - base_max) >= 0.3 and sweep_secs < 60.0 and n_max <= 300
    detail = (f"max P over [4.5T,5.5T] = {win_max:.4f} (claimed > 2.4), over [2T,3T] = "
              f"{base_max:.4f}; measured revival peak P = {peak_val:.4f} at t = {peak_tau:.3f}T "
              f"(claimed 5T); n_max = {n_max}, sweep {sweep_secs:.1f}s")
    return CriterionResult(7, "revival regime", False, passed, detail, secs)


def criterion_8_brute_agreement(fast: bool = False):
    """Eigenvalue-criterion maximum vs direct quadruple maximization, within 1e-3."""
    n_random = 20 if fast else 100
    figures = ("fig1",) if fast else ("fig1", "fig2", "fig3", "fig4")
    n_times = 4 if fast else 10

    def body():
        rng = np.random.default_rng(DEFAULT_SEED + 8)
        rhos = [random_density_matrix(rng) for _ in range(n_random)]
        taus = np.linspace(0.0, 10.0, n_times)
        for figure in figures:
            preset = figure_preset(figure)
            for g2 in preset.panel_gamma2:
                cfg = CavityConfig.from_mean_photons(g2)
                for _, xi, eta in preset.curves:
                    spec = EntangledStateSpec(preset.polarization, xi, eta)
                    rhos.extend(reduced_densities(spec, taus * cfg.period, cfg)[0])
        # one stacked call of each: the search's fixed cost is paid once, not per density
        rhos = np.array(rhos)
        return float(np.abs(max_chsh(rhos) - max_chsh_brute(rhos, seed=DEFAULT_SEED)).max())

    worst, secs = _timed(body)
    passed = worst <= 1e-3
    detail = (f"max |max_chsh - brute| = {worst:.2e} over {n_random} random matrices "
              f"plus figure sweeps at {n_times} times each")
    return CriterionResult(8, "Horodecki vs brute force", True, passed, detail, secs)


def criterion_9_conservation(fast: bool = False):
    """Norm, energy, and excitation-number drift of the joint-space evolution."""
    points = 12 if fast else 50

    def body():
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
        cfg = CavityConfig.from_mean_photons(1.0)
        n_fock = default_n_fock(cfg)
        psi0 = initial_joint(spec, cfg, n_fock)
        h = build_hamiltonian(cfg, n_fock)
        excitation = excitation_numbers(n_fock)
        psi = Propagator(h).apply(psi0, np.linspace(0.0, 10.0 * cfg.period, points))

        def energy(amps):
            # <psi|H|psi> straight from the triplets, independent of the block split
            return (amps.conj()[..., h.rows] * h.values * amps[..., h.cols]).sum(-1).real

        e0 = float(energy(psi0))
        x0 = float(np.abs(psi0) ** 2 @ excitation)
        probs = np.abs(psi) ** 2
        energies = energy(psi)
        drift_norm = float(np.abs(np.sqrt(probs.sum(axis=1)) - 1.0).max())
        drift_e = float(np.abs(energies - e0).max()) / max(abs(e0), 1.0)
        drift_x = float(np.abs(probs @ excitation - x0).max()) / max(abs(x0), 1.0)
        return drift_norm, drift_e, drift_x

    (drift_norm, drift_e, drift_x), secs = _timed(body)
    passed = drift_norm <= 1e-9 and drift_e <= 1e-9 and drift_x <= 1e-9
    detail = (f"drifts over [0,10T] at gamma^2=1: norm {drift_norm:.2e}, "
              f"energy {drift_e:.2e}, excitation {drift_x:.2e}")
    return CriterionResult(9, "conservation suite", True, passed, detail, secs)


def run_all(fast: bool = False) -> list[CriterionResult]:
    """Run all nine criteria; criteria 1-2 feed their densities into criterion 3."""
    r1, rhos1 = criterion_1_singlet_conservation(fast)
    r2, rhos2 = criterion_2_oracle_equivalence(fast)
    results = [
        r1,
        r2,
        criterion_3_bounds(rhos1 + rhos2, fast),
        criterion_4_initial_values(fast),
        criterion_5_vacuum_rabi(fast),
        criterion_6_decoherence(fast),
        criterion_7_revival(fast),
        criterion_8_brute_agreement(fast),
        criterion_9_conservation(fast),
    ]
    return results


def hard_failures(results: list[CriterionResult]) -> list[CriterionResult]:
    return [r for r in results if r.hard and not r.passed]
