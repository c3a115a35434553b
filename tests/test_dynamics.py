import math

import mpmath
import numpy as np
import pytest

from cavity_bell import dynamics
from cavity_bell.correlations import max_chsh
from cavity_bell.dynamics import (
    SAFETY_SECTORS,
    TruncationError,
    choose_truncation,
    reduced_densities,
    reduced_density,
    sector_amplitudes,
)
from cavity_bell.numerics import coherent_log_amplitudes
from cavity_bell.states import (
    CavityConfig,
    EntangledStateSpec,
    Polarization,
    density_from_pure,
    make_entangled,
)
from conftest import random_spec, reference_sector

ANTI_QUARTER = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)
SINGLET = EntangledStateSpec(Polarization.ANTIPARALLEL, 3 * math.pi / 4, 0.0)
# xi = 0 puts the whole initial spin amplitude on c = 1 (s = 0 exactly), so the
# sector amplitudes read off the c-column coefficients: antiparallel
# (C1, C3, C2, C4), parallel (D2, D4, D4, D6).  xi = pi/2 reads the s-column
# (D1, D3, D3, D5) up to the cos(pi/2) ~ 6e-17 share of the c-column.
ANTI_C = EntangledStateSpec(Polarization.ANTIPARALLEL, 0.0, 0.0)
PAR_C = EntangledStateSpec(Polarization.PARALLEL, 0.0, 0.0)
PAR_S = EntangledStateSpec(Polarization.PARALLEL, math.pi / 2, 0.0)


def exact_poisson_tail(n, gamma2):
    mpmath.mp.dps = 50
    g2 = mpmath.mpf(gamma2)
    acc = sum(mpmath.exp(-g2) * g2 ** k / mpmath.factorial(k) for k in range(n + 1))
    return float(1 - acc)


def amplitudes(spec, t, cfg, n_sectors):
    """Sector amplitudes A[:, n] at one time, columns n = 0..n_sectors-1."""
    return sector_amplitudes(spec, [t], cfg, n_sectors)[0]


def scale(gamma, n):
    """e^{-gamma^2/2} / sqrt(n!): printed coefficient -> sector amplitude."""
    return math.exp(-0.5 * gamma * gamma) / math.sqrt(math.factorial(n))


def test_choose_truncation_vacuum():
    trunc = choose_truncation(0.0, 1e-10)
    assert trunc.n_max == 0 and trunc.tail_bound == 0.0


@pytest.mark.parametrize("gamma2,tol,expected", [(1.0, 1e-12, 14), (150.0, 1e-10, 234)])
def test_choose_truncation_matches_exact_tail(gamma2, tol, expected):
    trunc = choose_truncation(math.sqrt(gamma2), tol)
    assert trunc.n_max == expected
    assert trunc.tail_bound <= tol
    # smallest such n: the exact tail one sector earlier still exceeds tol
    assert exact_poisson_tail(trunc.n_max, gamma2) <= tol
    assert exact_poisson_tail(trunc.n_max - 1, gamma2) > tol


def test_choose_truncation_large_field_bounded():
    assert choose_truncation(math.sqrt(150.0), 1e-10).n_max <= 300


def test_choose_truncation_unreachable_tolerance():
    with pytest.raises(TruncationError):
        choose_truncation(math.sqrt(5.0), 1e-300)
    with pytest.raises(ValueError):
        choose_truncation(1.0, 0.0)


def test_antiparallel_coefficients_at_t0():
    gamma = 1.7
    amps = amplitudes(ANTI_C, 0.0, CavityConfig(gamma=gamma), 6)
    for n in (0, 1, 5):
        c1, c3, c2, c4 = amps[:, n]
        assert c1 == 0.0 and c3 == 0.0 and c4 == 0.0
        assert math.isclose(c2.real, gamma ** n * scale(gamma, n)) and c2.imag == 0.0


def test_antiparallel_coefficients_vacuum_sector():
    t = 0.83
    _, c3, c2, c4 = amplitudes(ANTI_C, t, CavityConfig(gamma=0.0, g=1.0), 1)[:, 0]
    assert math.isclose(c2.real, math.cos(t / math.sqrt(2)) ** 2)
    assert math.isclose(c3.real, -math.sin(t / math.sqrt(2)) ** 2)
    assert c4 == 0.0  # vanishing integer prefactor, no negative gamma power


def test_antiparallel_c4_example():
    t = math.pi / (2 * math.sqrt(2))
    c4 = amplitudes(ANTI_C, t, CavityConfig(gamma=1.0, g=1.0), 2)[3, 1]
    assert math.isclose(c4.real / scale(1.0, 1), -1 / math.sqrt(2), abs_tol=1e-15)


def test_parallel_coefficients_at_t0():
    gamma = 1.3
    cfg = CavityConfig(gamma=gamma)
    c_col = amplitudes(PAR_C, 0.0, cfg, 5)
    s_col = amplitudes(PAR_S, 0.0, cfg, 5)
    for n in (0, 1, 4):
        d2, d4, _, d6 = c_col[:, n]
        d1, d3, _, d5 = s_col[:, n]
        assert math.isclose(d1.real, gamma ** n * scale(gamma, n))
        assert math.isclose(d6.real, gamma ** n * scale(gamma, n))
        assert d2 == d4 == 0.0
        assert abs(d3) < 1e-16 and abs(d5) < 1e-16


def test_parallel_d2_example():
    t = 0.41
    d2 = amplitudes(PAR_C, t, CavityConfig(gamma=1.0, g=1.0), 1)[0, 0]
    assert math.isclose(d2.real / scale(1.0, 0), 2 * math.sin(t * math.sqrt(1.5)) ** 2 / 3)


def test_parallel_degenerate_zeros():
    s_col = amplitudes(PAR_S, 1.1, CavityConfig(gamma=2.0, g=1.0), 2)
    assert np.all(np.isfinite(s_col))
    assert abs(s_col[1, 0]) < 1e-16  # D3 at n=0
    assert abs(s_col[3, 0]) < 1e-16  # D5 at n=0
    assert abs(s_col[3, 1]) < 1e-16  # D5 at n=1


def test_bounded_factors_stay_bounded(rng):
    # the sectors share the unit probability of the evolved state
    for _ in range(10):
        spec = random_spec(rng)
        cfg = CavityConfig(gamma=rng.uniform(0.0, 12.0), g=1.0)
        amps = sector_amplitudes(spec, rng.uniform(0.0, 50.0, size=8), cfg, 200)
        assert np.all(np.isfinite(amps))
        assert (np.abs(amps) ** 2).sum(axis=(1, 2)).max() <= 1.0 + 1e-12


def test_amplitudes_finite_at_extremes():
    # gamma^{301} overflows a double; the log-space amplitudes must not
    cfg = CavityConfig(gamma=math.sqrt(150.0))
    for spec in (ANTI_C, PAR_S, SINGLET):
        amps = sector_amplitudes(spec, np.linspace(0.0, 20.0, 7), cfg, 301)
        assert np.all(np.isfinite(amps))
        assert np.abs(amps[:, :, 150]).max() > 1e-3  # the Poisson peak survives
    vac = amplitudes(ANTI_C, 1.0, CavityConfig(gamma=0.0), 1)
    assert vac[0, 0] == 0.0  # gamma^1 = 0 at the vacuum


def sector_block(spec, n, t, cfg):
    """rho_n(t) as the outer product of the kernel's sector-n amplitudes."""
    a = amplitudes(spec, t, cfg, n + 1)[:, n]
    return np.outer(a, a.conj())


def test_sector_vacuum_rabi_populations():
    cfg = CavityConfig(gamma=0.0, g=1.0)
    for t in (0.3, 1.2, 2.9):
        c2 = math.cos(math.sqrt(2) * t) ** 2
        rho0 = sector_block(ANTI_QUARTER, 0, t, cfg)
        assert math.isclose(rho0[1, 1].real, c2 / 2, abs_tol=1e-14)
        assert math.isclose(rho0[2, 2].real, c2 / 2, abs_tol=1e-14)
        assert math.isclose(rho0[1, 2].real, c2 / 2, abs_tol=1e-14)
        assert np.abs(rho0[[0, 3], :]).max() < 1e-15
        rho1 = sector_block(ANTI_QUARTER, 1, t, cfg)
        assert math.isclose(rho1[3, 3].real, math.sin(math.sqrt(2) * t) ** 2, abs_tol=1e-14)


def test_sector_t0_is_poisson_weighted_initial_density(rng):
    for _ in range(20):
        spec = random_spec(rng)
        gamma = rng.uniform(0.2, 3.0)
        cfg = CavityConfig(gamma=gamma)
        rho_init = density_from_pure(make_entangled(spec))
        for n in (0, 1, 3):
            weight = math.exp(2.0 * coherent_log_amplitudes(gamma, n))
            assert np.abs(sector_block(spec, n, 0.0, cfg) - weight * rho_init).max() < 1e-14


def test_sector_matches_independent_amplitude_construction(rng):
    # vectorized kernel vs the scalar per-sector reference, sector by sector
    for _ in range(40):
        spec = random_spec(rng)
        times = rng.uniform(0.0, 20.0, size=3)
        cfg = CavityConfig(gamma=rng.uniform(0.0, 2.5) if rng.random() > 0.2 else 0.0)
        amps = sector_amplitudes(spec, times, cfg, 12)
        for k, t in enumerate(times):
            for n in range(12):
                ours = np.outer(amps[k, :, n], amps[k, :, n].conj())
                assert np.abs(ours - reference_sector(spec, n, t, cfg)).max() < 1e-14


def test_sector_parallel_printed_identities(rng):
    for _ in range(5):
        spec = random_spec(rng, Polarization.PARALLEL)
        rho, _ = reduced_densities(spec, rng.uniform(0, 9, size=6), CavityConfig(gamma=1.2))
        assert np.array_equal(rho[:, 0, 2], rho[:, 0, 1])
        assert np.array_equal(rho[:, 1, 2], rho[:, 1, 1])
        assert np.array_equal(rho[:, 2, 3], rho[:, 1, 3])
        assert np.array_equal(rho[:, 2, 2], rho[:, 1, 1])


def test_sector_hermitian(rng):
    spec = random_spec(rng)
    rho, _ = reduced_densities(spec, rng.uniform(0, 9, size=6), CavityConfig(gamma=0.9))
    assert np.abs(rho - rho.conj().swapaxes(1, 2)).max() <= 1e-16


def test_grid_matches_one_point_wrapper(rng):
    for pol in Polarization:
        spec = random_spec(rng, pol)
        cfg = CavityConfig.from_mean_photons(15.0, phi=0.7)
        times = rng.uniform(0.0, 10 * cfg.period, size=9)
        grid, trunc = reduced_densities(spec, times, cfg)
        for k, t in enumerate(times):
            rho, trunc_t = reduced_density(spec, t, cfg)
            assert trunc_t == trunc
            assert np.abs(grid[k] - rho).max() <= 1e-15


@pytest.mark.parametrize("polarization", list(Polarization))
@pytest.mark.parametrize("gamma2", [0.01, 1.0, 15.0, 150.0])
def test_per_point_calls_stack_to_the_grid_call(polarization, gamma2):
    # a sweep may evaluate its grid point by point or in one call: same bits
    cfg = CavityConfig.from_mean_photons(gamma2)
    spec = EntangledStateSpec(polarization, 0.7, 0.3)
    times = np.linspace(0.0, 10 * cfg.period, 400)
    grid, _ = reduced_densities(spec, times, cfg)
    assert np.array_equal(np.stack([reduced_density(spec, t, cfg)[0] for t in times]), grid)


def test_cached_constants_do_not_leak_between_jobs():
    times = np.linspace(0.0, 7.0, 5)
    first = sector_amplitudes(ANTI_QUARTER, times, CavityConfig(gamma=2.0), 30)
    sector_amplitudes(PAR_S, times, CavityConfig(gamma=3.5), 30)
    again = sector_amplitudes(ANTI_QUARTER, times, CavityConfig(gamma=2.0), 30)
    assert np.array_equal(again, first)
    # the caller owns the result; only the cached tables are shared
    again[...] = 0.0
    assert np.array_equal(sector_amplitudes(ANTI_QUARTER, times, CavityConfig(gamma=2.0), 30),
                          first)


@pytest.mark.parametrize("polarization", list(Polarization))
def test_cached_constants_are_read_only(polarization):
    weights, consts = dynamics._sector_constants(polarization, 1.5, 10)
    for arr in (weights, *consts):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_truncation_refusals_are_not_cached():
    for _ in range(2):
        with pytest.raises(TruncationError):
            choose_truncation(math.sqrt(5.0), 1e-300)
        with pytest.raises(ValueError):
            choose_truncation(1.0, 0.0)


def test_reduced_density_initial_and_singlet():
    cfg = CavityConfig.from_mean_photons(1.0)
    spec = EntangledStateSpec(Polarization.PARALLEL, 0.9, 0.4)
    rho0, _ = reduced_density(spec, 0.0, cfg)
    assert np.abs(rho0 - density_from_pure(make_entangled(spec))).max() < 1e-10
    for g2 in (0.01, 1.0, 15.0, 150.0):
        cfg = CavityConfig.from_mean_photons(g2)
        rho, _ = reduced_density(SINGLET, 4.2 * cfg.period, cfg)
        target = density_from_pure(make_entangled(SINGLET))
        assert np.abs(rho - np.trace(rho).real * target).max() < 1e-12


def test_reduced_density_trace_and_positivity(rng):
    tol = 1e-10
    for g2 in (0.0, 0.5, 15.0, 150.0):
        cfg = CavityConfig.from_mean_photons(g2)
        spec = random_spec(rng)
        rho, trunc = reduced_density(spec, 3.3, cfg, tol=tol)
        tr = np.trace(rho).real
        assert 1.0 - 2.0 * tol <= tr <= 1.0 + 1e-12
        assert trunc.tail_bound <= tol
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_reduced_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduced_density(ANTI_QUARTER, 1.0, CavityConfig(gamma=1.0), tol=1e-2)
    with pytest.raises(ValueError):
        reduced_densities(ANTI_QUARTER, [1.0], CavityConfig(gamma=1.0), tol=0.0)


def test_safety_sectors_restore_trace_at_vacuum():
    # the gamma=0 initial state reaches photon sectors 1 and 2 dynamically
    cfg = CavityConfig(gamma=0.0, g=1.0)
    t = math.pi / (2 * math.sqrt(2))
    rho, trunc = reduced_density(ANTI_QUARTER, t, cfg)
    assert trunc.n_max == 0 and SAFETY_SECTORS >= 2
    assert math.isclose(np.trace(rho).real, 1.0, abs_tol=1e-14)
    assert math.isclose(rho[3, 3].real, 1.0, abs_tol=1e-14)


def test_small_field_series_near_periodic():
    # gamma^2 = 0.01: the correlation series autocorrelates above 0.95 at its
    # dominant period
    cfg = CavityConfig.from_mean_photons(0.01)
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
    taus = np.linspace(0.0, 3.0, 600)
    series = np.array([max_chsh(reduced_density(spec, tau * cfg.period, cfg)[0])
                       for tau in taus])
    x = series - series.mean()
    raw = np.correlate(x, x, mode="full")[len(x) - 1:]
    counts = np.arange(len(x), 0, -1)  # unbiased: lag L averages len-L products
    corr = (raw / counts) / (raw[0] / counts[0])
    dt = taus[1] - taus[0]
    lo = int(0.2 / dt)  # skip the trivial zero-lag neighbourhood
    hi = int(1.5 / dt)
    assert corr[lo:hi].max() >= 0.95
