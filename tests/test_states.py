import math

import numpy as np
import pytest

from cavity_bell.states import (
    CavityConfig,
    EntangledStateSpec,
    J_MINUS,
    J_PLUS,
    Polarization,
    StationaryKind,
    density_from_pure,
    make_entangled,
    semiclassical_spectrum,
    split_local_nonlocal,
    stationary_amplitudes,
)
from conftest import random_spec

S2 = 1.0 / math.sqrt(2.0)


def test_make_entangled_antiparallel_plus():
    amps = make_entangled(EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0))
    assert np.allclose(amps, [0.0, S2, S2, 0.0])


def test_make_entangled_singlet_up_to_phase():
    amps = make_entangled(EntangledStateSpec(Polarization.ANTIPARALLEL, 3 * math.pi / 4, 0.0))
    assert np.allclose(amps, [0.0, S2, -S2, 0.0])
    psi1 = semiclassical_spectrum(CavityConfig(), 0.0)[1].state
    # equals -|psi_1>: the same physical state
    assert np.allclose(amps, -psi1)


def test_make_entangled_parallel_bell():
    amps = make_entangled(EntangledStateSpec(Polarization.PARALLEL, math.pi / 4, 0.0))
    assert np.allclose(amps, [S2, 0.0, 0.0, S2])


def test_make_entangled_normalized(rng):
    for _ in range(50):
        amps = make_entangled(random_spec(rng))
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_spec_canonicalizes_angles():
    spec = EntangledStateSpec(Polarization.PARALLEL, -math.pi / 2, 5.0 * math.pi)
    assert 0.0 <= spec.xi < 2 * math.pi
    assert 0.0 <= spec.eta < 2 * math.pi
    assert math.isclose(spec.xi, 1.5 * math.pi)
    with pytest.raises(ValueError):
        EntangledStateSpec(Polarization.PARALLEL, math.nan, 0.0)


def test_cavity_config_validation():
    with pytest.raises(ValueError):
        CavityConfig(omega=0.0)
    with pytest.raises(ValueError):
        CavityConfig(g=-1.0)
    with pytest.raises(ValueError):
        CavityConfig(gamma=-0.1)
    cfg = CavityConfig.from_mean_photons(4.0)
    assert math.isclose(cfg.gamma, 2.0)
    assert math.isclose(cfg.period, 2 * math.pi)


def test_spectrum_energies():
    levels = semiclassical_spectrum(CavityConfig(omega=1.0, g=1.0), 2.0)
    assert [round(l.energy, 12) for l in levels] == [0.0, 4.0, 4.0, 8.0]
    zero = semiclassical_spectrum(CavityConfig(omega=1.0, g=1.0), 0.0)
    assert all(l.energy == 0.0 for l in zero)


def test_spectrum_singlet_state_any_phi():
    for phi in (0.0, 0.7, 2.1):
        level = semiclassical_spectrum(CavityConfig(phi=phi), 1.3)[1]
        assert np.allclose(level.state, [0.0, -S2, S2, 0.0])


def test_spectrum_degenerate_pair(rng):
    for _ in range(20):
        gamma = rng.uniform(0.0, 5.0)
        cfg = CavityConfig(omega=rng.uniform(0.5, 2.0), g=rng.uniform(0.0, 3.0),
                           phi=rng.uniform(0.0, 2 * math.pi))
        levels = semiclassical_spectrum(cfg, gamma)
        assert levels[1].energy == levels[2].energy


def test_spectrum_orthonormal(rng):
    for _ in range(25):
        phi = rng.uniform(0.0, 2 * math.pi)
        states = [l.state for l in semiclassical_spectrum(CavityConfig(phi=phi), 1.0)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(4)).max() < 1e-12


def semiclassical_hamiltonian(cfg, gamma):
    # effective spin Hamiltonian after averaging the field over |alpha>, alpha = gamma e^{i phi}
    drive = 1j * gamma * cfg.g * (np.exp(1j * cfg.phi) * J_PLUS - np.exp(-1j * cfg.phi) * J_MINUS)
    return cfg.omega * gamma * gamma * np.eye(4, dtype=complex) + drive


def test_spectrum_states_are_eigenvectors(rng):
    # H_sp |psi_k> = eps_k |psi_k> by explicit matrix-vector multiplication
    for _ in range(25):
        cfg = CavityConfig(omega=rng.uniform(0.5, 3.0), g=rng.uniform(0.0, 2.0),
                           phi=rng.uniform(0.0, 2 * math.pi))
        gamma = rng.uniform(0.0, 4.0)
        h = semiclassical_hamiltonian(cfg, gamma)
        for level in semiclassical_spectrum(cfg, gamma):
            assert np.abs(h @ level.state - level.energy * level.state).max() < 1e-10


def test_stationary_amplitudes():
    pts = stationary_amplitudes(CavityConfig(omega=1.0, g=1.0))
    by_branch = {p.branch: p for p in pts}
    assert 3 not in by_branch  # upper branch is monotone on gamma >= 0 for g > 0
    assert math.isclose(by_branch[0].gamma, 1.0)
    assert math.isclose(by_branch[0].energy, -1.0)
    assert by_branch[0].kind is StationaryKind.MINIMUM
    assert by_branch[1].gamma == 0.0 and by_branch[1].energy == 0.0
    assert by_branch[1].kind is StationaryKind.MINIMUM

    decoupled = stationary_amplitudes(CavityConfig(omega=1.0, g=0.0))
    assert len(decoupled) == 4
    assert all(p.gamma == 0.0 and p.energy == 0.0 for p in decoupled)


def test_density_from_pure_basis_state():
    rho = density_from_pure([0.0, 1.0, 0.0, 0.0])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(rho, expected)


def test_density_from_pure_antiparallel():
    rho = density_from_pure(make_entangled(
        EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)))
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = 0.5
    assert np.abs(rho - expected).max() < 1e-15


def test_density_from_pure_parallel_phases():
    rho = density_from_pure(make_entangled(
        EntangledStateSpec(Polarization.PARALLEL, math.pi / 6, math.pi / 4)))
    assert math.isclose(rho[0, 0].real, 0.25, abs_tol=1e-15)
    assert math.isclose(rho[3, 3].real, 0.75, abs_tol=1e-15)
    assert abs(rho[0, 3] - (math.sqrt(3) / 4) * np.exp(1j * math.pi / 2)) < 1e-15


def test_density_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        density_from_pure([1.0, 1.0, 0.0, 0.0])


def test_split_antiparallel_example():
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)
    local, nonlocal_ = split_local_nonlocal(spec)
    assert np.allclose(np.diag(local).real, [0.0, 0.5, 0.5, 0.0])
    assert abs(nonlocal_[1, 2] - 0.5) < 1e-15


def test_split_product_state_has_no_nonlocal_part():
    for pol in Polarization:
        _, nonlocal_ = split_local_nonlocal(EntangledStateSpec(pol, 0.0, 1.1))
        assert np.abs(nonlocal_).max() == 0.0


def test_split_parallel_imaginary_cross():
    _, nonlocal_ = split_local_nonlocal(
        EntangledStateSpec(Polarization.PARALLEL, math.pi / 4, math.pi / 4))
    assert abs(nonlocal_[0, 3] - 0.5j) < 1e-15
    assert abs(nonlocal_[3, 0] + 0.5j) < 1e-15


def test_split_sums_to_pure_density(rng):
    for _ in range(60):
        spec = random_spec(rng)
        local, nonlocal_ = split_local_nonlocal(spec)
        rho = density_from_pure(make_entangled(spec))
        assert np.abs(local + nonlocal_ - rho).max() < 1e-14

