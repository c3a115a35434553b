import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cavity_bell.dynamics import reduced_density
from cavity_bell.oracle import (
    ORACLE_SLACK,
    Propagator,
    Triplets,
    TruncationTooSmall,
    build_hamiltonian,
    coherent_amplitudes,
    compare_closed_form,
    coupling_hamiltonian,
    default_n_fock,
    excitation_numbers,
    initial_joint,
    reduced_dynamics,
)
from cavity_bell.states import (
    J_MINUS,
    J_PLUS,
    SIGMA_X,
    CavityConfig,
    EntangledStateSpec,
    Polarization,
    make_entangled,
)
from conftest import random_spec

ANTI_QUARTER = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 4, 0.0)
SINGLET = EntangledStateSpec(Polarization.ANTIPARALLEL, 3 * math.pi / 4, 0.0)


def fock_operators(n_fock):
    """(a, a^dag, a^dag a) on the truncated Fock space; a^dag is cut at the edge."""
    n = np.arange(n_fock + 1, dtype=float)
    a = np.diag(np.sqrt(n[1:]), k=1)
    return a, a.conj().T, np.diag(n)


def dense(h):
    """The joint matrix the triplets stand for; repeated entries add up."""
    out = np.zeros(h.shape, dtype=complex)
    np.add.at(out, (h.rows, h.cols), h.values)
    return out


def kron_reference(cfg, n_fock, lab):
    """The joint generator assembled densely from kron products."""
    a, adag, number = fock_operators(n_fock)
    h = 1j * cfg.g * (np.kron(J_PLUS, a) - np.kron(J_MINUS, adag))
    if lab:
        h = cfg.omega * np.kron(np.eye(4, dtype=complex), number) + h
    return h


@pytest.mark.parametrize("n_fock", [1, 5, 40])
@pytest.mark.parametrize("generator, lab", [(coupling_hamiltonian, False),
                                            (build_hamiltonian, True)])
def test_triplets_match_kron_assembly(generator, lab, n_fock):
    cfg = CavityConfig(omega=1.3, g=0.7, gamma=1.0)
    h = generator(cfg, n_fock)
    assert h.shape == (4 * (n_fock + 1),) * 2
    assert np.array_equal(dense(h), kron_reference(cfg, n_fock, lab))


def test_hamiltonian_is_hermitian_and_diagonal_at_g0():
    cfg = CavityConfig(omega=1.3, g=0.0, gamma=1.0)
    h = dense(build_hamiltonian(cfg, 6))
    assert np.abs(h - h.conj().T).max() < 1e-12
    expected = 1.3 * np.kron(np.ones(4), np.arange(7.0))
    assert np.abs(h - np.diag(expected)).max() < 1e-14


def test_hamiltonian_hermitian_with_coupling(rng):
    cfg = CavityConfig(omega=rng.uniform(0.5, 2.0), g=rng.uniform(0.1, 2.0), gamma=1.0)
    h = dense(build_hamiltonian(cfg, 9))
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_hamiltonian_conserves_excitation_number():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0)
    n_fock = 8
    h = dense(build_hamiltonian(cfg, n_fock))
    n_op = np.diag(excitation_numbers(n_fock))
    # exact even under truncation: the cut only removes the top a^dag row
    assert np.abs(h @ n_op - n_op @ h).max() < 1e-12


def test_singlet_vacuum_is_zero_eigenvector():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=0.0)
    h = dense(build_hamiltonian(cfg, 1))
    psi = initial_joint(SINGLET, cfg, 1)
    assert np.abs(h @ psi).max() < 1e-14


def test_initial_joint_vacuum_product():
    cfg = CavityConfig(gamma=0.0)
    psi = initial_joint(ANTI_QUARTER, cfg, 3)
    spin = make_entangled(ANTI_QUARTER)
    expected = np.kron(spin, np.array([1.0, 0, 0, 0], dtype=complex))
    assert np.abs(psi - expected).max() < 1e-14


def test_coherent_amplitudes_values_and_tail():
    amps = coherent_amplitudes(1.0, 0.0, 25)
    expected = [math.exp(-0.5) / math.sqrt(math.factorial(n)) for n in range(26)]
    assert np.abs(amps - np.array(expected)).max() < 1e-15
    assert 1.0 - np.vdot(amps, amps).real < 1e-12
    phased = coherent_amplitudes(1.0, math.pi / 2, 8)
    assert np.abs(phased - amps[:9] * 1j ** np.arange(9)).max() < 1e-14


def test_initial_joint_rejects_small_truncation():
    with pytest.raises(TruncationTooSmall):
        initial_joint(ANTI_QUARTER, CavityConfig(gamma=2.0), 4)


def test_evolve_identity_and_free_field():
    cfg = CavityConfig(omega=1.0, g=0.0, gamma=1.0)
    n_fock = 20
    psi = initial_joint(ANTI_QUARTER, cfg, n_fock)
    prop = Propagator(build_hamiltonian(cfg, n_fock))
    assert np.abs(prop.apply(psi, 0.0) - psi).max() < 1e-14
    t = 0.9
    evolved = prop.apply(psi, t)
    phases = np.exp(-1j * t * np.arange(n_fock + 1))
    expected = psi * np.kron(np.ones(4), phases)
    assert np.abs(evolved - expected).max() < 1e-12
    assert abs(np.linalg.norm(evolved) - 1.0) < 1e-10


def test_propagator_norm_preserved(rng):
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0)
    n_fock = default_n_fock(cfg)
    psi = initial_joint(random_spec(rng), cfg, n_fock)
    prop = Propagator(build_hamiltonian(cfg, n_fock))
    for t in np.linspace(0.0, 10 * cfg.period, 7):
        assert abs(np.linalg.norm(prop.apply(psi, t)) - 1.0) < 1e-10


def test_partial_trace_product_state(rng):
    spec = random_spec(rng)
    rhos, _ = reduced_dynamics(spec, CavityConfig(gamma=1.2), [0.0], n_fock=24)
    expected = np.outer(make_entangled(spec), make_entangled(spec).conj())
    assert np.abs(rhos[0] - expected).max() < 1e-12


def test_partial_trace_cross_sector_coherence_dropped():
    # from the vacuum, |e4> carries one photon while |e2>, |e3> carry none:
    # different photon numbers leave no coherence in the reduced density
    rhos, _ = reduced_dynamics(ANTI_QUARTER, CavityConfig(gamma=0.0), [0.4], n_fock=4)
    rho = rhos[0]
    assert np.all(rho[:3, 3] == 0.0)
    assert 0.01 < rho[3, 3].real < 0.99


def test_corotating_vacuum_rabi_full_transfer():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=0.0)
    t = math.pi / (2 * math.sqrt(2))
    rhos, _ = reduced_dynamics(ANTI_QUARTER, cfg, [t], frame="corotating")
    assert np.abs(rhos[0] - np.diag([0.0, 0.0, 0.0, 1.0])).max() < 1e-12


def test_lab_frame_detuned_rabi():
    # with the bare Hamiltonian, a spin flip costs one field quantum: transfer
    # follows the detuned two-level law 8g^2/(omega^2+8g^2) sin^2(Omega t/2)
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=0.0)
    big_omega = math.sqrt(cfg.omega ** 2 + 8.0 * cfg.g ** 2)
    for t in (0.4, math.pi / (2 * math.sqrt(2)), 2.0):
        rhos, _ = reduced_dynamics(ANTI_QUARTER, cfg, [t], frame="lab")
        expected = (8.0 / big_omega ** 2) * math.sin(0.5 * big_omega * t) ** 2
        assert abs(rhos[0][3, 3].real - expected) < 1e-12


def test_frames_differ_at_order_one():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=0.0)
    t = math.pi / (2 * math.sqrt(2))
    co, _ = reduced_dynamics(ANTI_QUARTER, cfg, [t], frame="corotating")
    lab, _ = reduced_dynamics(ANTI_QUARTER, cfg, [t], frame="lab")
    assert np.abs(co[0] - lab[0]).max() > 0.05
    with pytest.raises(ValueError):
        reduced_dynamics(ANTI_QUARTER, cfg, [t], frame="rotating-wave")


def test_interaction_picture_consistency():
    # time-ordered evolution under the explicitly time-dependent interaction
    # Hamiltonian, rotated back by the free-field phases, equals direct
    # evolution under the bare Hamiltonian
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0, phi=0.4)
    n_fock = 22
    state0 = initial_joint(EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.3),
                           cfg, n_fock)
    a, adag, _ = fock_operators(n_fock)
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    jp = np.kron(sp, i2) + np.kron(i2, sp)
    ap = np.kron(jp, a)
    am = np.kron(jp.conj().T, adag)
    dim = state0.size

    def rhs(t, y):
        psi = y[:dim] + 1j * y[dim:]
        hi = 1j * cfg.g * (np.exp(-1j * cfg.omega * t) * ap - np.exp(1j * cfg.omega * t) * am)
        dpsi = -1j * (hi @ psi)
        return np.concatenate([dpsi.real, dpsi.imag])

    t_end = 2.7
    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([state0.real, state0.imag]),
                    method="DOP853", rtol=1e-12, atol=1e-13)
    psi_i = sol.y[:dim, -1] + 1j * sol.y[dim:, -1]
    # R^dag(t): the photon-n amplitude picks up e^{-i omega n t}
    free_phases = np.exp(-1j * cfg.omega * t_end * np.arange(n_fock + 1))
    rotated = (psi_i * np.tile(free_phases, 4)).reshape(4, n_fock + 1)
    direct = Propagator(build_hamiltonian(cfg, n_fock)).apply(state0, t_end).reshape(4, n_fock + 1)
    assert np.abs(rotated - direct).max() < 1e-9
    assert np.abs(rotated @ rotated.conj().T - direct @ direct.conj().T).max() < 1e-9


@pytest.mark.parametrize("n_fock", [1, 16])
@pytest.mark.parametrize("generator", [coupling_hamiltonian, build_hamiltonian])
def test_block_propagator_matches_dense_exponential(generator, n_fock, rng):
    # corotating (coupling alone) and lab (bare) frames, against expm of the
    # dense joint generator; at n_fock = 1 the cut pads the block of joint
    # index 0, so padding must not alias a real state
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.1)
    triplets = generator(cfg, n_fock)
    h = dense(triplets)
    psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    psi /= np.linalg.norm(psi)
    prop = Propagator(triplets)
    times = np.linspace(0.0, 3 * cfg.period, 6)
    grid = prop.apply(psi, times)
    assert grid.shape == (times.size, psi.size)
    for t, row in zip(times, grid):
        exact = expm(-1j * h * t) @ psi
        assert np.abs(prop.apply(psi, t) - exact).max() <= 1e-12
        assert np.abs(row - exact).max() <= 1e-12


def with_extra(h, rows, cols, values):
    return Triplets(np.concatenate([h.rows, rows]), np.concatenate([h.cols, cols]),
                    np.concatenate([h.values, values]), h.n_fock)


def test_propagator_refuses_excitation_coupling():
    # sigma_x on the first spin flips one excitation without a photon
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0)
    n_fock = 6
    flip = np.kron(np.kron(SIGMA_X, np.eye(2)), np.eye(n_fock + 1))
    rows, cols = np.nonzero(flip)
    h = with_extra(build_hamiltonian(cfg, n_fock), rows, cols, flip[rows, cols])
    assert np.abs(dense(h) - dense(h).conj().T).max() == 0.0
    with pytest.raises(ValueError, match="links excitation numbers"):
        Propagator(h)


def test_propagator_accepts_zero_cross_excitation_triplet(rng):
    # only nonzero entries must conserve the excitation, as for a dense H
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0)
    h = build_hamiltonian(cfg, 6)
    excitation = excitation_numbers(6)
    assert excitation[0] != excitation[1]
    psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    padded = Propagator(with_extra(h, [0], [1], [0.0])).apply(psi, 0.8)
    assert np.array_equal(padded, Propagator(h).apply(psi, 0.8))


@pytest.mark.parametrize("rows, cols, n_fock, match", [
    ([0], [0], 0, "n_fock"),
    ([8], [0], 1, "outside"),
    ([-1], [0], 1, "outside"),
    ([[0]], [[0]], 1, "1-D"),
])
def test_propagator_validates_triplets(rows, cols, n_fock, match):
    with pytest.raises(ValueError, match=match):
        Propagator(Triplets(np.array(rows), np.array(cols), np.ones(np.shape(rows)), n_fock))


def test_reduced_dynamics_grid_equals_per_time_calls():
    cfg = CavityConfig.from_mean_photons(5.0)
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, 0.4, 1.2)
    times = np.linspace(0.0, 4 * cfg.period, 9)
    for frame in ("corotating", "lab"):
        grid, n_fock = reduced_dynamics(spec, cfg, times, frame=frame)
        assert grid.shape == (times.size, 4, 4)
        for t, rho in zip(times, grid):
            single, _ = reduced_dynamics(spec, cfg, [t], frame=frame, n_fock=n_fock)
            assert np.abs(single[0] - rho).max() <= 1e-14


@pytest.mark.parametrize("times", [[], np.zeros((2, 3)), 1.0])
def test_oracle_rejects_empty_or_non_1d_grid(times):
    cfg = CavityConfig.from_mean_photons(1.0)
    with pytest.raises(ValueError, match="time grid"):
        compare_closed_form(ANTI_QUARTER, cfg, times)
    with pytest.raises(ValueError, match="time grid"):
        reduced_dynamics(ANTI_QUARTER, cfg, times)


def _printed_evolution_matrix(cfg, n_fock, t):
    """The operator-valued 4x4 evolution matrix in the two-qubit basis, with
    entries built from functions of S = 2 a^dag a + 1 and one-sided a, a^dag."""
    a, adag, number = fock_operators(n_fock)
    s = 2.0 * np.diag(number).real + 1.0
    gt = cfg.g * t
    f_sin = np.diag(np.sin(gt * np.sqrt(2 * s)) / np.sqrt(2 * s)).astype(complex)
    f_sin2 = np.diag(np.sin(gt * np.sqrt(s / 2)) ** 2 / s).astype(complex)
    cos2 = np.diag(np.cos(gt * np.sqrt(s / 2)) ** 2).astype(complex)
    sin2 = np.diag(np.sin(gt * np.sqrt(s / 2)) ** 2).astype(complex)
    eye = np.eye(n_fock + 1, dtype=complex)
    blocks = [
        [eye - 2 * a @ f_sin2 @ adag, a @ f_sin, a @ f_sin, 2 * a @ f_sin2 @ a],
        [-f_sin @ adag, cos2, -sin2, f_sin @ a],
        [-f_sin @ adag, -sin2, cos2, f_sin @ a],
        [2 * adag @ f_sin2 @ adag, -adag @ f_sin, -adag @ f_sin, eye - 2 * adag @ f_sin2 @ a],
    ]
    return np.block(blocks)


def test_printed_evolution_matrix_matches_exponential():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=1.0)
    n_fock = 24
    u_printed = _printed_evolution_matrix(cfg, n_fock, 1.37)
    prop = Propagator(coupling_hamiltonian(cfg, n_fock))
    for k in range(4):
        for n in range(11):
            basis = np.zeros(4 * (n_fock + 1), dtype=complex)
            basis[k * (n_fock + 1) + n] = 1.0
            assert np.abs(u_printed @ basis - prop.apply(basis, 1.37)).max() < 1e-9


def test_edge_population_validation():
    cfg = CavityConfig(gamma=1.0)
    n_fock = default_n_fock(cfg)
    amps = initial_joint(ANTI_QUARTER, cfg, n_fock).reshape(4, n_fock + 1)
    assert np.sum(np.abs(amps[:, -2:]) ** 2) < 1e-10
    assert n_fock >= ORACLE_SLACK


def test_reduced_dynamics_detects_edge_leakage():
    # an undersized truncation lets dynamical population reach the cut edge
    cfg = CavityConfig(gamma=0.0)
    with pytest.raises(TruncationTooSmall, match="top two photon sectors"):
        reduced_dynamics(ANTI_QUARTER, cfg, [0.9], n_fock=2)


def test_compare_singlet_constant():
    cfg = CavityConfig.from_mean_photons(1.0)
    report = compare_closed_form(SINGLET, cfg, np.linspace(0, 5 * cfg.period, 12))
    assert report.passed and report.max_deviation < 1e-10


def test_compare_spec_examples():
    cfg = CavityConfig.from_mean_photons(1.0)
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
    report = compare_closed_form(spec, cfg, np.linspace(0, 5 * cfg.period, 25))
    assert report.passed
    assert "PASS" in report.summary()

    cfg5 = CavityConfig.from_mean_photons(5.0)
    spec5 = EntangledStateSpec(Polarization.PARALLEL, math.pi / 4, math.pi / 3)
    assert compare_closed_form(spec5, cfg5, np.linspace(0, 5 * cfg5.period, 25)).passed


@pytest.mark.parametrize("gamma2", [15.0, 150.0, 600.0, 1500.0])
@pytest.mark.parametrize("polarization", list(Polarization))
def test_compare_large_fields(gamma2, polarization):
    # the collapse (15) and revival (150) regimes of the published figures, and
    # beyond them n_fock 787 and 1787, where a dense joint matrix would take up
    # to 0.8 GB; corotating only, since the lab frame is detuned by design
    cfg = CavityConfig.from_mean_photons(gamma2)
    spec = EntangledStateSpec(polarization, math.pi / 6, math.pi / 3)
    report = compare_closed_form(spec, cfg, np.linspace(0, 10 * cfg.period, 50))
    assert report.passed and report.max_deviation <= 1e-6


@pytest.mark.parametrize("phi", [0.3, 1.1, -2.0])
@pytest.mark.parametrize("polarization", list(Polarization))
def test_compare_nonzero_phase(phi, polarization):
    cfg = CavityConfig(gamma=1.3, phi=phi)
    spec = EntangledStateSpec(polarization, 0.7, 0.4)
    report = compare_closed_form(spec, cfg, np.linspace(0, 3 * cfg.period, 12))
    assert report.passed and report.max_deviation <= 1e-6


def test_compare_lab_frame_reports_failure():
    cfg = CavityConfig(omega=1.0, g=1.0, gamma=0.0)
    report = compare_closed_form(ANTI_QUARTER, cfg, [math.pi / (2 * math.sqrt(2))],
                                 frame="lab")
    assert not report.passed
    assert "FAIL" in report.summary()


def test_reduced_dynamics_matches_single_point_closed_form(rng):
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, 0.0)
    cfg = CavityConfig.from_mean_photons(1.0)
    t = 2.3 * cfg.period
    rhos, _ = reduced_dynamics(spec, cfg, [t])
    closed, _ = reduced_density(spec, t, cfg)
    assert np.abs(rhos[0] - closed).max() < 1e-6


def test_oracle_supports_nonzero_phase():
    # the joint-space path has no phi = 0 restriction
    cfg = CavityConfig(gamma=1.0, phi=1.1)
    psi = initial_joint(ANTI_QUARTER, cfg, 20)
    evolved = Propagator(build_hamiltonian(cfg, 20)).apply(psi, 1.3)
    assert abs(np.linalg.norm(evolved) - 1.0) < 1e-10
    # the coherent phase sits on the field alone, so the t = 0 trace is the spin state
    rhos, _ = reduced_dynamics(ANTI_QUARTER, cfg, [0.0], n_fock=20)
    spin = make_entangled(ANTI_QUARTER)
    assert np.abs(rhos[0] - np.outer(spin, spin.conj())).max() < 1e-12
