import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import sqrtm

from cavity_bell.correlations import (
    ChshQuadruple,
    MeasurementDirection,
    TSIRELSON,
    chsh_local_value,
    chsh_value,
    concurrence,
    correlation,
    correlation_matrix,
    max_chsh,
    max_chsh_brute,
    sigma_dot,
)
from cavity_bell.dynamics import reduced_densities, reduced_density
from cavity_bell.numerics import NumericalFailure, random_density_matrix
from cavity_bell.states import (
    CavityConfig,
    EntangledStateSpec,
    Polarization,
    density_from_pure,
    make_entangled,
    split_local_nonlocal,
)
from conftest import random_spec

SINGLET_RHO = density_from_pure(
    make_entangled(EntangledStateSpec(Polarization.ANTIPARALLEL, 3 * math.pi / 4, 0.0)))
MIXED_RHO = 0.25 * np.eye(4, dtype=complex)


def wootters_reference(rho):
    # sqrt-matrix form of the concurrence, independent of the production route
    sysy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    root = sqrtm(rho).astype(complex)
    r = sqrtm(root @ (sysy @ rho.conj() @ sysy) @ root)
    lam = np.sort(np.real(np.linalg.eigvals(r)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def wootters_mp(rho, dps=40):
    # 40-digit Wootters spectrum of rho (sy x sy) rho* (sy x sy), float rho promoted exactly
    with mpmath.workdps(dps):
        r = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho])
        rc = mpmath.matrix([[mpmath.conj(r[i, j]) for j in range(4)] for i in range(4)])
        y = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        ev = mpmath.eig(r * y * rc * y, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def random_direction(rng):
    return MeasurementDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


def test_direction_roundtrip(rng):
    for _ in range(20):
        n = random_direction(rng)
        again = MeasurementDirection.from_vector(n.unit_vector)
        assert np.abs(again.unit_vector - n.unit_vector).max() < 1e-12


def test_correlation_singlet_scalar_product(rng):
    a = random_direction(rng)
    assert math.isclose(correlation(SINGLET_RHO, a, a), -1.0, abs_tol=1e-12)
    for _ in range(20):
        a, b = random_direction(rng), random_direction(rng)
        expected = -float(a.unit_vector @ b.unit_vector)
        assert math.isclose(correlation(SINGLET_RHO, a, b), expected, abs_tol=1e-12)


def test_correlation_orthogonal_and_mixed():
    a = MeasurementDirection(0.0, 0.0)
    b = MeasurementDirection(math.pi / 2, 0.0)
    assert abs(correlation(SINGLET_RHO, a, b)) < 1e-12
    assert abs(correlation(MIXED_RHO, a, b)) < 1e-12
    assert abs(correlation(MIXED_RHO, a, a)) < 1e-12


def test_correlation_rejects_nonhermitian():
    bad = SINGLET_RHO + 1e-6 * np.diag([1j, 0, 0, 0])
    with pytest.raises(ValueError, match="Hermitian"):
        correlation(bad, MeasurementDirection(0.0), MeasurementDirection(0.0))


def test_chsh_local_value_matches_local_part(rng):
    # the diagonal part of the state carries -+cos(theta_a) cos(theta_b) correlations
    for _ in range(30):
        spec = random_spec(rng)
        local, _ = split_local_nonlocal(spec)
        quad = ChshQuadruple(*(random_direction(rng) for _ in range(4)))
        assert math.isclose(chsh_local_value(spec, quad), chsh_value(local, quad), abs_tol=1e-12)


def test_full_correlation_is_local_plus_nonlocal(rng):
    for _ in range(30):
        spec = random_spec(rng)
        local, nonlocal_ = split_local_nonlocal(spec)
        rho = density_from_pure(make_entangled(spec))
        a, b = random_direction(rng), random_direction(rng)
        total = correlation(rho, a, b)
        parts = correlation(local, a, b) + correlation(nonlocal_, a, b)
        assert math.isclose(total, parts, abs_tol=1e-12)


def _optimal_singlet_quadruple():
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    return ChshQuadruple(
        a=MeasurementDirection.from_vector(b + c),
        b=MeasurementDirection.from_vector(b),
        c=MeasurementDirection.from_vector(c),
        d=MeasurementDirection.from_vector(b - c),
    )


def test_chsh_value_singlet_optimum():
    assert math.isclose(chsh_value(SINGLET_RHO, _optimal_singlet_quadruple()),
                        TSIRELSON, abs_tol=1e-12)


def test_chsh_value_degenerate_cases():
    z = MeasurementDirection(0.0, 0.0)
    same = ChshQuadruple(z, z, z, z)
    # |P(a,a) + P(a,a) + P(a,a) - P(a,a)| = 2|P(a,a)| = 2 for the singlet
    assert math.isclose(chsh_value(SINGLET_RHO, same), 2.0, abs_tol=1e-12)
    assert abs(chsh_value(MIXED_RHO, _optimal_singlet_quadruple())) < 1e-12


def test_chsh_local_value_examples():
    spec = EntangledStateSpec(Polarization.ANTIPARALLEL, 0.5, 0.0)
    z = MeasurementDirection(0.0, 0.0)
    eq = MeasurementDirection(math.pi / 2, 0.0)
    down = MeasurementDirection(math.pi, 0.0)
    assert math.isclose(chsh_local_value(spec, ChshQuadruple(z, z, z, eq)), 2.0)
    assert chsh_local_value(spec, ChshQuadruple(eq, eq, eq, eq)) < 1e-12
    assert math.isclose(chsh_local_value(spec, ChshQuadruple(z, z, down, z)), 2.0)


def test_chsh_local_classical_bound(rng):
    spec = EntangledStateSpec(Polarization.PARALLEL, 1.0, 0.3)
    for _ in range(2000):
        quad = ChshQuadruple(*(random_direction(rng) for _ in range(4)))
        assert chsh_local_value(spec, quad) <= 2.0 + 1e-12


def test_max_chsh_singlet_and_product():
    assert math.isclose(max_chsh(SINGLET_RHO), TSIRELSON, abs_tol=1e-12)
    rho_pp = np.zeros((4, 4), dtype=complex)
    rho_pp[0, 0] = 1.0
    assert math.isclose(max_chsh(rho_pp), 2.0, abs_tol=1e-12)


def test_max_chsh_rank_two_mixture():
    t0 = np.zeros(4, dtype=complex)
    t0[1] = t0[2] = 1 / math.sqrt(2)
    rho = 0.5 * np.outer(t0, t0.conj())
    rho[3, 3] += 0.5
    # T = diag(1/2, 1/2, 0) gives 2 sqrt(1/2)
    assert math.isclose(max_chsh(rho), math.sqrt(2.0), abs_tol=1e-12)
    assert abs(max_chsh_brute(rho, samples=4000, seed=3) - math.sqrt(2.0)) < 1e-3


def test_correlation_matrix_singlet():
    assert np.abs(correlation_matrix(SINGLET_RHO) + np.eye(3)).max() < 1e-12


def test_concurrence_reference_states():
    assert math.isclose(concurrence(SINGLET_RHO), 1.0, abs_tol=1e-12)
    rho_pp = np.zeros((4, 4), dtype=complex)
    rho_pp[0, 0] = 1.0
    assert concurrence(rho_pp) == 0.0
    for eta in (0.0, 0.7, 2.0):
        spec = EntangledStateSpec(Polarization.ANTIPARALLEL, math.pi / 6, eta)
        rho = density_from_pure(make_entangled(spec))
        assert math.isclose(concurrence(rho), math.sin(math.pi / 3), abs_tol=1e-12)


def test_concurrence_matches_sqrtm_route(rng):
    for _ in range(60):
        rho = random_density_matrix(rng)
        assert math.isclose(concurrence(rho), wootters_reference(rho), abs_tol=1e-9)


# 400-point figure grids at gamma^2 = 0.01, antiparallel (fig1: eta = 0, fig2: xi = pi/4),
# where the smallest eigenvalue of rho is 6e-11..9e-10
@pytest.mark.parametrize("xi, eta, index", [
    (math.pi / 4, math.pi / 6, 127),
    (math.pi / 4, math.pi / 4, 210),
    (math.pi / 6, 0.0, 86),
])
def test_concurrence_matches_multiprecision_on_figure_grid(xi, eta, index):
    cfg = CavityConfig.from_mean_photons(0.01)
    t = np.linspace(0.0, 10.0, 400)[index] * cfg.period
    rho, _ = reduced_density(EntangledStateSpec(Polarization.ANTIPARALLEL, xi, eta), t, cfg)
    assert abs(concurrence(rho) - wootters_mp(rho)) < 1e-12


def test_concurrence_rejects_negative_density():
    with pytest.raises(NumericalFailure, match="negative eigenvalue"):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_correlation_matrix_matches_operator_form(rng):
    axes = (MeasurementDirection(math.pi / 2, 0.0), MeasurementDirection(math.pi / 2, math.pi / 2),
            MeasurementDirection(0.0, 0.0))
    for _ in range(20):
        rho = random_density_matrix(rng)
        t = correlation_matrix(rho)
        for i, a in enumerate(axes):
            for j, b in enumerate(axes):
                assert abs(t[i, j] - correlation(rho, a, b)) < 1e-12


def test_pure_state_formulas(rng):
    # 2 sqrt(1 + sin^2 2xi) and |sin 2xi|, independent of eta
    for pol in Polarization:
        for xi in np.linspace(0.05, 1.5, 6):
            for eta in (0.0, 0.6, 1.9):
                rho = density_from_pure(make_entangled(EntangledStateSpec(pol, xi, eta)))
                s2 = math.sin(2 * xi)
                assert math.isclose(max_chsh(rho), 2 * math.sqrt(1 + s2 * s2), abs_tol=1e-11)
                assert math.isclose(concurrence(rho), abs(s2), abs_tol=1e-11)


def test_chsh_value_is_the_four_correlation_combination(rng):
    # one density check, the same arithmetic as four checked correlation calls
    for _ in range(10):
        rho = random_density_matrix(rng)
        q = ChshQuadruple(*(random_direction(rng) for _ in range(4)))
        four = abs(correlation(rho, q.a, q.b) + correlation(rho, q.a, q.c)
                   + correlation(rho, q.d, q.b) - correlation(rho, q.d, q.c))
        assert chsh_value(rho, q) == four
    bad = SINGLET_RHO + 1e-6 * np.diag([1j, 0, 0, 0])
    with pytest.raises(ValueError, match="Hermitian"):
        chsh_value(bad, q)


def test_chsh_value_never_exceeds_max(rng):
    for _ in range(15):
        rho = random_density_matrix(rng)
        bound = max_chsh(rho)
        for _ in range(40):
            quad = ChshQuadruple(*(random_direction(rng) for _ in range(4)))
            assert chsh_value(rho, quad) <= bound + 1e-9


def test_tsirelson_bound_random(rng):
    for _ in range(300):
        assert max_chsh(random_density_matrix(rng)) <= TSIRELSON + 1e-9


def test_invariance_under_phase_and_opposed_z_rotations(rng):
    for _ in range(15):
        spec = random_spec(rng)
        psi = make_entangled(spec)
        rho = density_from_pure(psi)
        rho_phase = density_from_pure(np.exp(1j * rng.uniform(0, 2 * math.pi)) * psi)
        assert abs(max_chsh(rho) - max_chsh(rho_phase)) < 1e-10
        assert abs(concurrence(rho) - concurrence(rho_phase)) < 1e-10
        alpha = rng.uniform(0, 2 * math.pi)
        rz = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
        u = np.kron(rz, rz.conj())
        rotated = u @ rho @ u.conj().T
        assert abs(max_chsh(rho) - max_chsh(rotated)) < 1e-10
        assert abs(concurrence(rho) - concurrence(rotated)) < 1e-10


def test_brute_force_examples():
    assert max_chsh_brute(SINGLET_RHO, samples=10_000, seed=1) >= 2.827
    assert max_chsh_brute(MIXED_RHO, samples=100, seed=1) < 1e-12
    rho_pp = np.zeros((4, 4), dtype=complex)
    rho_pp[0, 0] = 1.0
    assert abs(max_chsh_brute(rho_pp, samples=5000, seed=1) - 2.0) <= 1e-3
    with pytest.raises(ValueError):
        max_chsh_brute(SINGLET_RHO, samples=0)


def test_brute_force_rejects_bad_inputs():
    with pytest.raises(ValueError, match="refine"):
        max_chsh_brute(SINGLET_RHO, refine=-1)
    with pytest.raises(ValueError, match="empty"):
        max_chsh_brute(np.zeros((0, 4, 4), dtype=complex))
    with pytest.raises(ValueError, match="empty"):
        max_chsh(np.zeros((0, 4, 4), dtype=complex))
    bad = SINGLET_RHO + 1e-6 * np.diag([1j, 0, 0, 0])
    for fn in (max_chsh, max_chsh_brute):
        with pytest.raises(ValueError, match="Hermitian"):
            fn(np.array([SINGLET_RHO, bad]))
        with pytest.raises(ValueError, match="shape"):
            fn(np.eye(3))


def _rho_up_up():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_max_chsh_stack_equals_per_matrix_calls(rng):
    rhos = np.array([random_density_matrix(rng) for _ in range(200)] + [SINGLET_RHO, _rho_up_up()])
    stacked = max_chsh(rhos)
    assert stacked.shape == (len(rhos),)
    assert np.array_equal(stacked, [max_chsh(rho) for rho in rhos])


def test_brute_force_stack_matches_single_calls(rng):
    rhos = np.array([random_density_matrix(rng) for _ in range(12)] + [SINGLET_RHO, _rho_up_up()])
    stacked = max_chsh_brute(rhos, seed=5)
    singles = np.array([max_chsh_brute(rho, seed=5) for rho in rhos])
    assert np.abs(stacked - singles).max() <= 1e-9
    assert np.all(stacked <= max_chsh(rhos) + 1e-9)
    # a one-member stack runs the single-density arithmetic exactly
    assert max_chsh_brute(rhos[:1], seed=5)[0] == singles[0]


def test_chsh_stack_shapes(rng):
    rhos = np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    for fn in (max_chsh, lambda r: max_chsh_brute(r, samples=500, refine=1)):
        assert fn(rhos).shape == (2, 3)
        assert type(fn(rhos[0, 0])) is float
    assert np.array_equal(max_chsh(rhos).ravel(), max_chsh(rhos.reshape(6, 4, 4)))


def test_concurrence_stack_equals_per_matrix_calls(rng):
    ginibre = [random_density_matrix(rng) for _ in range(300)]
    vecs = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    pure = list(np.einsum("ki,kj->kij", vecs, vecs.conj()))
    cfg = CavityConfig.from_mean_photons(15.0)
    figure, _ = reduced_densities(EntangledStateSpec(Polarization.PARALLEL, math.pi / 4, math.pi / 3),
                                  np.linspace(0.0, 10.0, 400) * cfg.period, cfg)
    for rhos in (np.array(ginibre + [SINGLET_RHO, _rho_up_up()]), np.array(pure), figure):
        stacked = concurrence(rhos)
        assert stacked.shape == (len(rhos),)
        assert np.array_equal(stacked, [concurrence(rho) for rho in rhos])


def test_concurrence_stack_shapes(rng):
    rhos = np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    assert concurrence(rhos).shape == (2, 3)
    assert type(concurrence(rhos[0, 0])) is float
    assert np.array_equal(concurrence(rhos).ravel(), concurrence(rhos.reshape(6, 4, 4)))


def test_concurrence_stack_refusals():
    with pytest.raises(ValueError, match="empty"):
        concurrence(np.zeros((0, 4, 4), dtype=complex))
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalFailure, match="negative eigenvalue"):
        concurrence(np.array([SINGLET_RHO, negative, MIXED_RHO]))
    bad = SINGLET_RHO + 1e-6 * np.diag([1j, 0, 0, 0])
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence(np.array([MIXED_RHO, bad, SINGLET_RHO]))


def test_brute_force_converges(rng):
    for _ in range(10):
        rho = random_density_matrix(rng)
        assert abs(max_chsh(rho) - max_chsh_brute(rho, seed=11)) <= 1e-3
