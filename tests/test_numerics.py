import math

import mpmath
import numpy as np
import pytest

from cavity_bell.numerics import (
    NumericalFailure,
    as_complex_matrix,
    coherent_log_amplitudes,
    hermitian_eigensystem,
)


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[1.0, np.inf * 1j], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros(4))


def test_hermitian_identity():
    w, v = hermitian_eigensystem(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v.conj().T @ v, np.eye(4))


def test_hermitian_diag_sorted():
    w, _ = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_hermitian_singlet_ttt():
    # the singlet's spin-correlation matrix is -I, so T^T T is the identity
    t = -np.eye(3)
    w, _ = hermitian_eigensystem(t.T @ t)
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)


def test_hermitian_reconstruction_contract(rng):
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = a + a.conj().T
        w, v = hermitian_eigensystem(m)
        recon = v @ np.diag(w) @ v.conj().T
        scale = np.abs(m).max()
        assert np.abs(m - recon).max() <= 1e-9 * scale
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-10


def test_hermitian_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(m)


def test_hermitian_stack_matches_per_matrix(rng):
    a = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack = a + a.conj().swapaxes(-1, -2)
    w, v = hermitian_eigensystem(stack)
    assert w.shape == (3, 5) and v.shape == (3, 5, 5)
    for k in range(3):
        wk, _ = hermitian_eigensystem(stack[k])
        assert np.abs(w[k] - wk).max() <= 1e-12
        # eigenvectors are fixed only up to phase: compare the reconstruction
        recon = v[k] @ np.diag(w[k]) @ v[k].conj().T
        assert np.abs(recon - stack[k]).max() <= 1e-12
        assert np.abs(v[k].conj().T @ v[k] - np.eye(5)).max() <= 1e-12


def test_hermitian_stack_rejects_one_nonhermitian_member():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 2.0])])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(stack)


def poisson_logweight(n, gamma):
    """log of the Poisson weight e^{-gamma^2} gamma^{2n} / n!."""
    return 2.0 * coherent_log_amplitudes(gamma, n)


def test_poisson_logweight_basics():
    assert math.isclose(poisson_logweight(0, 1.0), -1.0, rel_tol=1e-14)
    assert list(poisson_logweight([0, 1, 5], 0.0)) == [0.0, -np.inf, -np.inf]
    assert poisson_logweight(-1, 1.0) == -np.inf
    with pytest.raises(ValueError):
        coherent_log_amplitudes(-1.0, 0)


def test_coherent_log_amplitudes_match_direct_powers(rng):
    for _ in range(20):
        gamma = rng.uniform(0.1, 2.0)
        n = np.arange(8)
        direct = np.array([gamma ** k * math.exp(-0.5 * gamma ** 2) / math.sqrt(math.factorial(k))
                           for k in n])
        assert np.abs(np.exp(coherent_log_amplitudes(gamma, n)) - direct).max() < 1e-13


def test_poisson_logweight_concentration_value():
    # n = gamma^2 = 150; reference from 60-digit arithmetic:
    # 150 log(150) - 150 - log(150!)
    mpmath.mp.dps = 60
    ref = float(150 * mpmath.log(150) - 150 - mpmath.log(mpmath.factorial(150)))
    got = poisson_logweight(150, math.sqrt(150.0))
    assert abs(got - ref) < 1e-10
    assert abs(ref - (-3.42481173498532)) < 1e-12


@pytest.mark.parametrize("gamma2", [0.01, 1.0, 15.0, 150.0])
def test_poisson_weights_normalized(gamma2):
    gamma = math.sqrt(gamma2)
    n_max = int(gamma2 + 40 * math.sqrt(gamma2) + 60)
    total = np.exp(poisson_logweight(np.arange(n_max + 1), gamma)).sum()
    assert abs(total - 1.0) < 1e-12


def test_lgamma_against_log_recursion():
    # cumulative log-sum recursion as the independent reference, n <= 4096
    acc = 0.0
    checkpoints = {1, 2, 10, 100, 1000, 4096}
    for n in range(1, 4097):
        acc += math.log(n)
        if n in checkpoints:
            got = poisson_logweight(n, 1.0)  # = -1 - log(n!)
            assert abs((got + 1.0 + acc) / max(acc, 1.0)) < 1e-12


def test_numerical_failure_is_runtime_error():
    assert issubclass(NumericalFailure, RuntimeError)
