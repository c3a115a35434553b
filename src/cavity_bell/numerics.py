"""Small dense numeric kernels shared by the whole package.

Everything here is a thin, contract-checked wrapper around LAPACK (via
numpy) plus the log-space coherent amplitude that keeps Poisson/coherent
weights finite for mean photon numbers up to the hundreds.
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 0x5EED_CAFE_D00D

__all__ = [
    "NumericalFailure",
    "as_complex_matrix",
    "hermiticity_defect",
    "hermitian_eigensystem",
    "coherent_log_amplitudes",
    "random_density_matrix",
    "DEFAULT_SEED",
]


class NumericalFailure(RuntimeError):
    """A numeric kernel could not meet its accuracy contract."""


def as_complex_matrix(m, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Return ``m`` as a finite complex matrix, or a stack of them along leading
    axes, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from ``m`` to its conjugate transpose (worst member of a stack)."""
    return float(np.abs(m - _dagger(m)).max())


def hermitian_eigensystem(m):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    ``m`` may also be a stack of shape (..., n, n); the results then carry the
    same leading axes, one LAPACK call for the whole stack.  Every member must
    satisfy ``max|M - M^dag| <= 1e-9``; the symmetrized matrix is handed to
    LAPACK so the reconstruction ``V diag(w) V^dag`` matches the input to the
    same order.
    """
    arr = as_complex_matrix(m)
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix is not square")
    defect = hermiticity_defect(arr)
    if defect > 1e-9:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > 1e-9")
    try:
        w, v = np.linalg.eigh(0.5 * (arr + _dagger(arr)))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return w, v


def coherent_log_amplitudes(gamma: float, n) -> np.ndarray:
    """log of the coherent amplitude gamma^n e^{-gamma^2/2} / sqrt(n!) per entry of ``n``.

    Assembled as ``n ln(gamma) - gamma^2/2 - lgamma(n+1)/2`` so the amplitude
    stays representable for gamma^2 in the hundreds, where gamma^n alone would
    overflow any fixed-width float.  Twice the value is the Poisson
    log-weight.  Entries where the amplitude vanishes (n < 0, or n > 0 at
    gamma = 0) are -inf.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    n = np.asarray(n)
    out = np.full(n.shape, -np.inf)
    if gamma == 0.0:
        out[n == 0] = 0.0
        return out
    k = n[n >= 0]
    out[n >= 0] = (k * math.log(gamma) - 0.5 * gamma * gamma
                   - 0.5 * np.array([math.lgamma(j + 1) for j in k.tolist()]))
    return out


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble (Hermitian, PSD, unit trace)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
