"""Measurement directions, Bell/CHSH correlations, the Horodecki maximum, and concurrence."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NumericalFailure,
    as_complex_matrix,
    hermitian_eigensystem,
    hermiticity_defect,
)
from .states import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, EntangledStateSpec

TSIRELSON = 2.0 * math.sqrt(2.0)

#: sigma_i x sigma_j for i, j over (x, y, z), shape (3, 3, 4, 4)
_PAULI_PAIRS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
_SYSY = _PAULI_PAIRS[1, 1]
_HERM_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementDirection:
    """Spin measurement axis by polar angle theta and azimuth phi_az (radians)."""

    theta: float
    phi_az: float = 0.0

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi_az), st * math.sin(self.phi_az),
                         math.cos(self.theta)])

    @classmethod
    def from_vector(cls, v) -> "MeasurementDirection":
        x, y, z = np.asarray(v, dtype=float)
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(math.acos(max(-1.0, min(1.0, z / r))), math.atan2(y, x))


@dataclass(frozen=True)
class ChshQuadruple:
    a: MeasurementDirection
    b: MeasurementDirection
    c: MeasurementDirection
    d: MeasurementDirection


def sigma_dot(n: MeasurementDirection) -> np.ndarray:
    """2x2 spin projection operator along the unit vector n."""
    x, y, z = n.unit_vector
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def _checked_density(rho, stack: bool = False) -> np.ndarray:
    """``rho`` as a complex 4x4 density, or with ``stack`` a (..., 4, 4) stack of them;
    every member must be Hermitian to 1e-10."""
    arr = as_complex_matrix(rho, shape=None if stack else (4, 4))
    if arr.shape[-2:] != (4, 4):
        raise ValueError(f"expected shape (..., 4, 4), got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"empty stack of density matrices, shape {arr.shape}")
    defect = hermiticity_defect(arr)
    if defect > _HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian: defect {defect:.3e}")
    return arr


def _trace_correlation(arr: np.ndarray, a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Tr[(sigma.a x sigma.b) arr] for an already checked density ``arr``."""
    val = np.trace(np.kron(sigma_dot(a), sigma_dot(b)) @ arr)
    if abs(val.imag) > 1e-12:
        raise NumericalFailure(f"correlation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def correlation(rho, a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Two-direction correlation Tr[(sigma.a x sigma.b) rho]."""
    return _trace_correlation(_checked_density(rho), a, b)


def chsh_value(rho, q: ChshQuadruple) -> float:
    """|P(a,b) + P(a,c) + P(d,b) - P(d,c)| for the four measurement directions."""
    arr = _checked_density(rho)
    return abs(
        _trace_correlation(arr, q.a, q.b)
        + _trace_correlation(arr, q.a, q.c)
        + _trace_correlation(arr, q.d, q.b)
        - _trace_correlation(arr, q.d, q.c)
    )


def chsh_local_value(spec: EntangledStateSpec, q: ChshQuadruple) -> float:
    """CHSH combination of the correlations -+cos(theta_a) cos(theta_b) that the
    diagonal (classical-probability) part of ``spec`` carries; analytically <= 2."""
    ca, cb, cc, cd = (math.cos(n.theta) for n in (q.a, q.b, q.c, q.d))
    return abs(ca * (cb + cc) + cd * (cb - cc))


def correlation_matrix(rho) -> np.ndarray:
    """3x3 real spin-correlation matrix T_ij = Tr[rho (sigma_i x sigma_j)];
    a (..., 4, 4) stack gives a (..., 3, 3) stack."""
    arr = _checked_density(rho, stack=True)
    return np.einsum("ijab,...ba->...ij", _PAULI_PAIRS, arr).real


def max_chsh(rho):
    """Maximum CHSH value 2 sqrt(u1 + u2), with u1 >= u2 the two largest
    eigenvalues of T^T T, i.e. the squared two largest singular values of T.

    A 4x4 density gives a float; a (..., 4, 4) stack gives an array of shape
    ``rho.shape[:-2]``, one batched ``svd`` for the whole stack.
    """
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    p = 2.0 * np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1])
    return float(p) if p.ndim == 0 else p


def concurrence(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) from a Hermitian factor of rho.

    With rho = F F^dag, F = V sqrt(w) from rho's own eigensystem, the l_i are
    the singular values of F^T (sy x sy) F, whose squares are the eigenvalues
    of rho (sy x sy) rho* (sy x sy).  Eigenvalues of rho below -1e-9 mark an
    invalid (non-PSD) density; smaller negative rounding residue is set to 0.

    A 4x4 density gives a float; a (..., 4, 4) stack gives an array of shape
    ``rho.shape[:-2]``, one batched ``eigh`` and ``svd`` for the whole stack.
    """
    arr = _checked_density(rho, stack=True)
    w, v = hermitian_eigensystem(arr)
    if w.min() < -1e-9:
        raise NumericalFailure(f"density matrix has negative eigenvalue {w.min():.3e}")
    factor = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    lam = np.linalg.svd(factor.swapaxes(-1, -2) @ _SYSY @ factor, compute_uv=False)
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


def _direction_or_fallback(v) -> MeasurementDirection:
    if np.linalg.norm(v) < 1e-14:
        return MeasurementDirection(0.0, 0.0)
    return MeasurementDirection.from_vector(v)


def _complete_quadruple(t: np.ndarray, b: np.ndarray, c: np.ndarray) -> ChshQuadruple:
    # for fixed b, c the best a, d align with T(b+c) and T(b-c)
    return ChshQuadruple(
        a=_direction_or_fallback(t @ (b + c)),
        b=MeasurementDirection.from_vector(b),
        c=MeasurementDirection.from_vector(c),
        d=_direction_or_fallback(t @ (b - c)),
    )


def _angles_to_vec(theta, phi) -> np.ndarray:
    """Unit vectors from polar angles ``theta`` and azimuths ``phi``; the three
    components run along the first axis, so arrays of n angles give (3, n)."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a (3, n) array."""
    sq = v * v
    return np.sqrt(sq[0] + sq[1] + sq[2])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_search(f, lo: np.ndarray, hi: np.ndarray, iters: int = 40) -> np.ndarray:
    """Golden-section maximisers of ``f`` on the brackets [lo, hi], one per entry;
    ``f`` maps an array of abscissae to the matching objective values."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        # where f1 < f2 keep [x1, hi] and probe above x2, else keep [lo, x2] and probe below x1
        up = f1 < f2
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        gap = _GOLDEN * (hi - lo)
        xn = np.where(up, lo + gap, hi - gap)
        x1, x2 = np.where(up, x2, xn), np.where(up, xn, x1)
        fn = f(xn)
        f1, f2 = np.where(up, f2, fn), np.where(up, fn, f1)
    return 0.5 * (lo + hi)


def max_chsh_brute(rho, samples: int = 10_000, refine: int = 3, seed: int = 0):
    """Lower bound on max_chsh by direct maximization over measurement quadruples.

    Draws ``samples`` uniform (b, c) pairs, completes each to an optimal
    quadruple, then refines the best candidate with ``refine`` sweeps of
    coordinate-wise golden-section search over the four angles of (b, c).
    Deterministic for a fixed seed.  A (..., 4, 4) stack gives an array of
    shape ``rho.shape[:-2]``: every member is scored against the same seeded
    candidates and the refinement runs on the whole stack at once, so each
    value equals the single-density call on that member up to rounding.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if refine < 0:
        raise ValueError("refine must be >= 0")
    arr = _checked_density(rho, stack=True)
    dens = arr.reshape(-1, 4, 4)
    # shares T with max_chsh but not its singular-value step, and returns
    # chsh_value of an explicit quadruple, so it stays an independent lower bound
    t = correlation_matrix(dens)

    rng = np.random.default_rng(seed)
    bs = rng.normal(size=(samples, 3))
    cs = rng.normal(size=(samples, 3))
    bs /= np.linalg.norm(bs, axis=1, keepdims=True)
    cs /= np.linalg.norm(cs, axis=1, keepdims=True)
    # scored one density at a time, so no (samples, m) array is ever held
    plus, minus = (bs + cs).T.copy(), (bs - cs).T.copy()
    best = np.array([np.argmax(_norms(tk @ plus) + _norms(tk @ minus)) for tk in t])
    b0, c0 = bs[best].T, cs[best].T
    angles = np.array([np.arccos(np.clip(b0[2], -1.0, 1.0)), np.arctan2(b0[1], b0[0]),
                       np.arccos(np.clip(c0[2], -1.0, 1.0)), np.arctan2(c0[1], c0[0])])

    def t_times(theta, phi):
        return np.einsum("mij,jm->im", t, _angles_to_vec(theta, phi))

    spans = (math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi)
    for sweep in range(refine):
        width = 0.5 ** sweep
        for k in range(4):
            # angle k moves b (k < 2) or c; |T(b+c)| + |T(b-c)| is symmetric in b, c
            j = k - k % 2
            fixed = t_times(angles[2 - j], angles[3 - j])

            def line(x):
                pair = [angles[j], angles[j + 1]]
                pair[k - j] = x
                moving = t_times(*pair)
                return _norms(moving + fixed) + _norms(moving - fixed)

            half = 0.5 * width * spans[k]
            angles[k] = _golden_search(line, angles[k] - half, angles[k] + half)

    bv = _angles_to_vec(angles[0], angles[1]).T
    cv = _angles_to_vec(angles[2], angles[3]).T
    vals = np.array([chsh_value(d, _complete_quadruple(tk, b, c))
                     for d, tk, b, c in zip(dens, t, bv, cv)])
    return float(vals[0]) if arr.ndim == 2 else vals.reshape(arr.shape[:-2])
