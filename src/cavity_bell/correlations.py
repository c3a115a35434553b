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
from .states import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, EntangledStateSpec, Polarization

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


def spin_coherent_pair(n: MeasurementDirection) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and -1 eigenvectors of sigma.n (north- and south-pole gauge)."""
    half = 0.5 * n.theta
    phase = np.exp(1j * n.phi_az)
    plus = np.array([math.cos(half), math.sin(half) * phase])
    minus = np.array([math.sin(half), -math.cos(half) * phase])
    return plus, minus


def _checked_density(rho) -> np.ndarray:
    arr = as_complex_matrix(rho, shape=(4, 4))
    defect = hermiticity_defect(arr)
    if defect > _HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian: defect {defect:.3e}")
    return arr


def correlation(rho, a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Two-direction correlation Tr[(sigma.a x sigma.b) rho]."""
    arr = _checked_density(rho)
    val = np.trace(np.kron(sigma_dot(a), sigma_dot(b)) @ arr)
    if abs(val.imag) > 1e-12:
        raise NumericalFailure(f"correlation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def local_correlation(spec: EntangledStateSpec, a: MeasurementDirection,
                      b: MeasurementDirection) -> float:
    """Correlation carried by the diagonal (classical-probability) part alone:
    -cos(theta_a) cos(theta_b) for antiparallel states, + for parallel."""
    sign = -1.0 if spec.polarization is Polarization.ANTIPARALLEL else 1.0
    return sign * math.cos(a.theta) * math.cos(b.theta)


def chsh_value(rho, q: ChshQuadruple) -> float:
    """|P(a,b) + P(a,c) + P(d,b) - P(d,c)| for the four measurement directions."""
    return abs(
        correlation(rho, q.a, q.b)
        + correlation(rho, q.a, q.c)
        + correlation(rho, q.d, q.b)
        - correlation(rho, q.d, q.c)
    )


def chsh_local_value(spec: EntangledStateSpec, q: ChshQuadruple) -> float:
    """Four-direction combination of the local correlations; analytically <= 2."""
    ca, cb, cc, cd = (math.cos(n.theta) for n in (q.a, q.b, q.c, q.d))
    return abs(ca * (cb + cc) + cd * (cb - cc))


def correlation_matrix(rho) -> np.ndarray:
    """3x3 real spin-correlation matrix T_ij = Tr[rho (sigma_i x sigma_j)]."""
    arr = _checked_density(rho)
    return np.einsum("ijab,ba->ij", _PAULI_PAIRS, arr).real


def max_chsh(rho) -> float:
    """Maximum CHSH value 2 sqrt(u1 + u2), with u1 >= u2 the two largest
    eigenvalues of T^T T, i.e. the squared two largest singular values of T."""
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return 2.0 * math.sqrt(s[0] * s[0] + s[1] * s[1])


def concurrence(rho) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) from a Hermitian factor of rho.

    With rho = F F^dag, F = V sqrt(w) from rho's own eigensystem, the l_i are
    the singular values of F^T (sy x sy) F, whose squares are the eigenvalues
    of rho (sy x sy) rho* (sy x sy).  Eigenvalues of rho below -1e-9 mark an
    invalid (non-PSD) density; smaller negative rounding residue is set to 0.
    """
    arr = _checked_density(rho)
    w, v = hermitian_eigensystem(arr)
    if w.min() < -1e-9:
        raise NumericalFailure(f"density matrix has negative eigenvalue {w.min():.3e}")
    factor = v * np.sqrt(np.maximum(w, 0.0))
    lam = np.linalg.svd(factor.T @ _SYSY @ factor, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


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


def _angles_to_vec(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iters: int = 40) -> float:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def max_chsh_brute(rho, samples: int = 10_000, refine: int = 3, seed: int = 0) -> float:
    """Lower bound on max_chsh by direct maximization over measurement quadruples.

    Draws ``samples`` uniform (b, c) pairs, completes each to an optimal
    quadruple, then refines the best candidate with ``refine`` sweeps of
    coordinate-wise golden-section search over the four angles of (b, c).
    Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    arr = _checked_density(rho)
    # shares T with max_chsh but not its singular-value step, and returns
    # chsh_value of an explicit quadruple, so it stays an independent lower bound
    t = correlation_matrix(arr)

    rng = np.random.default_rng(seed)
    bs = rng.normal(size=(samples, 3))
    cs = rng.normal(size=(samples, 3))
    bs /= np.linalg.norm(bs, axis=1, keepdims=True)
    cs /= np.linalg.norm(cs, axis=1, keepdims=True)
    vals = (np.linalg.norm((bs + cs) @ t.T, axis=1)
            + np.linalg.norm((bs - cs) @ t.T, axis=1))
    best = int(np.argmax(vals))
    tb = math.acos(max(-1.0, min(1.0, bs[best, 2])))
    pb = math.atan2(bs[best, 1], bs[best, 0])
    tc = math.acos(max(-1.0, min(1.0, cs[best, 2])))
    pc = math.atan2(cs[best, 1], cs[best, 0])

    def objective(ang):
        b = _angles_to_vec(ang[0], ang[1])
        c = _angles_to_vec(ang[2], ang[3])
        return (np.linalg.norm(t @ (b + c)) + np.linalg.norm(t @ (b - c)))

    angles = [tb, pb, tc, pc]
    spans = [math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi]
    for sweep in range(refine):
        width = 0.5 ** sweep
        for k in range(4):
            lo = angles[k] - 0.5 * width * spans[k]
            hi = angles[k] + 0.5 * width * spans[k]

            def line(x, k=k):
                trial = list(angles)
                trial[k] = x
                return objective(trial)

            angles[k] = _golden_max(line, lo, hi)

    quad = _complete_quadruple(
        t, _angles_to_vec(angles[0], angles[1]), _angles_to_vec(angles[2], angles[3])
    )
    return chsh_value(arr, quad)
