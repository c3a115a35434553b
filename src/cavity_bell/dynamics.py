"""Closed-form reduced spin density from the per-photon-sector expansion.

The initial state carries two spin amplitudes, s = sin(xi) e^{i eta} and
c = cos(xi) e^{-i eta}, next to a coherent field.  In photon sector n the
evolution maps them onto a four-component spin amplitude vector built from
a small family of trigonometric time functions (four for the antiparallel
family, six for the parallel one) times coherent amplitudes taken in log
space.  `sector_amplitudes` stacks these vectors into A[t, i, n] by numpy
broadcasting, with time as a batch axis; the reduced density is
rho_r(t) = A(t) A(t)^dag, the sum over the populated sectors with a
controlled Poisson tail.

Everything in that expansion that does not depend on t is computed once
per job and kept in bounded ``functools.lru_cache`` tables: the Poisson
truncation per (gamma, tol) in `choose_truncation`, and per (polarization,
gamma, sector count) the coherent weights and the per-sector frequencies
and coefficients in `_sector_constants`.  A sweep that evaluates one grid
time per call therefore pays only for the time-dependent ufuncs after its
first point.  The cached arrays are read-only and built with the very
expressions a cold call uses, so a warm call returns the same bits.

The time functions are derived at zero coherent phase, in the frame where
the free-field rotation has been factored out of the evolution operator.
A phase phi reduces to phi = 0 exactly: rho_phi(t) = S rho_0(t; eta') S^dag
with S = diag(e^{i phi k}), k = (2, 1, 1, 0) the up-spin count, and
eta' = eta - phi for the parallel family (eta' = eta for the antiparallel
one).  The `oracle` module cross-checks this expansion against a
brute-force evolution in the truncated joint space; see its docstring for
the frame discussion.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import coherent_log_amplitudes
from .states import SPIN_EXCITATIONS, CavityConfig, EntangledStateSpec, Polarization

SECTOR_CAP = 4096
#: default Poisson-tail tolerance of the closed form
DEFAULT_TOL = 1e-10
#: sectors evaluated beyond the Poisson n_max; the dynamics moves photon
#: number by up to two relative to the initial distribution
SAFETY_SECTORS = 2
#: entries kept by each per-job cache; a sweep needs one, a figure a few
CACHE_SIZE = 32


class TruncationError(RuntimeError):
    """The requested Poisson-tail tolerance is not reachable within the sector cap."""


@dataclass(frozen=True)
class FockTruncation:
    """Highest photon sector kept, plus the Poisson mass provably dropped."""

    n_max: int
    tail_bound: float


@functools.lru_cache(maxsize=CACHE_SIZE)
def choose_truncation(gamma: float, tol: float) -> FockTruncation:
    """Smallest n_max whose Poisson tail is <= tol, by upward log-weight recursion.

    Memoised per (gamma, tol); refusals raise afresh on every call."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return FockTruncation(0, 0.0)
    two_log_gamma = 2.0 * math.log(gamma)
    logweight = -gamma * gamma  # n = 0
    acc = math.exp(logweight)
    n = 0
    while 1.0 - acc > tol:
        n += 1
        if n > SECTOR_CAP:
            raise TruncationError(
                f"Poisson tail {1.0 - acc:.3e} still above tol {tol:.3e} at the "
                f"sector cap {SECTOR_CAP} (gamma^2 = {gamma * gamma:g})"
            )
        logweight += two_log_gamma - math.log(n)
        acc += math.exp(logweight)
    return FockTruncation(n, max(1.0 - acc, 0.0))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _sector_constants(polarization: Polarization, gamma: float,
                      n_sectors: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The t-independent factors of `sector_amplitudes`, read-only.

    Returns the coherent amplitudes of photon numbers -2 .. n_sectors + 1
    and, per sector n, the frequencies and coefficients of the polarization's
    time functions, each written as in the formulas of `sector_amplitudes`.
    """
    n = np.arange(n_sectors)
    weights = np.exp(coherent_log_amplitudes(gamma, np.arange(-2, n_sectors + 2)))
    if polarization is Polarization.PARALLEL:
        # |2n-1| keeps n = 0 finite; the factor n zeroes it there
        consts = (np.sqrt((2 * n + 3) / 2), np.sqrt(4 * n + 2), np.sqrt(np.abs(2 * n - 1) / 2),
                  2 * (n + 1), 2 * np.sqrt((n + 1) * (n + 2)), 2 * n + 3,
                  -np.sqrt(n), np.sqrt(n + 1),
                  2 * np.sqrt(n * (n - 1)), 2 * n, 2 * n - 1)
    else:
        # |4n-2| keeps n = 0 finite; the factor sqrt(n) zeroes it there
        consts = (np.sqrt(4 * n + 6), np.sqrt(n + 1), np.sqrt((2 * n + 1) / 2),
                  np.sqrt(np.abs(4 * n - 2)), -np.sqrt(n))
    for arr in (weights, *consts):
        arr.flags.writeable = False
    return weights, consts


def sector_amplitudes(spec: EntangledStateSpec, times, cfg: CavityConfig,
                      n_sectors: int) -> np.ndarray:
    """Spin amplitudes A[t, i, n] of photon sectors n = 0..n_sectors-1 on a time grid.

    Sector n contributes the rank-one block A[t, :, n] A[t, :, n]^dag to the
    reduced density.  Each entry is a coherent amplitude of photon number
    n - 2..n + 2 times a bounded time function, so A stays finite at any
    gamma; in terms of the scaled coefficients (Ck, Dk times
    e^{-gamma^2/2} / sqrt(n!)) and s = sin(xi) e^{i eta'},
    c = cos(xi) e^{-i eta'}:

    antiparallel  A = (C1 (s + c), C2 s + C3 c, C3 s + C2 c, C4 (s + c))
    parallel      A = (D1 s + D2 c, D3 s + D4 c, D3 s + D4 c, D5 s + D6 c)

    with C1 = gamma^{n+1} sin(g t sqrt(4n+6)) / sqrt(4n+6),
    C2 = gamma^n cos^2(g t sqrt((2n+1)/2)), C3 = -gamma^n sin^2(same),
    C4 = -gamma^{n-1} n sin(g t sqrt(4n-2)) / sqrt(4n-2),
    D1 = gamma^n (1 - 2(n+1) sin^2(g t sqrt((2n+3)/2)) / (2n+3)),
    D2 = gamma^{n+2} 2 sin^2(same) / (2n+3),
    D3 = -gamma^{n-1} n sin(g t sqrt(4n+2)) / sqrt(4n+2),
    D4 = gamma^{n+1} sin(same) / sqrt(4n+2),
    D5 = gamma^{n-2} 2 n(n-1) sin^2(g t sqrt((2n-1)/2)) / (2n-1),
    D6 = gamma^n (1 - 2n sin^2(same) / (2n-1)).
    C4 and D3 vanish at n = 0 and D5 at n <= 1.  The phase phi enters as
    eta' and the factor e^{i phi k} on row k (see the module docstring).
    Only the time functions are evaluated per call; everything else comes
    from the per-job cache of `_sector_constants`.
    """
    gt = cfg.g * np.asarray(times, dtype=float)[:, None]
    weights, consts = _sector_constants(spec.polarization, cfg.gamma, n_sectors)

    def coh(shift: int) -> np.ndarray:
        """Coherent amplitude of photon number n + shift, per sector n."""
        return weights[2 + shift:2 + shift + n_sectors]

    parallel = spec.polarization is Polarization.PARALLEL
    eta = spec.eta - cfg.phi if parallel else spec.eta
    s = math.sin(spec.xi) * cmath.exp(1j * eta)
    c = math.cos(spec.xi) * cmath.exp(-1j * eta)
    amps = np.empty((gt.shape[0], 4, n_sectors), dtype=complex)
    if parallel:
        wx, r, wy, a11, a14, dx, a21, a24, a41, a44, dy = consts
        sx2 = np.sin(gt * wx) ** 2
        sr = np.sin(gt * r) / r
        sy2 = np.sin(gt * wy) ** 2
        u11 = 1.0 - a11 * sx2 / dx
        u14 = a14 * sx2 / dx
        u21, u24 = a21 * sr, a24 * sr
        u41 = a41 * sy2 / dy
        u44 = 1.0 - a44 * sy2 / dy
        amps[:, 0] = coh(0) * u11 * s + coh(2) * u14 * c
        amps[:, 1] = coh(-1) * u21 * s + coh(1) * u24 * c
        amps[:, 2] = amps[:, 1]
        amps[:, 3] = coh(-2) * u41 * s + coh(0) * u44 * c
    else:
        r1, a1, w, r4, a4 = consts
        k1 = a1 * np.sin(gt * r1) / r1
        x = gt * w
        k2, k3 = np.cos(x) ** 2, -np.sin(x) ** 2
        k4 = a4 * np.sin(gt * r4) / r4
        amps[:, 0] = coh(1) * k1 * (s + c)
        amps[:, 1] = coh(0) * (k2 * s + k3 * c)
        amps[:, 2] = coh(0) * (k3 * s + k2 * c)
        amps[:, 3] = coh(-1) * k4 * (s + c)
    amps *= np.exp(1j * cfg.phi * SPIN_EXCITATIONS)[:, None]
    return amps


def reduced_densities(spec: EntangledStateSpec, times, cfg: CavityConfig,
                      tol: float = DEFAULT_TOL) -> tuple[np.ndarray, FockTruncation]:
    """Reduced spin densities rho_r(t), shape (len(times), 4, 4), Poisson tail <= tol.

    Sectors run to n_max + SAFETY_SECTORS.  Each trace sits in
    [1 - 2 tol, 1] and is left as-is, so a truncation bug cannot hide
    behind silent rescaling.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    trunc = choose_truncation(cfg.gamma, tol)
    amps = sector_amplitudes(spec, times, cfg, trunc.n_max + SAFETY_SECTORS + 1)
    return np.einsum("tin,tjn->tij", amps, amps.conj()), trunc


def reduced_density(spec: EntangledStateSpec, t: float, cfg: CavityConfig,
                    tol: float = DEFAULT_TOL) -> tuple[np.ndarray, FockTruncation]:
    """Reduced spin density at one time; see reduced_densities."""
    rhos, trunc = reduced_densities(spec, [t], cfg, tol)
    return rhos[0], trunc
