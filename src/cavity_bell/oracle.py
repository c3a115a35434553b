"""Brute-force ground truth: evolve the joint spin-field state in a truncated
Fock space, trace out the field, and compare against the sector expansion.

The oracle assembles the joint Hamiltonian as (row, col, value) triplets from
the bidiagonal truncated a, a^dag and the collective spin operators J+-,
with no knowledge of the closed form; the dense joint matrix is never
formed.  Both generators below conserve the total excitation
N = a^dag a + (number of up spins), the Tavis-Cummings symmetry, so the
propagator splits H into its N-blocks: it first checks exactly that no
nonzero triplet links two different N (a Hamiltonian that does is refused,
not truncated), then scatters the triplets into the n_fock + 3 blocks, none
larger than 4x4, diagonalises them in one batched LAPACK call, and applies
exp(-iHt) to a whole time grid at once.  The block split is verified on the
assembled entries, never assumed, and the evolution stays brute force:
exact eigensystems of the truncated matrix, no closed-form time functions,
so it remains an independent check of the sector expansion.

Two evolution frames are supported.

``corotating`` (default)
    The free-field rotation R(t) = e^{i omega a^dag a t} is factored out and
    the coupling generator is exponentiated on its own, U(t) = R^dag(t)
    e^{-i V t}.  This is the resonant dynamics the closed-form sector
    expansion integrates; R^dag acts on the field alone, so its phases
    cancel in the partial trace and never reach the reduced density.

``lab``
    Direct exponentiation of the bare Hamiltonian omega a^dag a + coupling.
    With no free spin term, a spin flip then costs one field quantum of
    detuning, which suppresses and dephases the exchange dynamics at order
    g/omega; at gamma = 0 the population transfer tops out at
    8 g^2 / (omega^2 + 8 g^2) instead of 1.  Kept for side-by-side study.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SAFETY_SECTORS, choose_truncation, reduced_densities
from .numerics import coherent_log_amplitudes, hermitian_eigensystem
from .states import (
    J_MINUS,
    J_PLUS,
    SPIN_EXCITATIONS,
    CavityConfig,
    EntangledStateSpec,
    make_entangled,
)

FRAMES = ("corotating", "lab")
#: extra Fock sectors beyond the closed-form truncation, keeping edge
#: artifacts out of conserved-quantity checks
ORACLE_SLACK = 8
#: highest tolerated population in the top two photon sectors; the a^dag
#: matrix is cut (not wrapped), so leakage is detected instead of corrupted
EDGE_LIMIT = 1e-10


@dataclass(frozen=True, eq=False)
class Triplets:
    """A joint-space operator as (row, col, value) entries over the joint index
    k (n_fock + 1) + n of spin index k and photon number n; repeated (row, col)
    entries add up, as in a dense sum."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n_fock: int

    @property
    def shape(self) -> tuple[int, int]:
        dim = 4 * (self.n_fock + 1)
        return dim, dim


def coupling_hamiltonian(cfg: CavityConfig, n_fock: int) -> Triplets:
    """Spin-field exchange term i g (a J+ - a^dag J-) on the joint space; the
    a^dag row is cut at the Fock edge."""
    # term 0 pairs J+ with a[n, n+1], term 1 pairs -J- with a^dag[n+1, n];
    # every spin entry meets every field entry in one broadcast
    spin = np.stack([J_PLUS, -J_MINUS])
    term, k, kp = np.nonzero(spin)
    n = np.arange(n_fock)
    stride = n_fock + 1
    rows = (k * stride + term)[:, None] + n
    cols = (kp * stride + 1 - term)[:, None] + n
    values = 1j * cfg.g * (spin[term, k, kp][:, None] * np.sqrt(n + 1.0))
    return Triplets(rows.ravel(), cols.ravel(), values.ravel(), n_fock)


def build_hamiltonian(cfg: CavityConfig, n_fock: int) -> Triplets:
    """Full lab-frame Hamiltonian omega a^dag a + i g (a J+ - a^dag J-)."""
    if n_fock < 1:
        raise ValueError("n_fock must be >= 1")
    coupling = coupling_hamiltonian(cfg, n_fock)
    diag = np.arange(4 * (n_fock + 1))
    number = cfg.omega * np.tile(np.arange(n_fock + 1.0), 4)
    return Triplets(np.concatenate([diag, coupling.rows]),
                    np.concatenate([diag, coupling.cols]),
                    np.concatenate([number, coupling.values]), n_fock)


def excitation_numbers(n_fock: int) -> np.ndarray:
    """Conserved total excitation a^dag a + (number of up spins) of each joint
    index, in amplitude order (spin index, photon number)."""
    return np.add.outer(SPIN_EXCITATIONS, np.arange(n_fock + 1)).ravel()


def coherent_amplitudes(gamma: float, phi: float, n_fock: int) -> np.ndarray:
    """Truncated coherent-state amplitudes alpha^n e^{-|alpha|^2/2} / sqrt(n!)."""
    n = np.arange(n_fock + 1)
    return np.exp(coherent_log_amplitudes(gamma, n)) * np.exp(1j * phi * n)


class TruncationTooSmall(RuntimeError):
    """The requested Fock truncation cannot hold the initial coherent state."""


def initial_joint(spec: EntangledStateSpec, cfg: CavityConfig, n_fock: int) -> np.ndarray:
    """Entangled spin state times the truncated coherent field state, renormalized;
    flat amplitudes ordered (spin index, photon number)."""
    fieldamps = coherent_amplitudes(cfg.gamma, cfg.phi, n_fock)
    deficit = 1.0 - float(np.vdot(fieldamps, fieldamps).real)
    if deficit > 1e-12:
        raise TruncationTooSmall(
            f"coherent tail beyond n_fock={n_fock} is {deficit:.3e} > 1e-12"
        )
    amps = np.outer(make_entangled(spec), fieldamps).ravel()
    return amps / np.linalg.norm(amps)


@dataclass
class Propagator:
    """exp(-iHt) applier for a joint-space H, given as ``Triplets``, that
    conserves the total excitation.

    The joint index (spin k, photon n) carries N = n + SPIN_EXCITATIONS[k].
    Construction refuses, with ``ValueError``, any nonzero triplet between two
    different N; there is no dense fallback.  Block N gathers the indices
    (k, N - SPIN_EXCITATIONS[k]) that lie inside the Fock cut, so there are
    n_fock + 3 blocks of at most 4 states; the triplets are scattered straight
    into them, and the other slots are zero padding, which the propagated
    amplitudes never reach.  One batched Hermitian eigendecomposition of the
    block stack then serves every t.
    """

    hamiltonian: Triplets
    _index: np.ndarray = field(init=False, repr=False)
    _valid: np.ndarray = field(init=False, repr=False)
    _eigvals: np.ndarray = field(init=False, repr=False)
    _eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = self.hamiltonian
        n_fock = h.n_fock
        if n_fock < 1:
            raise ValueError(f"n_fock must be >= 1, got {n_fock}")
        rows, cols, values = np.asarray(h.rows), np.asarray(h.cols), np.asarray(h.values)
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError(f"rows, cols and values must be 1-D of one length, got shapes "
                             f"{rows.shape}, {cols.shape}, {values.shape}")
        dim = h.shape[0]
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            raise ValueError(f"triplet index outside the joint space of dimension {dim}")
        excitation = excitation_numbers(n_fock).astype(int)
        cross = np.flatnonzero((values != 0) & (excitation[rows] != excitation[cols]))
        if cross.size:
            i, j = rows[cross[0]], cols[cross[0]]
            raise ValueError(f"H[{i}, {j}] links excitation numbers {excitation[i]} and "
                             f"{excitation[j]}; the propagator needs a conserved excitation")
        photon = np.arange(n_fock + 3)[:, None] - SPIN_EXCITATIONS.astype(int)
        self._valid = (photon >= 0) & (photon <= n_fock)
        self._index = np.where(self._valid, np.arange(4) * (n_fock + 1) + photon, 0)
        spin = np.arange(dim) // (n_fock + 1)
        blocks = np.zeros((n_fock + 3, 4, 4), dtype=complex)
        np.add.at(blocks, (excitation[rows], spin[rows], spin[cols]), values)
        self._eigvals, self._eigvecs = hermitian_eigensystem(blocks)

    def apply(self, amps: np.ndarray, t) -> np.ndarray:
        """exp(-iHt) amps: one vector for a scalar t, one row per time for a grid."""
        psi = np.where(self._valid, amps[self._index], 0)
        coeffs = (self._eigvecs.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]
        phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), self._eigvals))
        blocks = (self._eigvecs @ (phases * coeffs)[..., None])[..., 0]
        out = np.zeros(blocks.shape[:-2] + amps.shape, dtype=complex)
        out[..., self._index[self._valid]] = blocks[..., self._valid]
        return out


def default_n_fock(cfg: CavityConfig, closed_tol: float = 1e-10) -> int:
    """Fock cap covering both the coherent tail (1e-12) and the sector sum."""
    coherent_need = choose_truncation(cfg.gamma, 1e-12).n_max
    closed_need = choose_truncation(cfg.gamma, closed_tol).n_max + SAFETY_SECTORS
    return max(coherent_need, closed_need) + ORACLE_SLACK


def reduced_dynamics(spec: EntangledStateSpec, cfg: CavityConfig, times,
                     frame: str = "corotating", n_fock: int | None = None
                     ) -> tuple[np.ndarray, int]:
    """Reduced spin densities A A^dag, shape (len(times), 4, 4), by exact
    joint-space evolution over the whole grid at once."""
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"oracle time grid must be a non-empty 1-D sequence of times, "
                         f"got shape {times.shape}")
    if n_fock is None:
        n_fock = default_n_fock(cfg)
    psi0 = initial_joint(spec, cfg, n_fock)
    generator = (coupling_hamiltonian(cfg, n_fock) if frame == "corotating"
                 else build_hamiltonian(cfg, n_fock))
    # amplitude matrices A(t), shape (t, spin index, photon number)
    amps = Propagator(generator).apply(psi0, times).reshape(times.size, 4, n_fock + 1)
    leaks = np.sum(np.abs(amps[..., -2:]) ** 2, axis=(-2, -1))
    over = np.flatnonzero(leaks > EDGE_LIMIT)
    if over.size:
        k = over[0]
        raise TruncationTooSmall(
            f"population {leaks[k]:.3e} in the top two photon sectors at t={times[k]:g} "
            f"(n_fock={n_fock}); enlarge the truncation"
        )
    # tracing out the field sums the photon-diagonal blocks; the corotating
    # frame's R^dag(t) is photon-diagonal and cancels there
    return amps @ amps.conj().swapaxes(-1, -2), n_fock


@dataclass
class ComparisonReport:
    """Closed form vs joint-space evolution, element-wise, per grid time."""

    times: np.ndarray
    deviations: np.ndarray
    tol: float
    frame: str
    n_fock: int
    n_max: int

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max())

    @property
    def passed(self) -> bool:
        return bool(np.all(self.deviations <= self.tol))

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: max deviation {self.max_deviation:.3e} over "
                f"{len(self.times)} times (tol {self.tol:g}, frame {self.frame}, "
                f"n_fock {self.n_fock}, n_max {self.n_max})")


def compare_closed_form(spec: EntangledStateSpec, cfg: CavityConfig, times,
                        tol: float = 1e-6, closed_tol: float = 1e-10,
                        frame: str = "corotating") -> ComparisonReport:
    """Element-wise deviation between the sector expansion and the joint-space
    evolution on a time grid."""
    times = np.asarray(times, dtype=float)
    n_fock = default_n_fock(cfg, closed_tol)
    oracle_rhos, _ = reduced_dynamics(spec, cfg, times, frame=frame, n_fock=n_fock)
    closed, trunc = reduced_densities(spec, times, cfg, tol=closed_tol)
    devs = np.abs(closed - oracle_rhos).max(axis=(1, 2))
    return ComparisonReport(times, devs, tol, frame, n_fock, trunc.n_max)
