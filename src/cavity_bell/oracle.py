"""Brute-force ground truth: evolve the joint spin-field state in a truncated
Fock space, trace out the field, and compare against the sector expansion.

Two evolution frames are supported.

``corotating`` (default)
    The free-field rotation R(t) = e^{i omega a^dag a t} is factored out and
    the coupling generator is exponentiated on its own, U(t) = R^dag(t)
    e^{-i V t}.  This is the resonant dynamics the closed-form sector
    expansion integrates; the R phases cancel photon-diagonally, so they
    never reach the reduced density.

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


@dataclass(frozen=True)
class JointState:
    """Pure joint state, amplitudes ordered (spin basis index, photon number)."""

    amps: np.ndarray
    n_fock: int

    def __post_init__(self):
        if self.amps.shape != (4 * (self.n_fock + 1),):
            raise ValueError("amplitude vector does not match 4*(n_fock+1)")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def fock_operators(n_fock: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, a^dag, a^dag a) on the truncated Fock space; a^dag is cut at the edge."""
    n = np.arange(n_fock + 1, dtype=float)
    a = np.diag(np.sqrt(n[1:]), k=1)
    return a, a.conj().T, np.diag(n)


def coupling_hamiltonian(cfg: CavityConfig, n_fock: int) -> np.ndarray:
    """Spin-field exchange term i g (a J+ - a^dag J-) on the joint space."""
    a, adag, _ = fock_operators(n_fock)
    return 1j * cfg.g * (np.kron(J_PLUS, a) - np.kron(J_MINUS, adag))


def build_hamiltonian(cfg: CavityConfig, n_fock: int) -> np.ndarray:
    """Full lab-frame Hamiltonian omega a^dag a + i g (a J+ - a^dag J-)."""
    if n_fock < 1:
        raise ValueError("n_fock must be >= 1")
    _, _, number = fock_operators(n_fock)
    return cfg.omega * np.kron(np.eye(4, dtype=complex), number) + coupling_hamiltonian(cfg, n_fock)


def excitation_operator(n_fock: int) -> np.ndarray:
    """Conserved total excitation a^dag a + (number of up spins)."""
    _, _, number = fock_operators(n_fock)
    return (np.kron(np.eye(4, dtype=complex), number)
            + np.kron(np.diag(SPIN_EXCITATIONS).astype(complex), np.eye(n_fock + 1)))


def coherent_amplitudes(gamma: float, phi: float, n_fock: int) -> np.ndarray:
    """Truncated coherent-state amplitudes alpha^n e^{-|alpha|^2/2} / sqrt(n!)."""
    n = np.arange(n_fock + 1)
    return np.exp(coherent_log_amplitudes(gamma, n)) * np.exp(1j * phi * n)


def joint_from_spin(spin_amps, cfg: CavityConfig, n_fock: int) -> JointState:
    """Product of an arbitrary normalized spin state with the truncated coherent state."""
    spin = np.asarray(spin_amps, dtype=complex)
    if spin.shape != (4,):
        raise ValueError("spin state must have 4 amplitudes")
    fieldamps = coherent_amplitudes(cfg.gamma, cfg.phi, n_fock)
    deficit = 1.0 - float(np.vdot(fieldamps, fieldamps).real)
    if deficit > 1e-12:
        raise TruncationTooSmall(
            f"coherent tail beyond n_fock={n_fock} is {deficit:.3e} > 1e-12"
        )
    amps = np.kron(spin, fieldamps)
    amps = amps / np.linalg.norm(amps)
    return JointState(amps, n_fock)


class TruncationTooSmall(RuntimeError):
    """The requested Fock truncation cannot hold the initial coherent state."""


def initial_joint(spec: EntangledStateSpec, cfg: CavityConfig, n_fock: int) -> JointState:
    """Entangled spin state times the truncated coherent field state, renormalized."""
    return joint_from_spin(make_entangled(spec), cfg, n_fock)


@dataclass
class Propagator:
    """exp(-iHt) applier: one Hermitian eigendecomposition serves every t."""

    hamiltonian: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False)
    _eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._eigvals, self._eigvecs = hermitian_eigensystem(self.hamiltonian)

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        phases = np.exp(-1j * self._eigvals * t)
        return self._eigvecs @ (phases * (self._eigvecs.conj().T @ amps))


def evolve(state: JointState, hamiltonian: np.ndarray, t: float) -> JointState:
    """One-shot exp(-iHt)|psi>; build a Propagator instead for time grids."""
    return JointState(Propagator(hamiltonian).apply(state.amps, t), state.n_fock)


def field_rotation(state: JointState, cfg: CavityConfig, t: float) -> JointState:
    """Apply R^dag(t): the photon-n amplitude picks up e^{-i omega n t}."""
    phases = np.exp(-1j * cfg.omega * t * np.arange(state.n_fock + 1))
    return JointState(state.amps * np.kron(np.ones(4), phases), state.n_fock)


def partial_trace_field(state: JointState) -> np.ndarray:
    """4x4 reduced spin density, summing the photon-diagonal blocks."""
    a = state.amps.reshape(4, state.n_fock + 1)
    return a @ a.conj().T


def edge_population(state: JointState, sectors: int = 2) -> float:
    """Probability weight sitting in the top ``sectors`` photon sectors."""
    a = state.amps.reshape(4, state.n_fock + 1)
    return float(np.sum(np.abs(a[:, -sectors:]) ** 2))


def default_n_fock(cfg: CavityConfig, closed_tol: float = 1e-10) -> int:
    """Fock cap covering both the coherent tail (1e-12) and the sector sum."""
    coherent_need = choose_truncation(cfg.gamma, 1e-12).n_max
    closed_need = choose_truncation(cfg.gamma, closed_tol).n_max + SAFETY_SECTORS
    return max(coherent_need, closed_need) + ORACLE_SLACK


def reduced_dynamics(spec: EntangledStateSpec, cfg: CavityConfig, times,
                     frame: str = "corotating", n_fock: int | None = None
                     ) -> tuple[list[np.ndarray], int]:
    """Reduced spin densities on the time grid, by exact joint-space evolution."""
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}")
    if n_fock is None:
        n_fock = default_n_fock(cfg)
    state0 = initial_joint(spec, cfg, n_fock)
    generator = (coupling_hamiltonian(cfg, n_fock) if frame == "corotating"
                 else build_hamiltonian(cfg, n_fock))
    prop = Propagator(generator)
    out = []
    for t in times:
        st = JointState(prop.apply(state0.amps, t), n_fock)
        leak = edge_population(st)
        if leak > EDGE_LIMIT:
            raise TruncationTooSmall(
                f"population {leak:.3e} in the top two photon sectors at t={t:g} "
                f"(n_fock={n_fock}); enlarge the truncation"
            )
        if frame == "corotating":
            st = field_rotation(st, cfg, t)
        out.append(partial_trace_field(st))
    return out, n_fock


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
    devs = np.abs(closed - np.stack(oracle_rhos)).max(axis=(1, 2))
    return ComparisonReport(times, devs, tol, frame, n_fock, trunc.n_max)
