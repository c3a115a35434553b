"""Two-qubit domain types, spin operators, entangled-state constructors, and
the semiclassical spectrum.

The fixed basis order everywhere in this package is
(|++>, |+->, |-+>, |-->), so density matrices can be compared entry by
entry across modules.  The Pauli matrices and the collective J+/J- in that
order are defined here and nowhere else.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: (|++>, |+->, |-+>, |-->) basis labels, used by the CLI for display.
BASIS_LABELS = ("|++>", "|+->", "|-+>", "|-->")
#: number of up spins per basis state
SPIN_EXCITATIONS = np.array([2.0, 1.0, 1.0, 0.0])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
#: collective raising operator sigma+ x 1 + 1 x sigma+, sigma+ = |+><-|
J_PLUS = np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=complex)
J_MINUS = J_PLUS.conj().T


class Polarization(enum.Enum):
    ANTIPARALLEL = "antiparallel"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class EntangledStateSpec:
    """Two-angle family of entangled two-spin states.

    Antiparallel:  sin(xi) e^{i eta} |+-> + cos(xi) e^{-i eta} |-+>
    Parallel:      sin(xi) e^{i eta} |++> + cos(xi) e^{-i eta} |-->
    """

    polarization: Polarization
    xi: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.eta)):
            raise ValueError("xi and eta must be finite angles (radians)")
        object.__setattr__(self, "xi", self.xi % TWO_PI)
        object.__setattr__(self, "eta", self.eta % TWO_PI)


@dataclass(frozen=True)
class CavityConfig:
    """Cavity parameters; hbar = 1, g in units of omega, period T = 2 pi / omega."""

    omega: float = 1.0
    g: float = 1.0
    gamma: float = 0.0  # coherent amplitude; gamma^2 is the mean photon number
    phi: float = 0.0

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
        if self.g < 0.0:
            raise ValueError("g must be >= 0")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")

    @property
    def period(self) -> float:
        return TWO_PI / self.omega

    @property
    def mean_photons(self) -> float:
        return self.gamma * self.gamma

    @classmethod
    def from_mean_photons(cls, gamma2: float, **kwargs) -> "CavityConfig":
        if gamma2 < 0.0:
            raise ValueError("gamma2 must be >= 0")
        return cls(gamma=math.sqrt(gamma2), **kwargs)


@dataclass(frozen=True)
class SemiclassicalLevel:
    index: int
    energy: float
    state: np.ndarray


class StationaryKind(enum.Enum):
    MINIMUM = "min"
    MAXIMUM = "max"
    SADDLE = "saddle"


@dataclass(frozen=True)
class StationaryPoint:
    branch: int
    gamma: float
    energy: float
    kind: StationaryKind


def make_entangled(spec: EntangledStateSpec) -> np.ndarray:
    """Normalized 4-amplitude state for the given two-angle family."""
    s = math.sin(spec.xi) * np.exp(1j * spec.eta)
    c = math.cos(spec.xi) * np.exp(-1j * spec.eta)
    if spec.polarization is Polarization.ANTIPARALLEL:
        return np.array([0.0, s, c, 0.0], dtype=complex)
    return np.array([s, 0.0, 0.0, c], dtype=complex)


def density_from_pure(state) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized 4-amplitude state."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("state must have 4 amplitudes")
    norm = np.vdot(psi, psi).real
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm!r}")
    return np.outer(psi, psi.conj())


def split_local_nonlocal(spec: EntangledStateSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split the pure density into its diagonal (classical-probability) part and the
    interference cross terms; the two parts sum to density_from_pure(make_entangled(spec))."""
    sx = math.sin(spec.xi)
    cx = math.cos(spec.xi)
    cross = sx * cx * np.exp(2j * spec.eta)
    local = np.zeros((4, 4), dtype=complex)
    nonlocal_ = np.zeros((4, 4), dtype=complex)
    if spec.polarization is Polarization.ANTIPARALLEL:
        i, j = 1, 2
    else:
        i, j = 0, 3
    local[i, i] = sx * sx
    local[j, j] = cx * cx
    nonlocal_[i, j] = cross
    nonlocal_[j, i] = np.conj(cross)
    return local, nonlocal_


def semiclassical_spectrum(cfg: CavityConfig, gamma: float | None = None) -> list[SemiclassicalLevel]:
    """The four semiclassical levels at coherent amplitude gamma.

    Energies are omega gamma^2 - 2 g gamma, omega gamma^2 (twice, a degenerate
    pair), and omega gamma^2 + 2 g gamma; the returned states are the matching
    eigenvectors of the effective spin Hamiltonian after averaging the field
    over |alpha>, alpha = gamma e^{i phi}:
    omega gamma^2 + i g gamma (e^{i phi} J+ - e^{-i phi} J-).
    """
    if gamma is None:
        gamma = cfg.gamma
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    base = cfg.omega * gamma * gamma
    split = 2.0 * cfg.g * gamma
    ep = np.exp(1j * cfg.phi)
    em = np.exp(-1j * cfg.phi)
    s2 = 1.0 / math.sqrt(2.0)
    states = [
        0.5 * np.array([-ep, -1j, -1j, em]),
        np.array([0.0, -s2, s2, 0.0], dtype=complex),
        np.array([ep * s2, 0.0, 0.0, em * s2]),
        0.5 * np.array([-ep, 1j, 1j, em]),
    ]
    energies = [base - split, base, base, base + split]
    return [SemiclassicalLevel(k, energies[k], states[k]) for k in range(4)]


def stationary_amplitudes(cfg: CavityConfig) -> list[StationaryPoint]:
    """Stationary points of the four level energies over gamma >= 0.

    Each branch energy is quadratic in gamma, so the second derivative is
    2 omega > 0 and every interior root is a minimum.  The upper branch has
    no root on gamma >= 0 unless g = 0.
    """
    points = []
    if cfg.g == 0.0:
        return [StationaryPoint(k, 0.0, 0.0, StationaryKind.MINIMUM) for k in range(4)]
    g_star = cfg.g / cfg.omega
    points.append(
        StationaryPoint(0, g_star, -cfg.g * cfg.g / cfg.omega, StationaryKind.MINIMUM)
    )
    points.append(StationaryPoint(1, 0.0, 0.0, StationaryKind.MINIMUM))
    points.append(StationaryPoint(2, 0.0, 0.0, StationaryKind.MINIMUM))
    return points

