"""Two-spin entanglement dynamics in a single-mode optical cavity.

Closed-form photon-sector expansion of the reduced spin density, maximum
CHSH correlation and Wootters concurrence series, a brute-force truncated
Fock-space oracle, and a CLI for sweeps and figure reproduction.
"""

__version__ = "0.1.0"

from .states import (  # noqa: F401
    BASIS_LABELS,
    CavityConfig,
    EntangledStateSpec,
    Polarization,
    SemiclassicalLevel,
    StationaryKind,
    StationaryPoint,
    density_from_pure,
    make_entangled,
    semiclassical_hamiltonian,
    semiclassical_spectrum,
    split_local_nonlocal,
    stationary_amplitudes,
)
from .correlations import (  # noqa: F401
    TSIRELSON,
    ChshQuadruple,
    MeasurementDirection,
    chsh_local_value,
    chsh_value,
    concurrence,
    correlation,
    correlation_matrix,
    local_correlation,
    max_chsh,
    max_chsh_brute,
    spin_coherent_pair,
)
from .dynamics import (  # noqa: F401
    FockTruncation,
    TruncationError,
    choose_truncation,
    reduced_densities,
    reduced_density,
    sector_amplitudes,
)
from .oracle import (  # noqa: F401
    ComparisonReport,
    Propagator,
    build_hamiltonian,
    compare_closed_form,
    coupling_hamiltonian,
    initial_joint,
    reduced_dynamics,
)
from .sweeps import (  # noqa: F401
    CorrelationSeries,
    FigurePreset,
    SweepJob,
    figure_preset,
    run_figure,
    run_sweep,
)
