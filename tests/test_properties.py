"""Property tests over random states, fields, times and coherent phases.

Derandomized with a fixed example budget, so every run checks the same
draws and the suite stays deterministic.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_bell.correlations import TSIRELSON, concurrence, max_chsh
from cavity_bell.dynamics import reduced_density
from cavity_bell.states import CavityConfig, EntangledStateSpec, Polarization

TOL = 1e-10
ANGLE = st.floats(0.0, 2.0 * math.pi)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pol=st.sampled_from(list(Polarization)), xi=ANGLE, eta=ANGLE,
       gamma2=st.floats(0.0, 150.0), tau=st.floats(0.0, 10.0),
       phi=st.floats(-math.pi, math.pi))
def test_density_and_diagnostics_are_physical(pol, xi, eta, gamma2, tau, phi):
    cfg = CavityConfig.from_mean_photons(gamma2, phi=phi)
    rho, _ = reduced_density(EntangledStateSpec(pol, xi, eta), tau * cfg.period, cfg, tol=TOL)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert 1.0 - 2.0 * TOL - 1e-12 <= np.trace(rho).real <= 1.0 + 1e-12
    p, c = max_chsh(rho), concurrence(rho)
    assert p <= TSIRELSON + 1e-9
    assert 0.0 <= c <= 1.0
    # Verstraete-Wolf bounds tie the two diagnostics together
    assert 2.0 * math.sqrt(2.0) * c - 1e-9 <= p <= 2.0 * math.sqrt(1.0 + c * c) + 1e-9

    # phi acts as a local unitary after shifting eta by -phi (parallel family only)
    eta0 = eta - phi if pol is Polarization.PARALLEL else eta
    cfg0 = CavityConfig.from_mean_photons(gamma2)
    rho0, _ = reduced_density(EntangledStateSpec(pol, xi, eta0), tau * cfg0.period, cfg0, tol=TOL)
    assert abs(max_chsh(rho0) - p) <= 1e-9
    assert abs(concurrence(rho0) - c) <= 1e-9
