"""Instances and checks that only the tests use.

zero_coupling_instance is the free-field instance of the zero-coupling
limit (criterion 7). ep_well_alignment is the check of criterion 9:
the well that the pole terms dig at a localized root sits under that
root's density peak.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from epbeat import (CouplingSpec, EffectivePotential, Grid, NumericalError,
                    ProblemSpec, eval_ep, gaussian_bump_basis)

WELL_RESIDUAL_TOL = 1e-7


def zero_coupling_instance() -> ProblemSpec:
    """Instance with an identically zero kernel (free fields), N_tot 3
    by N_g 6."""
    xi_grid = Grid.uniform(6, (0.0, 1.0))
    q_grid = Grid.uniform(24, (0.0, 1.0))
    basis = gaussian_bump_basis(3, q_grid, delta_eps=1.0)
    coupling = CouplingSpec(kind="gaussian_attractive", strength=0.0,
                            width=0.25)
    return ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=0.2,
                       g_potential=default_rng(0).uniform(-0.5, 0.5, 6))


@dataclass(frozen=True)
class WellAlignment:
    """Where the interaction well bottoms out vs. where the state peaks."""

    well_index: int
    density_index: int
    aligned: bool
    profile: np.ndarray


def ep_well_alignment(ep: EffectivePotential, root: float,
                      state: np.ndarray, hg_diag: np.ndarray) -> WellAlignment:
    """Check that the self-consistent well sits under the state's peak.

    The interaction profile d(xi) = V_eff(root)(xi,xi) - h_g(xi,xi),
    with hg_diag the bare grid-operator diagonal h_g(xi,xi), is the
    well the pole terms dig at this root; alignment holds when its
    argmin and the density argmax differ by at most one cell. The
    root must first solve V_eff(root) state = root state to
    WELL_RESIDUAL_TOL x span.
    """
    state = np.asarray(state, dtype=float)
    m = eval_ep(ep, root)
    resid = np.linalg.norm(m @ state - root * state)
    if resid > WELL_RESIDUAL_TOL * ep.span * max(np.linalg.norm(state), 1e-300):
        raise NumericalError(
            f"well alignment: root {root!r} fails residual check "
            f"({resid:.3e})")
    profile = m.diagonal() - hg_diag
    well = int(np.argmin(profile))
    peak = int(np.argmax(state ** 2))
    return WellAlignment(well_index=well, density_index=peak,
                         aligned=abs(well - peak) <= 1, profile=profile)
