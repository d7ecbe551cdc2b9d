"""Instances and checks that only the tests use.

zero_coupling_instance is the free-field instance of the zero-coupling
limit (criterion 7). ep_well_alignment is the check of criterion 9:
the well that the pole terms dig at a localized root sits under that
root's density peak. constant_ladder and closed_form_energies give an
exact spectrum at any size, past the dense oracle's cap, from code
that shares nothing with block_operator.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from epbeat import (CouplingSpec, EffectivePotential, Grid, NumericalError,
                    ProblemSpec, eval_ep, gaussian_bump_basis)
from epbeat.assembly import SCHMIDT_TOL
from epbeat.model import project_coupling
from epbeat.pipeline import PipelineResult
from epbeat.verification import max_state_residual

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


def constant_ladder(n_tot: int, n_g: int, boundary: str = "dirichlet",
                    potential: bool = True) -> dict:
    """The size ladder's config with a constant kernel and unequal
    wells (the "constant ladder"), or with no potential at all."""
    wells = {"kind": "double_well", "depth": 1, "width": 0.08,
             "centers": [0.3, 0.62], "detune": 0.2}
    return {"grid": {"n": n_g, "boundary": boundary},
            "modes": {"count": n_tot, "delta_eps": 0.7},
            "coupling": {"kind": "constant", "g": 1.0},
            "hg": {"stiffness": 0.1,
                   "potential": wells if potential else {"kind": "zero"}}}


def closed_form_energies(spec: ProblemSpec) -> np.ndarray:
    """The exact spectrum, as sorted total energies, of a problem whose
    projected coupling V(xi) is the same at every xi.

    In mode-major order H = A (x) I + I (x) h_g, with A = diag(eps -
    eps_0) + V(xi_0) in the eta scale, so its eigenvalues are the sums
    a_i + mu_k of A's and h_g's (Horn & Johnson, Topics in Matrix
    Analysis, Thm. 4.4.5): two small eigenproblems, with no n x n
    array and nothing from block_operator.
    """
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    assert (v == v[:, :, :1]).all(), "the coupling varies along xi"
    eps = spec.modes.eps
    a = np.linalg.eigvalsh(np.diag(eps - eps[0]) + v[:, :, 0])
    mu = np.linalg.eigvalsh(spec.h_g)
    return np.sort((a[:, None] + mu).ravel()) + eps[0]


def isolated_states(result: PipelineResult,
                    reference: np.ndarray) -> np.ndarray:
    """Mask of the states that lie within SCHMIDT_TOL / 2 of a product
    state.

    A state at energy E with residual r (max_state_residual, in the
    plain channel amplitudes C, where H is symmetric) is within
    sin t <= r / gap of an exact eigenvector (Davis & Kahan 1970), gap
    being E's distance to the second nearest exact eigenvalue. If
    r <= gap SCHMIDT_TOL / 2, that exact eigenvalue a_i + mu_k is
    simple, so its eigenvector is the product f_i u_k^T, and C is
    within SCHMIDT_TOL / 2 of it. schmidt_ranks weighs C by the modes'
    overlap factor R and the xi weights W, which can stretch that
    distance by at most cond(R) cond(W^1/2) (about 3,500 at 10x80);
    the second Schmidt value measured on the constant ladder stays
    below 1e-11 of the first, far inside the tolerance either way.
    """
    e = result.states.energies
    padded = np.concatenate([[-np.inf] * 2, reference, [np.inf] * 2])
    k = np.searchsorted(padded, e)
    # the two nearest exact eigenvalues lie among two on either side
    near = np.abs(padded[k[:, None] + np.arange(-2, 2)] - e[:, None])
    gap = np.sort(near, axis=1)[:, 1]
    return max_state_residual(result) <= gap * SCHMIDT_TOL / 2
