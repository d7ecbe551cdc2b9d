"""End-to-end pipeline: project, build and reduce the operator, solve, group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import StateSet, reconstruct_all
from .blas import threads_for
from .effective import EffectivePotential, reduce_block
from .errors import NumericalError
from .model import ProblemSpec, block_operator, project_coupling
from .realizations import RealizationSet, group_realizations
from .spectrum import SpectrumResult, find_roots


@dataclass(frozen=True)
class PipelineResult:
    """Every stage of one solve. v is the projected coupling V_nn'(xi),
    project_coupling's read-only (N_tot, N_tot, N_g) array. It holds no
    block operator: the checks apply H from v and h_g, and the dense
    oracle builds its own."""

    spec: ProblemSpec
    v: np.ndarray
    ep: EffectivePotential
    sr: SpectrumResult
    states: StateSet
    rs: RealizationSet


def solve_problem(spec: ProblemSpec,
                  pr_threshold: float | None = None) -> PipelineResult:
    """Run the full chain from a problem spec to grouped realizations,
    on the BLAS threads the spec's dimension calls for (see
    blas.threads_for).

    The block operator is a temporary of the reduction: it is freed
    when reduce_block returns, before the linearization eigensolve.
    """
    with threads_for(spec.dim):
        v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
        q, ep = reduce_block(block_operator(spec, v), spec.n_g,
                             float(spec.modes.eps[0]))
        sr = find_roots(ep)
        states = reconstruct_all(sr, ep, q, spec.modes, spec.xi_grid)
        rs = group_realizations(states, pr_threshold)
    return PipelineResult(spec=spec, v=v, ep=ep, sr=sr, states=states, rs=rs)


def mean_intermediate_density(result: PipelineResult) -> np.ndarray:
    """Mean xi-density over the intermediate states (for the Born rule).

    Returned as a density with respect to the grid weights, unit
    total mass.
    """
    members = result.rs.intermediate
    if not members:
        raise NumericalError(
            "probabilities: born mode needs a nonempty intermediate "
            "realization to average over")
    w = result.spec.xi_grid.weights
    acc = np.sum(result.states.marginal_xi[list(members)] / w, axis=0)
    acc /= len(members)
    total = float(np.sum(w * acc))
    return acc / total
