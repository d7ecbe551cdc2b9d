"""End-to-end pipeline: project, build and reduce the operator, solve, group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import StateSet, reconstruct_all
from .effective import EffectivePotential, reduce_block
from .errors import NumericalError
from .model import (CouplingMatrices, ProblemSpec, block_operator,
                    project_coupling)
from .realizations import RealizationSet, group_realizations
from .spectrum import SpectrumResult, find_roots


@dataclass(frozen=True)
class PipelineResult:
    """Every stage of one solve. It holds no block operator: only the
    checks read H, and they keep it themselves (solve_with_operator)."""

    spec: ProblemSpec
    v: CouplingMatrices
    ep: EffectivePotential
    sr: SpectrumResult
    states: StateSet
    rs: RealizationSet


def _after_reduction(spec: ProblemSpec, v: CouplingMatrices, q: np.ndarray,
                     ep: EffectivePotential,
                     pr_threshold: float | None) -> PipelineResult:
    sr = find_roots(ep)
    states = reconstruct_all(sr, ep, q, spec.modes, spec.xi_grid)
    rs = group_realizations(states, pr_threshold)
    return PipelineResult(spec=spec, v=v, ep=ep, sr=sr, states=states, rs=rs)


def solve_problem(spec: ProblemSpec,
                  pr_threshold: float | None = None) -> PipelineResult:
    """Run the full chain from a problem spec to grouped realizations.

    The block operator is a temporary of the reduction: it is freed
    when reduce_block returns, before the linearization eigensolve.
    """
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    q, ep = reduce_block(block_operator(spec, v), spec.n_g,
                         float(spec.modes.eps[0]))
    return _after_reduction(spec, v, q, ep, pr_threshold)


def solve_with_operator(spec: ProblemSpec, pr_threshold: float | None = None
                        ) -> tuple[PipelineResult, np.ndarray]:
    """solve_problem, plus the block operator (model.block_operator, eta
    scale) that it reduced, read-only so the checks can share it."""
    v = project_coupling(spec.modes, spec.coupling, spec.xi_grid)
    op = block_operator(spec, v)
    op.setflags(write=False)
    q, ep = reduce_block(op, spec.n_g, float(spec.modes.eps[0]))
    return _after_reduction(spec, v, q, ep, pr_threshold), op


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
