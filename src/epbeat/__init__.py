"""Effective-potential workbench for two coupled fields.

Builds a discretized two-field problem, projects the coupling onto
coupled channels, assembles the energy-dependent effective potential,
enumerates every root of its rational characteristic function,
reconstructs the entangled compound states, groups them into
realizations with the three probability rules, and simulates the
chaotic realization-switching beat process.
"""

__version__ = "0.1.0"

from .blas import loading_openblas

with loading_openblas():  # model imports numpy first
    from .model import (Grid, ModeBasis, CouplingSpec, ProblemSpec,
                        block_operator, build_problem, hamiltonian_g,
                        gaussian_bump_basis, project_coupling)
from .truncated import diagonalize_sym
from .effective import (EffectivePotential, eval_ep, characteristic,
                        root_count_below, recurse_ep, ep_from_poles,
                        reduce_block)
from .spectrum import (SpectrumResult, linearize_ep, find_roots,
                       count_accounting)
from .assembly import (StateSet, reconstruct_all, participation_ratio,
                       schmidt_ranks, complexity_measure)
from .realizations import (RealizationSet, RealizationGroup,
                           group_realizations, probabilities, mix_density,
                           realization_densities, default_pr_threshold)
from .beat import BeatTrajectory, simulate_beat, empirical_freqs
from .oracle import (ComparisonReport, compare_spectra, direct_energies,
                     direct_spectrum)
from .pipeline import PipelineResult, solve_problem, mean_intermediate_density
from .errors import ConfigError, NumericalError, PoleProximityError

__all__ = [
    "Grid", "ModeBasis", "CouplingSpec", "ProblemSpec", "block_operator",
    "build_problem", "hamiltonian_g", "gaussian_bump_basis",
    "project_coupling",
    "diagonalize_sym",
    "EffectivePotential", "eval_ep", "characteristic", "root_count_below",
    "recurse_ep", "ep_from_poles", "reduce_block",
    "SpectrumResult", "linearize_ep", "find_roots", "count_accounting",
    "StateSet", "reconstruct_all", "participation_ratio", "schmidt_ranks",
    "complexity_measure",
    "RealizationSet", "RealizationGroup",
    "group_realizations", "probabilities", "mix_density",
    "realization_densities", "default_pr_threshold",
    "BeatTrajectory", "simulate_beat", "empirical_freqs",
    "ComparisonReport", "direct_spectrum", "direct_energies",
    "compare_spectra",
    "PipelineResult", "solve_problem", "mean_intermediate_density",
    "ConfigError", "NumericalError", "PoleProximityError",
]
