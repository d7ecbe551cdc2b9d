"""Instance generators and the verification battery behind `verify`.

Random instances cover N_tot in {2..5}, N_g in {2..8}, drawn from
rng.PCG64, a bit-exact copy of numpy.random.default_rng's stream, so
the battery's instances are numpy's without importing numpy.random.
The battery checks, per instance, that the effective-potential route
reproduces the direct dense spectrum, that the root count obeys the
rank accounting, and that every reconstructed state satisfies the
full coupled operator, applied from its factors and not from the
block operator that the reduction and the oracle read, to tolerance.
`verify` runs its configured instance through the same check_instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import threads_for
from .effective import reduce_block
from .model import (CouplingSpec, Grid, ModeBasis, ProblemSpec,
                    block_operator, gaussian, gaussian_bump_basis)
from .oracle import (ComparisonReport, check_dimension, compare_spectra,
                     direct_energies)
from .pipeline import PipelineResult, solve_problem
from .rng import PCG64
from .spectrum import count_accounting, find_roots

STATE_RESIDUAL_TOL = 1e-6


def random_instance(seed: int) -> ProblemSpec:
    """Deterministic random problem keyed by seed.

    Smooth gaussian coupling of moderate strength over bump modes;
    boundary, sizes, stiffness, and potential samples all drawn from
    one seeded generator, rng.PCG64: numpy.random.default_rng(seed)'s
    stream, so the instances are the ones numpy draws for the seed.
    """
    gen = PCG64(seed)
    n_tot = int(gen.integers(2, 6))
    n_g = int(gen.integers(2, 9))
    boundary = "periodic" if gen.random() < 0.3 else "dirichlet"
    xi_grid = Grid.uniform(n_g, (0.0, 1.0), boundary)
    q_grid = Grid.uniform(24, (0.0, 1.0))
    basis = gaussian_bump_basis(n_tot, q_grid,
                                delta_eps=float(gen.uniform(0.4, 1.5)))
    coupling = CouplingSpec(kind="gaussian_attractive",
                            strength=float(gen.uniform(0.3, 1.5)),
                            width=float(gen.uniform(0.12, 0.45)))
    return ProblemSpec(
        xi_grid=xi_grid, modes=basis, coupling=coupling,
        g_stiffness=float(gen.uniform(0.05, 0.5)),
        g_potential=gen.uniform(-1.0, 1.0, n_g))


TWO_WELL_CENTERS = (2, 6)  # grid cells hosting the interaction wells


def two_well_instance() -> ProblemSpec:
    """Strong-coupling instance whose interaction digs two wells.

    Built in matrix-element space over a cosine mode pair (the kernel
    is synthesized from three cosine components, which controls
    V_00, V_11, and V_01 independently): channel 0 sees two sharp
    attraction centers of slightly different depth at cells 2 and 6,
    channel 1 sees wide wells whose pole ladders interleave the two
    low roots. That interleaving makes each localized root resonate
    with its own well's poles, so the profile minimum tracks the
    state: the dynamically produced well sits under the density peak,
    and is even repulsive near the opposite center.
    """
    n_g = 9
    xi_grid = Grid.uniform(n_g, (0.0, 1.0))
    q_grid = Grid.uniform(48, (0.0, 1.0))
    q = q_grid.points
    phi = np.array([np.ones_like(q), np.cos(np.pi * q)])
    basis = ModeBasis([0.0, 0.25], phi, q_grid)
    xi = xi_grid.points
    c1 = float(xi[TWO_WELL_CENTERS[0]])
    c2 = float(xi[TWO_WELL_CENTERS[1]])
    v00 = -6.0 * (gaussian(xi, c1, 0.05) + 0.892 * gaussian(xi, c2, 0.05))
    v11 = -(6.1 * gaussian(xi, c1, 0.15) + 5.1 * gaussian(xi, c2, 0.15))
    v01 = -0.9 * np.ones(n_g)
    # kernel -(a + b cos(pi q) + c cos(2 pi q)) projects onto the pair as
    # V_00 = -a, V_01 = -b/sqrt(2), V_11 = -a - c/2
    a, b, c = -v00, -np.sqrt(2.0) * v01, 2.0 * (v00 - v11)
    samples = (-a[None, :] - np.cos(np.pi * q)[:, None] * b[None, :]
               - np.cos(2 * np.pi * q)[:, None] * c[None, :])
    coupling = CouplingSpec(kind="custom_sampled", samples=samples)
    return ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=0.02, g_potential=np.zeros(n_g))


@dataclass(frozen=True)
class InstanceCheck:
    """The battery's verdicts on one instance, with what they read:
    the solve, the dense oracle's energies (ascending, from its own
    operator) and the comparison of the two, count_accounting, and
    max_state_residual (H applied from its factors)."""

    seed: int
    result: PipelineResult
    energies: np.ndarray
    exactness: ComparisonReport
    accounting: dict
    state_residual_max: float

    @property
    def residual_pass(self) -> bool:
        return self.state_residual_max <= STATE_RESIDUAL_TOL

    @property
    def realizations_bounded(self) -> bool:
        return self.result.rs.n_realizations <= self.result.spec.n_g

    @property
    def passed(self) -> bool:
        return (self.exactness.passed
                and self.accounting["measured_equals_rank_accounting"]
                and self.residual_pass and self.realizations_bounded)

    def to_dict(self) -> dict:
        spec, acc = self.result.spec, self.accounting
        return {
            "seed": self.seed, "n_tot": spec.n_tot, "n_g": spec.n_g,
            "exactness_pass": self.exactness.passed,
            "max_rel_dev": float(self.exactness.max_rel_dev),
            "accounting_pass": acc["measured_equals_rank_accounting"],
            "n_roots": acc["measured_roots"],
            "rank_accounting": acc["rank_accounting"],
            "state_residual_max": float(self.state_residual_max),
            "residual_pass": self.residual_pass,
            "realizations_bounded": self.realizations_bounded,
            "passed": self.passed,
        }


def recovered_spectrum(result: PipelineResult) -> np.ndarray:
    """Every eigenvalue the EP route accounts for, as total energies:
    the certified roots plus the decoupled poles."""
    return result.sr.eigenvalues() + result.ep.eps0


def max_state_residual(result: PipelineResult) -> float:
    """Worst ||(H - eta_i) Psi_i|| / ||Psi_i|| over the states, in the
    eta scale, eta_i = E_i - eps_0.

    H is applied from its factors to each state C (N_tot x N_g):
    H C = C h_g + (eps - eps_0) C + V(xi) C, the last term a per-cell
    contraction over modes. No n x n array is formed.
    """
    spec, states = result.spec, result.states
    eps, c = spec.modes.eps, states.channels
    eta = states.energies - eps[0]
    hc = c @ spec.h_g + np.einsum("nmx,kmx->knx", result.v, c)
    hc += ((eps - eps[0])[:, None] - eta[:, None, None]) * c
    # per-state Frobenius norms, as np.linalg.norm(., axis=(1, 2)) sums them
    resid = (np.sqrt((hc * hc).sum(axis=(1, 2)))
             / np.sqrt((c * c).sum(axis=(1, 2))))
    return float(resid.max(initial=0.0))


def check_instance(seed: int, spec: ProblemSpec | None = None,
                   pr_threshold: float | None = None) -> InstanceCheck:
    """Run the full battery on one instance (random_instance(seed)
    unless spec is given). Refuses past oracle.DIMENSION_CAP before it
    solves, then solves, checks and scores on the BLAS threads the
    instance's own dimension calls for: a small battery instance runs
    on one thread even when verify's configured instance is large."""
    if spec is None:
        spec = random_instance(seed)
    check_dimension("verify", spec)
    with threads_for(spec.dim):
        result = solve_problem(spec, pr_threshold)
        energies = direct_energies(spec, result.v)
        return InstanceCheck(
            seed=seed, result=result, energies=energies,
            exactness=compare_spectra(recovered_spectrum(result), energies),
            accounting=count_accounting(result.ep, result.sr),
            state_residual_max=max_state_residual(result))


def per_block_reading(check: InstanceCheck) -> dict:
    """The same reduction under the per-block reading of the truncated
    sector: the cross couplings V_nm, n != m >= 1, zeroed. Exact when
    they vanish, an approximation otherwise; scored against the dense
    energies of the coupled operator the check already holds."""
    result = check.result
    spec = result.spec
    v = result.v.copy()
    cross = ~np.eye(spec.n_tot, dtype=bool)
    cross[0, :] = cross[:, 0] = False
    v[cross] = 0.0
    _, ep = reduce_block(block_operator(spec, v), spec.n_g, result.ep.eps0)
    energies = np.sort(find_roots(ep).energies)
    report = compare_spectra(energies, check.energies)
    return {
        "n_roots": int(energies.size),
        "max_rel_dev_vs_direct": report.max_rel_dev
        if energies.size == check.energies.size else None,
    }


def run_battery(n_instances: int = 100, seed0: int = 0) -> dict:
    """Batch verification over seeded random instances, each through
    check_instance. Every instance is drawn before the first solve
    (drawing each just before its solve costs about 10% more per
    battery). Each check is kept as its to_dict, so no solve outlives
    its instance."""
    specs = [random_instance(seed0 + k) for k in range(n_instances)]
    rows = [check_instance(seed0 + k, spec).to_dict()
            for k, spec in enumerate(specs)]
    return {
        "n_instances": n_instances,
        "all_passed": all(r["passed"] for r in rows),
        "exactness_failures": [r["seed"] for r in rows
                               if not r["exactness_pass"]],
        "accounting_failures": [r["seed"] for r in rows
                                if not r["accounting_pass"]],
        "residual_failures": [r["seed"] for r in rows
                              if not r["residual_pass"]],
        # np.max keeps a NaN deviation; Python's max drops it unless first
        "worst_rel_dev": float(np.max([r["max_rel_dev"] for r in rows])),
        "worst_state_residual": float(
            np.max([r["state_residual_max"] for r in rows])),
        "instances": rows,
    }
