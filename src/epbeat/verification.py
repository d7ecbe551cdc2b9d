"""Instance generators and the verification battery behind `verify`.

Random instances cover N_tot in {2..5}, N_g in {2..8}; the battery
checks, per instance, that the effective-potential route reproduces
the direct dense spectrum, that the root count obeys the rank
accounting, and that every reconstructed state satisfies the full
coupled operator to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .model import (CouplingSpec, Grid, ProblemSpec, gaussian_bump_basis,
                    given_mode_basis)
from .oracle import compare_spectra, direct_energies
from .pipeline import PipelineResult, solve_with_operator

EP_EXACTNESS_TOL = 1e-7
STATE_RESIDUAL_TOL = 1e-6


def random_instance(seed: int) -> ProblemSpec:
    """Deterministic random problem keyed by seed.

    Smooth gaussian coupling of moderate strength over bump modes;
    boundary, sizes, stiffness, and potential samples all drawn from
    one seeded generator.
    """
    gen = default_rng(seed)
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


def _bump(xi: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-((xi - center) ** 2) / (2 * width ** 2))


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
    basis = given_mode_basis([0.0, 0.25], phi, q_grid)
    xi = xi_grid.points
    c1 = float(xi[TWO_WELL_CENTERS[0]])
    c2 = float(xi[TWO_WELL_CENTERS[1]])
    v00 = -6.0 * (_bump(xi, c1, 0.05) + 0.892 * _bump(xi, c2, 0.05))
    v11 = -(6.1 * _bump(xi, c1, 0.15) + 5.1 * _bump(xi, c2, 0.15))
    v01 = -0.9 * np.ones(n_g)
    # kernel -(a + b cos(pi q) + c cos(2 pi q)) projects onto the pair as
    # V_00 = -a, V_01 = -b/sqrt(2), V_11 = -a - c/2
    a, b, c = -v00, -np.sqrt(2.0) * v01, 2.0 * (v00 - v11)
    samples = (-a[None, :] - np.cos(np.pi * q)[:, None] * b[None, :]
               - np.cos(2 * np.pi * q)[:, None] * c[None, :])
    coupling = CouplingSpec(kind="custom_sampled", samples=samples)
    return ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=0.02, g_potential=np.zeros(n_g))


def single_well_instance() -> ProblemSpec:
    """Attractive instance with one dominant interaction well."""
    xi_grid = Grid.uniform(9, (0.0, 1.0))
    q_grid = Grid.uniform(32, (0.0, 1.0))
    basis = gaussian_bump_basis(2, q_grid, delta_eps=0.6)
    xi = xi_grid.points
    q = q_grid.points
    envelope = _bump(xi, 0.5, 0.08)
    radial = np.exp(-((q[:, None] - xi[None, :]) ** 2) / (2 * 0.35 ** 2))
    samples = -5.0 * radial * envelope[None, :]
    coupling = CouplingSpec(kind="custom_sampled", samples=samples)
    return ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=0.02, g_potential=np.zeros(9))


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
class InstanceCheck:
    seed: int
    n_tot: int
    n_g: int
    exactness_pass: bool
    max_rel_dev: float
    accounting_pass: bool
    n_roots: int
    rank_accounting: int
    state_residual_max: float
    residual_pass: bool
    realizations_bounded: bool

    @property
    def passed(self) -> bool:
        return (self.exactness_pass and self.accounting_pass
                and self.residual_pass and self.realizations_bounded)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "n_tot": self.n_tot, "n_g": self.n_g,
            "exactness_pass": self.exactness_pass,
            "max_rel_dev": float(self.max_rel_dev),
            "accounting_pass": self.accounting_pass,
            "n_roots": self.n_roots,
            "rank_accounting": self.rank_accounting,
            "state_residual_max": float(self.state_residual_max),
            "residual_pass": self.residual_pass,
            "realizations_bounded": self.realizations_bounded,
            "passed": self.passed,
        }


def recovered_spectrum(result: PipelineResult) -> np.ndarray:
    """Every eigenvalue the EP route accounts for, as total energies:
    the certified roots plus the decoupled poles."""
    return result.sr.eigenvalues() + result.ep.eps0


def max_state_residual(result: PipelineResult, h: np.ndarray) -> float:
    """Worst ||(H - eta_i) Psi_i|| over unit channel vectors.

    h is the block operator the solve reduced, in the eta scale
    (solve_with_operator), eta_i = E_i - eps_0; all states go through
    one product H C^T - C^T diag(eta).
    """
    states = result.states
    c = states.channels.reshape(len(states), -1).T
    c = c / np.linalg.norm(c, axis=0)
    eta = states.energies - result.spec.modes.eps[0]
    return float(np.linalg.norm(h @ c - c * eta, axis=0).max(initial=0.0))


def check_instance(seed: int,
                   spec: ProblemSpec | None = None) -> InstanceCheck:
    """Run the full battery on one instance."""
    if spec is None:
        spec = random_instance(seed)
    result, h = solve_with_operator(spec)
    energies = direct_energies(spec, h)
    report = compare_spectra(recovered_spectrum(result), energies,
                             EP_EXACTNESS_TOL)
    counts = result.sr.counts
    rank_accounting = counts.n_g + counts.rank_sum
    resid = max_state_residual(result, h)
    return InstanceCheck(
        seed=seed, n_tot=spec.n_tot, n_g=spec.n_g,
        exactness_pass=report.passed, max_rel_dev=report.max_rel_dev,
        accounting_pass=counts.n_roots == rank_accounting,
        n_roots=counts.n_roots, rank_accounting=rank_accounting,
        state_residual_max=resid,
        residual_pass=resid <= STATE_RESIDUAL_TOL,
        realizations_bounded=result.rs.n_realizations <= spec.n_g)


def run_battery(n_instances: int = 100, seed0: int = 0) -> dict:
    """Batch verification over seeded random instances."""
    checks = [check_instance(seed0 + k) for k in range(n_instances)]
    return {
        "n_instances": n_instances,
        "all_passed": all(c.passed for c in checks),
        "exactness_failures": [c.seed for c in checks if not c.exactness_pass],
        "accounting_failures": [c.seed for c in checks
                                if not c.accounting_pass],
        "residual_failures": [c.seed for c in checks if not c.residual_pass],
        # np.max keeps a NaN deviation; Python's max drops it unless first
        "worst_rel_dev": float(np.max([c.max_rel_dev for c in checks])),
        "worst_state_residual": float(
            np.max([c.state_residual_max for c in checks])),
        "instances": [c.to_dict() for c in checks],
    }
