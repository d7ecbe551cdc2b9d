"""Grouping of eigenstates into realizations and probability rules.

States localized in xi (low participation ratio) are grouped by the
grid point where their density peaks - the center of reduction; the
delocalized remainder forms the intermediate (transitional)
realization through which the system passes between reductions.
Probabilities follow three rules: uniform 1/N over realizations,
grouped N_j / sum N_j by member count, and the generalized Born rule
proportional to the intermediate density's mass near each center
(nearest-center cells of the xi grid).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import StateSet, participation_ratio
from .errors import ConfigError, NumericalError
from .model import Grid

PROBABILITY_MODES = ("uniform", "grouped", "born")
# members per Gram product of realization_densities: bounds its scratch
# at GRAM_CHUNK x N_tot x N_g floats, whatever a realization's size
GRAM_CHUNK = 64


@dataclass(frozen=True)
class RealizationGroup:
    center_index: int
    center_coord: float
    members: tuple


@dataclass(frozen=True)
class RealizationSet:
    """Partition of states into regular groups plus the intermediate set.

    alphas maps probability mode -> weight tuple over the regular
    groups (or over the single intermediate realization when no state
    is localized). Instances are immutable; attaching Born weights
    returns a new instance.
    """

    groups: tuple
    intermediate: tuple
    xi_grid: Grid
    pr_threshold: float
    alphas: dict

    @property
    def n_realizations(self) -> int:
        """Regular groups, or 1 (the intermediate set) if none."""
        return len(self.groups) or 1

    @property
    def group_counts(self) -> tuple:
        return tuple(len(g.members) for g in self.groups)

    def cells(self) -> np.ndarray:
        """Nearest-center cell index of every grid point (ties go to
        the lower-index center). One cell covering everything when no
        regular group exists."""
        if not self.groups:
            return np.zeros(self.xi_grid.n, dtype=int)
        centers = np.array([g.center_coord for g in self.groups])
        dist = np.abs(self.xi_grid.points[:, None] - centers[None, :])
        return np.argmin(dist, axis=1)

    def with_born(self, intermediate_density: np.ndarray) -> "RealizationSet":
        """New set with Born-rule weights attached."""
        alpha = probabilities(self, "born", intermediate_density)
        alphas = dict(self.alphas)
        alphas["born"] = alpha
        return replace(self, alphas=alphas)

    def to_dict(self) -> dict:
        return {
            "n_realizations": self.n_realizations,
            "pr_threshold": float(self.pr_threshold),
            "groups": [
                {"center_index": g.center_index,
                 "center_coord": float(g.center_coord),
                 "members": list(g.members)} for g in self.groups],
            "intermediate": list(self.intermediate),
            "alphas": {mode: np.asarray(alpha)
                       for mode, alpha in sorted(self.alphas.items())},
        }


def default_pr_threshold(n_g: int) -> float:
    """N_g / 3, clipped into the open interval (1, N_g)."""
    return min(max(n_g / 3.0, 1.0 + 1e-6), n_g - 1e-6)


def check_pr_threshold(tau: float | None, n_g: int, field: str) -> None:
    """Refuse a localization threshold outside the open interval (1, N_g);
    None stands for default_pr_threshold(n_g), which lies inside it."""
    if tau is not None and not 1.0 < tau < n_g:
        raise ConfigError(f"{field}: must lie strictly between 1 and "
                          f"N_g={n_g}, got {tau!r}")


def group_realizations(states: StateSet,
                       pr_threshold: float | None = None) -> RealizationSet:
    """Group states by center of reduction; delocalized ones go to the
    intermediate set.

    A state is localized when the participation ratio of its xi
    marginal falls below the threshold. If nothing is localized the
    intermediate set is itself the single realization.
    """
    if not len(states):
        raise ConfigError("group_realizations: empty state list")
    xi_grid = states.xi_grid
    n_g = xi_grid.n
    check_pr_threshold(pr_threshold, n_g, "pr_threshold")
    tau = default_pr_threshold(n_g) if pr_threshold is None else float(pr_threshold)
    # normalize so grouping depends only on the density's shape,
    # invariant under any common rescaling of the amplitudes
    marginal = states.marginal_xi / states.marginal_xi.sum(axis=1,
                                                           keepdims=True)
    localized = participation_ratio(marginal) < tau
    centers = np.argmax(marginal, axis=1)
    groups = tuple(
        RealizationGroup(center_index=int(c),
                         center_coord=float(xi_grid.points[c]),
                         members=tuple(np.flatnonzero(
                             localized & (centers == c)).tolist()))
        for c in sorted(set(centers[localized].tolist())))
    intermediate = tuple(np.flatnonzero(~localized).tolist())
    alphas = {}  # filled from the set's groups before it is returned
    rs = RealizationSet(groups=groups, intermediate=intermediate,
                        xi_grid=xi_grid, pr_threshold=tau, alphas=alphas)
    for mode in ("uniform", "grouped"):
        alphas[mode] = probabilities(rs, mode)
    return rs


def _cell_masses(rs: RealizationSet, values: np.ndarray) -> np.ndarray:
    """Quadrature mass of a xi-density inside each center's cell."""
    cells = rs.cells()
    w = rs.xi_grid.weights
    n_cells = len(rs.groups) if rs.groups else 1
    masses = np.zeros(n_cells)
    np.add.at(masses, cells, w * values)
    return masses


def probabilities(rs: RealizationSet, mode: str,
                  intermediate_density: np.ndarray | None = None) -> tuple:
    """Realization weights under one of the three rules.

    uniform: alpha_j = 1/N over the regular groups. grouped:
    alpha_j = N_j / sum N_j by member count. born: alpha_j
    proportional to the cell mass of the supplied intermediate density
    (a density over xi, integrated with the grid weights).
    """
    if mode not in PROBABILITY_MODES:
        raise ConfigError(f"prob_mode: unknown mode {mode!r}")
    n_groups = len(rs.groups)
    if n_groups == 0:
        return (1.0,)
    if mode == "uniform":
        return tuple(1.0 / n_groups for _ in range(n_groups))
    if mode == "grouped":
        counts = np.array(rs.group_counts, dtype=float)
        return tuple(counts / counts.sum())
    if intermediate_density is None:
        raise ConfigError("probabilities: born mode requires a density")
    values = np.asarray(intermediate_density, dtype=float)
    if values.shape != (rs.xi_grid.n,):
        raise ConfigError("probabilities: density length must equal grid size")
    if np.any(values < -1e-12):
        raise ConfigError("probabilities: density must be nonnegative")
    masses = _cell_masses(rs, values)
    total = masses.sum()
    if total <= 0:
        raise NumericalError("probabilities: intermediate density has no mass")
    return tuple(masses / total)


def mix_density(rs: RealizationSet, group_densities,
                mode: str) -> np.ndarray:
    """Expectation density: alpha-weighted mean of group densities.

    group_densities are the per-realization means of
    realization_densities; the intermediate set never enters the
    regular mixture. Requires the weights for the requested mode to be
    attached to the set.
    """
    if mode not in rs.alphas:
        raise ConfigError(
            f"mix_density: probabilities not computed for mode {mode!r}")
    rho = np.zeros_like(group_densities[0])
    for a, rho_j in zip(rs.alphas[mode], group_densities):
        rho += a * rho_j
    return rho


def realization_densities(rs: RealizationSet, states: StateSet) -> tuple:
    """Mean density rho(q, xi) = |Psi|^2 per realization, in group order.

    The mean of the members' quadratic forms is the quadratic form of
    their summed Gram matrix: with the channel Gram block
    G_j(xi) = sum_{i in I_j} c_i(xi) c_i(xi)^T of each xi cell,
    rho_j(q, xi) = phi(q)^T G_j(xi) phi(q) / |I_j|, so no member state
    is painted onto the q grid. Members are gathered GRAM_CHUNK at a
    time. rho is a density with respect to the quadrature measure.
    Falls back to the intermediate members when no regular group
    exists (the intermediate is then the single realization).
    """
    member_sets = [g.members for g in rs.groups] if rs.groups \
        else [rs.intermediate]
    phi = states.basis.phi
    _, n_modes, n_g = states.channels.shape
    out = []
    for members in member_sets:
        gram = np.zeros((n_g, n_modes, n_modes))
        for start in range(0, len(members), GRAM_CHUNK):
            chunk = states.channels[list(members[start:start + GRAM_CHUNK])]
            cells = np.ascontiguousarray(chunk.transpose(2, 0, 1))
            gram += cells.transpose(0, 2, 1) @ cells
        g_phi = (gram.reshape(-1, n_modes) @ phi).reshape(n_g, n_modes, -1)
        out.append(np.sum(g_phi * phi, axis=1).T / len(members))
    return tuple(out)
