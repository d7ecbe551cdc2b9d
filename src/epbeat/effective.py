"""The block reduction and evaluation of the effective potential.

Eliminating the truncated sector from the block operator

    [[h0, B], [B^T, L]]

leaves an N_g x N_g operator h0 + B (eta I - L)^{-1} B^T acting on the
mode-0 channel alone. With L = Q diag(p) Q^T this is a static part
plus rank-1 pole terms,

    V_eff(eta) = h0 + sum_k w_k w_k^T / (eta - p_k),   w_k = B q_k,

so the compound eigenvalues are the roots of the characteristic
function F(eta) = det[V_eff(eta) - eta I]. reduce_block performs this
elimination on slices of one operator, and ep_from_poles is the one
constructor of the potential: poles closer than a merge tolerance are
combined, their residues summed into a single block of rank >= 1. The
hierarchy applies the same reduction again to L, whose lowest block
plays the mode-0 role at level 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import ldl

from .errors import ConfigError, NumericalError, PoleProximityError
from .model import (CouplingMatrices, ProblemSpec, block_operator,
                    hamiltonian_g)
from .truncated import TruncatedSolution, diagonalize_sym

POLE_MERGE_FACTOR = 1e-8
POLE_GUARD_FACTOR = 1e-9
RESIDUE_RANK_TOL = 1e-10
DECOUPLED_FACTOR = 1e-13
WELL_RESIDUAL_TOL = 1e-7


def _gershgorin_bounds(m: np.ndarray) -> tuple[float, float]:
    radius = np.sum(np.abs(m), axis=1) - np.abs(np.diagonal(m))
    return (float(np.min(np.diagonal(m) - radius)),
            float(np.max(np.diagonal(m) + radius)))


@dataclass(frozen=True)
class EffectivePotential:
    """Static part plus pole/residue-factor terms of V_eff(eta).

    residue_factors[k] is an (N_g, r_k) matrix W_k with
    R_k = W_k W_k^T; r_k = 1 for simple poles, larger after merging.
    raw_pole_count is the pole count before merging and n_channels the
    number of eliminated channels, both kept for count accounting.
    hg_diag is the bare grid-operator diagonal, needed to isolate the
    interaction well profile; eps0 converts roots to total energies.
    """

    h0: np.ndarray
    poles: np.ndarray
    residue_factors: tuple
    raw_pole_count: int
    n_channels: int
    hg_diag: np.ndarray
    eps0: float = 0.0

    @property
    def n_g(self) -> int:
        return self.h0.shape[0]

    @property
    def span(self) -> float:
        """Spectral span estimate used to scale pole guards."""
        lo, hi = _gershgorin_bounds(self.h0)
        if self.poles.size:
            lo = min(lo, float(self.poles[0]))
            hi = max(hi, float(self.poles[-1]))
        return max(hi - lo, 1.0)

    @property
    def pole_guard(self) -> float:
        return POLE_GUARD_FACTOR * self.span

    def ranks(self) -> np.ndarray:
        return np.array([w.shape[1] for w in self.residue_factors], dtype=int)

    def residue_matrix(self, k: int) -> np.ndarray:
        w = self.residue_factors[k]
        return w @ w.T

    def to_dict(self) -> dict:
        """JSON-ready dump of poles and residue factors."""
        return {
            "poles": [float(p) for p in self.poles],
            "ranks": [int(r) for r in self.ranks()],
            "residue_factors": [[[float(x) for x in row] for row in w]
                                for w in self.residue_factors],
            "raw_pole_count": self.raw_pole_count,
            "n_channels": self.n_channels,
            "eps0": float(self.eps0),
        }


def _merge_poles(poles: np.ndarray, vectors: np.ndarray, tol: float,
                 n_g: int) -> tuple[np.ndarray, tuple]:
    """Cluster poles within tol and sum their rank-1 residues.

    Returns sorted distinct pole values and per-pole residue factors;
    a merged cluster's factor comes from the eigendecomposition of the
    summed residue matrix, truncated at the numerical rank.
    """
    order = np.argsort(poles, kind="stable")
    poles = poles[order]
    vectors = vectors[:, order]
    merged_poles = []
    factors = []
    start = 0
    while start < poles.size:
        stop = start + 1
        while stop < poles.size and poles[stop] - poles[stop - 1] <= tol:
            stop += 1
        cluster = vectors[:, start:stop]
        if stop - start == 1:
            factor = cluster
        else:
            r = cluster @ cluster.T
            vals, vecs = np.linalg.eigh(r)
            keep = vals > RESIDUE_RANK_TOL * max(vals[-1], 0.0)
            if not np.any(keep):
                factor = np.zeros((n_g, 1))
            else:
                factor = vecs[:, keep] * np.sqrt(vals[keep])
        merged_poles.append(float(np.mean(poles[start:stop])))
        factors.append(factor)
        start = stop
    return np.asarray(merged_poles), tuple(factors)


def ep_from_poles(h0: np.ndarray, poles, residue_vectors, n_channels: int,
                  hg_diag=None, eps0: float = 0.0) -> EffectivePotential:
    """Effective potential from explicit poles and rank-1 residue vectors.

    The one constructor: reduce_block feeds it the eliminated block's
    eigenvalues and B q_k, tests feed it hand-built poles. Replicated
    pole values merge into higher-rank residues, which is the route to
    synthetic full-degree instances.
    """
    h0 = np.array(h0, dtype=float, ndmin=2)
    poles = np.asarray(poles, dtype=float)
    vectors = np.asarray(residue_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape != (h0.shape[0], poles.size):
        raise ConfigError("residue_vectors: shape must be (n_g, n_poles)")
    lo, hi = _gershgorin_bounds(h0)
    if poles.size:
        lo, hi = min(lo, poles.min()), max(hi, poles.max())
    merge_tol = POLE_MERGE_FACTOR * max(hi - lo, 1.0)
    merged, factors = _merge_poles(poles, vectors, merge_tol, h0.shape[0])
    if hg_diag is None:
        hg_diag = np.zeros(h0.shape[0])
    return EffectivePotential(
        h0=h0, poles=merged, residue_factors=factors,
        raw_pole_count=int(poles.size), n_channels=n_channels,
        hg_diag=np.asarray(hg_diag, dtype=float), eps0=float(eps0))


def reduce_block(op: np.ndarray, n_g: int, hg_diag: np.ndarray,
                 eps0: float) -> tuple[TruncatedSolution, EffectivePotential]:
    """Eliminate everything past the first n_g rows of a block operator.

    Diagonalizes L = op[n_g:, n_g:] and carries B = op[:n_g, n_g:] into
    the residue vectors B q_k of the potential on h0 = op[:n_g, :n_g].
    Both hierarchy levels and the pipeline use this one reduction.
    """
    sub = op[n_g:, n_g:]
    vals, vecs = diagonalize_sym(sub)
    resid = float(np.max(np.linalg.norm(sub @ vecs - vecs * vals, axis=0)))
    trunc = TruncatedSolution(dim=sub.shape[0], eigvals=vals, eigvecs=vecs,
                              residual_bound=resid)
    ep = ep_from_poles(op[:n_g, :n_g], vals, op[:n_g, n_g:] @ vecs,
                       n_channels=op.shape[0] // n_g - 1,
                       hg_diag=hg_diag, eps0=eps0)
    return trunc, ep


def eval_ep(ep: EffectivePotential, eta: float) -> np.ndarray:
    """V_eff at a given eta: h0 + sum_k W_k W_k^T / (eta - p_k).

    Raises PoleProximityError within the pole guard of any pole.
    """
    if ep.poles.size:
        gap = np.min(np.abs(eta - ep.poles))
        if gap <= ep.pole_guard:
            raise PoleProximityError(
                f"eta={eta!r} is within {ep.pole_guard:.3e} of a pole")
    out = ep.h0.copy()
    for p, w in zip(ep.poles, ep.residue_factors):
        out += (w @ w.T) / (eta - p)
    return 0.5 * (out + out.T)


def characteristic(ep: EffectivePotential, eta: float) -> float:
    """F(eta) = det[V_eff(eta) - eta I] via symmetric LDL^T factorization.

    The determinant is the product of the 1x1 and 2x2 pivot blocks, so
    its sign survives even when the magnitude is extreme.
    """
    m = eval_ep(ep, eta) - eta * np.eye(ep.n_g)
    if ep.n_g == 1:
        return float(m[0, 0])
    _, d, _ = ldl(m)
    det = 1.0
    i = 0
    n = d.shape[0]
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            det *= d[i, i] * d[i + 1, i + 1] - d[i, i + 1] * d[i + 1, i]
            i += 2
        else:
            det *= d[i, i]
            i += 1
    return float(det)


@dataclass(frozen=True)
class WellAlignment:
    """Where the interaction well bottoms out vs. where the state peaks."""

    well_index: int
    density_index: int
    aligned: bool
    profile: np.ndarray


def ep_well_alignment(ep: EffectivePotential, root: float,
                      state: np.ndarray) -> WellAlignment:
    """Check that the self-consistent well sits under the state's peak.

    The interaction profile d(xi) = V_eff(root)(xi,xi) - h_g(xi,xi)
    is the well the pole terms dig at this root; alignment holds when
    its argmin and the density argmax differ by at most one cell.
    """
    state = np.asarray(state, dtype=float)
    m = eval_ep(ep, root)
    resid = np.linalg.norm(m @ state - root * state)
    if resid > WELL_RESIDUAL_TOL * ep.span * max(np.linalg.norm(state), 1e-300):
        raise NumericalError(
            f"well alignment: root {root!r} fails residual check "
            f"({resid:.3e})")
    profile = m.diagonal() - ep.hg_diag
    well = int(np.argmin(profile))
    peak = int(np.argmax(state ** 2))
    return WellAlignment(well_index=well, density_index=peak,
                         aligned=abs(well - peak) <= 1, profile=profile)


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the recursive construction."""

    depth: int
    ep: EffectivePotential
    operator: np.ndarray  # the block problem this level reduces


def recurse_ep(spec: ProblemSpec, v: CouplingMatrices,
               depth: int) -> tuple[HierarchyLevel, ...]:
    """Recursive effective potentials down the truncation hierarchy.

    Depth 1 reduces the full problem onto mode 0. Depth 2 applies the
    same reduction to the truncated operator L, whose lowest block
    plays the mode-0 role; the level-2 roots then recover L's spectrum.
    """
    if depth not in (1, 2):
        raise ConfigError(f"depth unsupported: {depth} (must be 1 or 2)")
    if depth == 2 and spec.n_tot < 3:
        raise ConfigError(
            "depth 2 needs N_tot >= 3: the truncated sector must have "
            "a separable lowest block")
    n_g = spec.n_g
    hg_diag = hamiltonian_g(spec).diagonal().copy()
    op = block_operator(spec, v)
    levels = []
    for level in range(1, depth + 1):
        _, ep = reduce_block(op, n_g, hg_diag, float(spec.modes.eps[0]))
        levels.append(HierarchyLevel(depth=level, ep=ep, operator=op))
        op = op[n_g:, n_g:]
    return tuple(levels)
