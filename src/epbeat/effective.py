"""The block reduction, and the one tolerance policy of the roots.

Eliminating the truncated sector from the block operator

    [[h0, B], [B^T, L]]

leaves an N_g x N_g operator h0 + B (eta I - L)^{-1} B^T acting on the
mode-0 channel alone. With L = Q diag(p) Q^T this is a static part
plus rank-1 pole terms,

    V_eff(eta) = h0 + sum_k w_k w_k^T / (eta - p_k),   w_k = B q_k,

so the compound eigenvalues are the roots of the characteristic
function F(eta) = det[V_eff(eta) - eta I]. reduce_block performs this
elimination on slices of one operator, and ep_from_poles is the one
constructor of the potential. It computes the potential's span once
and is the only code that decides a residue's rank: poles closer than
POLE_MERGE_FACTOR x span are combined, their residues summed into one
block truncated at RESIDUE_RANK_TOL, and a pole whose residue is below
DECOUPLED_FACTOR against the strongest keeps rank 0. The factors it
stores are exactly the columns of the linearization, so the ranks are
the rank accounting. The hierarchy applies the same reduction again
to L, whose lowest block plays the mode-0 role at level 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import ldl

from .errors import ConfigError, NumericalError, PoleProximityError
from .model import (CouplingMatrices, ProblemSpec, block_operator,
                    hamiltonian_g)
from .truncated import TruncatedSolution, diagonalize_sym

POLE_MERGE_FACTOR = 1e-8   # poles within this x span are one pole
RESIDUE_RANK_TOL = 1e-10   # merged-residue eigenvalues kept, vs the largest
DECOUPLED_FACTOR = 1e-13   # residue leads below this x the strongest: rank 0
# Within rounding of a pole, eta - p_k has no significant digits.
POLE_GUARD_FACTOR = float(np.finfo(float).eps)
WELL_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class EffectivePotential:
    """Static part plus pole/residue-factor terms of V_eff(eta).

    residue_factors[k] is an (N_g, r_k) matrix W_k with R_k = W_k W_k^T
    and r_k its numerical rank: 1 for a simple pole, larger after
    merging, 0 for a decoupled pole. raw_pole_count is the pole count
    before merging and n_channels the number of eliminated channels,
    both kept for count accounting. span bounds the spectrum of h0 and
    the poles; every root tolerance scales with it. hg_diag is the bare
    grid-operator diagonal, needed to isolate the interaction well
    profile; eps0 converts roots to total energies.
    """

    h0: np.ndarray
    poles: np.ndarray
    residue_factors: tuple
    raw_pole_count: int
    n_channels: int
    span: float
    hg_diag: np.ndarray
    eps0: float = 0.0

    @property
    def n_g(self) -> int:
        return self.h0.shape[0]

    def ranks(self) -> np.ndarray:
        return np.array([w.shape[1] for w in self.residue_factors], dtype=int)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every residue-factor column side by side, W (N_g, sum r_k),
        and the pole of each column."""
        w_all = np.hstack((np.zeros((self.n_g, 0)),) + self.residue_factors)
        return w_all, np.repeat(self.poles, self.ranks())

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


def _merge_poles(poles: np.ndarray, vectors: np.ndarray,
                 tol: float) -> tuple[np.ndarray, tuple]:
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
            vals, vecs = np.linalg.eigh(cluster @ cluster.T)
            keep = vals > RESIDUE_RANK_TOL * max(vals[-1], 0.0)
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
    synthetic full-degree instances; decoupled poles keep no column.
    """
    h0 = np.array(h0, dtype=float, ndmin=2)
    poles = np.asarray(poles, dtype=float)
    vectors = np.asarray(residue_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape != (h0.shape[0], poles.size):
        raise ConfigError("residue_vectors: shape must be (n_g, n_poles)")
    diag = np.diagonal(h0)
    radius = np.sum(np.abs(h0), axis=1) - np.abs(diag)
    ends = np.concatenate([diag - radius, diag + radius, poles])
    span = max(float(ends.max() - ends.min()), 1.0)
    merged, factors = _merge_poles(poles, vectors, POLE_MERGE_FACTOR * span)
    leads = [float(np.max(np.sum(w * w, axis=0), initial=0.0))
             for w in factors]
    floor = DECOUPLED_FACTOR * max(leads, default=0.0)
    factors = tuple(w if lead > floor else w[:, :0]
                    for w, lead in zip(factors, leads))
    if hg_diag is None:
        hg_diag = np.zeros(h0.shape[0])
    return EffectivePotential(
        h0=h0, poles=merged, residue_factors=factors,
        raw_pole_count=int(poles.size), n_channels=n_channels, span=span,
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


def check_pole_gap(eta, poles: np.ndarray, span: float) -> None:
    """Raise PoleProximityError if an eta lies within rounding of a pole.

    Within POLE_GUARD_FACTOR x span of a pole, 1 / (eta - p_k) carries
    no significant digits, so neither V_eff nor a state's resolvent
    tail is defined there. eval_ep and reconstruct_all share this guard.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    guard = POLE_GUARD_FACTOR * span
    near = np.any(np.abs(eta[:, None] - poles[None, :]) <= guard, axis=1)
    if np.any(near):
        raise PoleProximityError(
            f"eta={float(eta[np.argmax(near)])!r} is at resonance with a "
            f"pole (within {guard:.3e})")


def eval_ep(ep: EffectivePotential, eta: float) -> np.ndarray:
    """V_eff at a given eta: h0 + sum_k W_k W_k^T / (eta - p_k).

    Raises PoleProximityError within rounding of a pole.
    """
    check_pole_gap(eta, ep.poles, ep.span)
    w_all, p_all = ep.columns()
    out = ep.h0 + (w_all / (eta - p_all)) @ w_all.T
    return 0.5 * (out + out.T)


def _pivot_eigenvalues(ep: EffectivePotential, eta: float) -> np.ndarray:
    """Eigenvalues of the block-diagonal factor D of the symmetric
    LDL^T factorization of V_eff(eta) - eta I.

    By Sylvester's law D has the inertia of V_eff(eta) - eta I, and the
    product of its eigenvalues is the determinant.
    """
    _, d, _ = ldl(eval_ep(ep, eta) - eta * np.eye(ep.n_g))
    return np.linalg.eigvalsh(d)


def characteristic(ep: EffectivePotential, eta: float) -> float:
    """F(eta) = det[V_eff(eta) - eta I] via symmetric LDL^T factorization.

    The determinant is the product of the eigenvalues of the 1x1 and
    2x2 pivot blocks, so its sign survives even when the magnitude is
    extreme.
    """
    return float(np.prod(_pivot_eigenvalues(ep, eta)))


def root_count_below(ep: EffectivePotential, eta: float) -> int:
    """Exact number of roots below eta, multiplicities included.

    The roots are the eigenvalues of the linearization
    [[h0, W], [W^T, D]], D = diag(poles repeated by rank), whose Schur
    complement on D - eta is V_eff(eta) - eta I. Haynsworth inertia
    additivity then counts the roots below eta as the ranks of the
    poles below eta plus the negative pivots of V_eff(eta) - eta I.
    eta must not be a root or sit within rounding of a pole.
    """
    below = int(ep.ranks()[ep.poles < eta].sum())
    return below + int(np.sum(_pivot_eigenvalues(ep, eta) < 0.0))


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
