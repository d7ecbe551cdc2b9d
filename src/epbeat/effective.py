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
DECOUPLED_FACTOR against the strongest, or below the rounding floor
(eps x span)^2, keeps rank 0. It stores the kept factors as one column
matrix w = [W_1 ... W_K], which is exactly the border of the
linearization, so the ranks are the rank accounting. When no poles
merge, as in practice, w is the coupled columns of the residue
vectors and the cluster work is skipped; otherwise lone poles are
copied into w as one array slice, only a merged cluster costs a
Python step, and only it keeps a lift to its raw poles. The hierarchy
(recurse_ep) is one loop of the same reduction over trailing blocks
of the operator: level k + 1 reduces level k's L, whose lowest block
plays the mode-0 role, so level k's raw poles are already the
spectrum level k + 1 must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PoleProximityError
from .model import ProblemSpec
from .truncated import diagonalize_sym

POLE_MERGE_FACTOR = 1e-8   # poles within this x span are one pole
RESIDUE_RANK_TOL = 1e-10   # merged-residue eigenvalues kept, vs the largest
DECOUPLED_FACTOR = 1e-13   # residue leads below this x the strongest: rank 0
# Within rounding of a pole, eta - p_k has no significant digits.
POLE_GUARD_FACTOR = float(np.finfo(float).eps)
EP_BATCH_BYTES = 1 << 24   # scaled residue columns eval_ep holds at once


@dataclass(frozen=True)
class EffectivePotential:
    """Static part plus pole/residue-factor terms of V_eff(eta).

    w holds every residue-factor column side by side, (N_g, sum r_k):
    pole k owns ranks[k] consecutive columns W_k, with R_k = W_k W_k^T
    and r_k its numerical rank (1 for a simple pole, larger after
    merging, 0 for a decoupled pole). sizes[k] is m_k, the number of
    raw poles merged into pole k. raw_poles are the poles before
    merging, ascending (for reduce_block, the eigenvalues of L), and
    n_channels the number of eliminated channels, both kept for count
    accounting. span bounds the spectrum of h0 and the poles; every
    root tolerance scales with it. eps0 converts roots to total
    energies. lifts holds one matrix per merged cluster (m_k > 1), in
    pole order: it maps that pole's border amplitudes, one per column
    of its factor, to its m_k raw poles (raw_amplitudes). A lone pole
    needs none: its amplitude is its raw pole's.
    """

    h0: np.ndarray
    poles: np.ndarray
    w: np.ndarray
    ranks: np.ndarray
    sizes: np.ndarray
    raw_poles: np.ndarray
    n_channels: int
    span: float
    lifts: tuple
    eps0: float = 0.0

    @property
    def n_g(self) -> int:
        return self.h0.shape[0]

    @property
    def raw_pole_count(self) -> int:
        return self.raw_poles.size

    @property
    def column_poles(self) -> np.ndarray:
        """The pole of each column of w."""
        return np.repeat(self.poles, self.ranks)

    def raw_amplitudes(self, y: np.ndarray) -> np.ndarray:
        """Border amplitudes y (a column per column of w) on the raw
        poles in ascending order: y_k M_k per pole, 0 if decoupled."""
        ranks, sizes = self.ranks, self.sizes
        out = np.zeros((y.shape[0], self.raw_pole_count))
        if not self.lifts:  # every pole lone: a column per coupled pole
            out[:, ranks > 0] = y
            return out
        cols, first = np.cumsum(ranks) - ranks, np.cumsum(sizes) - sizes
        lone = (sizes == 1) & (ranks == 1)
        out[:, first[lone]] = y[:, cols[lone]]
        for k, lift in zip(np.flatnonzero(sizes > 1).tolist(), self.lifts):
            if ranks[k]:
                out[:, first[k]:first[k] + sizes[k]] = (
                    y[:, cols[k]:cols[k] + ranks[k]] @ lift)
        return out

    def to_dict(self) -> dict:
        """Poles and per-pole residue factors, as arrays, for
        cli.write_json."""
        return {
            "poles": self.poles,
            "ranks": self.ranks,
            "residue_factors": np.split(self.w, np.cumsum(self.ranks)[:-1],
                                        axis=1) if self.poles.size else [],
            "raw_pole_count": self.raw_pole_count,
            "n_channels": self.n_channels,
            "eps0": float(self.eps0),
        }


def ep_from_poles(h0: np.ndarray, poles, residue_vectors, n_channels: int,
                  eps0: float = 0.0) -> EffectivePotential:
    """Effective potential from explicit poles and rank-1 residue vectors.

    The one constructor: reduce_block feeds it the eliminated block's
    eigenvalues and B q_k, tests feed it hand-built poles. Ascending
    poles within POLE_MERGE_FACTOR x span form a cluster. When no two
    poles do (the poles reduce_block passes are ascending, and in
    practice none merge), every pole is lone: w is the coupled columns
    of the residue vectors, and the ranks follow from the coupled mask.
    Otherwise the poles are sorted, and a lone pole keeps its own
    vector as its factor, copied with the other lone poles' in one
    array slice, so the Python loop runs over merged clusters alone: a
    merged cluster's factor W = V Lambda^{1/2} and lift
    M = Lambda^{-1/2} V^T C (C = W M) come from the eigendecomposition
    V Lambda V^T (diagonalize_sym) of its summed residue matrix C C^T,
    truncated at the numerical rank. Replicated pole values thus merge
    into higher-rank residues, which is the route to synthetic
    full-degree instances; decoupled poles keep no column.
    """
    h0 = np.array(h0, dtype=float, ndmin=2)
    poles = np.array(poles, dtype=float)
    vectors = np.asarray(residue_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape != (h0.shape[0], poles.size):
        raise ConfigError("residue_vectors: shape must be (n_g, n_poles)")
    diag = h0.diagonal()
    radius = np.abs(h0).sum(axis=1) - np.abs(diag)
    ends = np.concatenate([diag - radius, diag + radius, poles])
    span = max(float(ends.max() - ends.min()), 1.0)
    if (poles[1:] - poles[:-1] > POLE_MERGE_FACTOR * span).all():
        # ascending, and no two poles merge: every pole is lone
        coupled = _coupled((vectors * vectors).sum(axis=0), span)
        return EffectivePotential(
            h0=h0, poles=poles, w=vectors[:, coupled],
            ranks=coupled.astype(int), sizes=np.ones(poles.size, dtype=int),
            raw_poles=poles, n_channels=n_channels, span=span, lifts=(),
            eps0=float(eps0))
    order = np.argsort(poles, kind="stable")
    poles, vectors = poles[order], vectors[:, order]
    starts = np.flatnonzero(
        ~(np.diff(poles, prepend=-np.inf) <= POLE_MERGE_FACTOR * span))
    sizes = np.diff(starts, append=poles.size)
    merged = poles[starts]
    # each factor's lead: its largest squared column norm
    leads = np.sum(vectors * vectors, axis=0)[starts]
    widths = np.ones(starts.size, dtype=int)
    clusters = np.flatnonzero(sizes > 1).tolist()
    factors, lifts = [], []
    for k in clusters:
        cluster = vectors[:, starts[k]:starts[k] + sizes[k]]
        vals, vecs = diagonalize_sym(cluster @ cluster.T)
        keep = vals > RESIDUE_RANK_TOL * max(vals[-1], 0.0)
        factors.append(vecs[:, keep] * np.sqrt(vals[keep]))
        lifts.append((factors[-1].T @ cluster) / vals[keep, None])
        merged[k] = np.mean(poles[starts[k]:starts[k] + sizes[k]])
        leads[k] = np.max(np.sum(factors[-1] * factors[-1], axis=0),
                          initial=0.0)
        widths[k] = keep.sum()
    coupled = _coupled(leads, span)
    ranks = widths * coupled
    cols = np.cumsum(ranks) - ranks
    # column-major: filled a pole's columns at a time
    w = np.empty((h0.shape[0], int(ranks.sum())), order="F")
    lone = coupled & (sizes == 1)
    w[:, cols[lone]] = vectors[:, starts[lone]]
    for k, factor in zip(clusters, factors):
        if coupled[k]:
            w[:, cols[k]:cols[k] + ranks[k]] = factor
    return EffectivePotential(
        h0=h0, poles=merged, w=w, ranks=ranks, sizes=sizes, raw_poles=poles,
        n_channels=n_channels, span=span, lifts=tuple(lifts),
        eps0=float(eps0))


def _coupled(leads: np.ndarray, span: float) -> np.ndarray:
    """Which poles keep their factor, from each factor's lead. A lead
    below (eps span)^2 is rounding of B q_k, not coupling, even when
    every lead is (a hierarchy level whose border cancels)."""
    return leads > max(DECOUPLED_FACTOR * leads.max(initial=0.0),
                       (np.finfo(float).eps * span) ** 2)


def reduce_block(op: np.ndarray, n_g: int,
                 eps0: float) -> tuple[np.ndarray, EffectivePotential]:
    """Eliminate everything past the first n_g rows of a block operator.

    Diagonalizes L = op[n_g:, n_g:] = Q diag(p) Q^T and carries
    B = op[:n_g, n_g:] into the residue vectors B q_k of the potential
    on h0 = op[:n_g, :n_g]; returns Q and the potential. Every
    hierarchy level and the pipeline use this one reduction.
    """
    vals, vecs = diagonalize_sym(op[n_g:, n_g:])
    ep = ep_from_poles(op[:n_g, :n_g], vals, op[:n_g, n_g:] @ vecs,
                       n_channels=op.shape[0] // n_g - 1, eps0=eps0)
    return vecs, ep


def eval_ep(ep: EffectivePotential, eta) -> np.ndarray:
    """V_eff at eta: h0 + sum_k W_k W_k^T / (eta - p_k), exactly symmetric.

    eta is a scalar (an N_g x N_g matrix is returned) or a 1-D array
    (one matrix per eta, stacked). The one builder of V_eff: a batch
    is h0 + (w diag(1/(eta - p))) w^T, its scaled copies of w limited
    to EP_BATCH_BYTES at a time. Within POLE_GUARD_FACTOR x span of a
    pole, 1 / (eta - p_k) carries no significant digits, so V_eff is
    not defined there: that raises PoleProximityError, for every
    caller, the inertia count included.
    """
    etas = np.atleast_1d(np.asarray(eta, dtype=float))
    guard = POLE_GUARD_FACTOR * ep.span
    near = np.any(np.abs(etas[:, None] - ep.poles) <= guard, axis=1)
    if np.any(near):
        raise PoleProximityError(
            f"eta={float(etas[np.argmax(near)])!r} is at resonance with a "
            f"pole (within {guard:.3e})")
    w, p = ep.w, ep.column_poles
    step = max(1, EP_BATCH_BYTES // max(w.nbytes, 1))
    out = np.empty((etas.size,) + ep.h0.shape)
    for a in range(0, etas.size, step):
        m = ep.h0 + (w / (etas[a:a + step, None, None] - p)) @ w.T
        out[a:a + step] = 0.5 * (m + m.swapaxes(1, 2))
    return out[0] if np.ndim(eta) == 0 else out


def _pivot_eigenvalues(ep: EffectivePotential, eta) -> np.ndarray:
    """Eigenvalues of V_eff(eta) - eta I, one row per eta of a 1-D batch.

    By Sylvester's law they have the inertia of the pivots of a
    symmetric LDL^T factorization, and their product is the
    determinant. One batched eval_ep, one stacked eigvalsh.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return np.linalg.eigvalsh(
        eval_ep(ep, eta) - eta[:, None, None] * np.eye(ep.n_g))


def characteristic(ep: EffectivePotential, eta):
    """F(eta) = det[V_eff(eta) - eta I] via the eigenvalues of
    V_eff(eta) - eta I.

    The determinant is the product of those eigenvalues, so its sign
    survives even when the magnitude is extreme. eta is a scalar (a
    float is returned) or a 1-D array (an array is returned).
    """
    values = np.prod(_pivot_eigenvalues(ep, eta), axis=1)
    return float(values[0]) if np.ndim(eta) == 0 else values


def root_count_below(ep: EffectivePotential, eta):
    """Exact number of roots below eta, multiplicities included.

    The roots are the eigenvalues of the linearization
    [[h0, W], [W^T, D]], D = diag(poles repeated by rank), whose Schur
    complement on D - eta is V_eff(eta) - eta I. Haynsworth inertia
    additivity then counts the roots below eta as the ranks of the
    poles below eta plus the negative eigenvalues of V_eff(eta) - eta I.
    eta must not be a root or sit within rounding of a pole. eta is a
    scalar (an int is returned) or a 1-D array (an int array is
    returned); both go through one batched evaluation.
    """
    etas = np.atleast_1d(np.asarray(eta, dtype=float))
    below = (ep.poles < etas[:, None]) @ ep.ranks
    counts = below + np.sum(_pivot_eigenvalues(ep, etas) < 0.0, axis=1)
    return int(counts[0]) if np.ndim(eta) == 0 else counts


def check_depth(depth: int, n_tot: int, field: str) -> None:
    """Refuse a depth that leaves a level no truncated sector."""
    if not 1 <= depth <= n_tot - 1:
        raise ConfigError(f"{field}: must be in 1..N_tot - 1 = "
                          f"{n_tot - 1}, got {depth!r}")


def recurse_ep(spec: ProblemSpec, op: np.ndarray,
               depth: int) -> tuple[EffectivePotential, ...]:
    """Effective potentials down the truncation hierarchy, one per level.

    op is block_operator(spec, v). Level k reduces its trailing block
    op[(k-1) N_g:, (k-1) N_g:] onto that block's lowest mode, so level
    1 is the pipeline's reduction and level k + 1 reduces level k's L.
    Each level must leave a truncated sector (see check_depth).
    """
    check_depth(depth, spec.n_tot, "depth")
    n_g, eps0 = spec.n_g, float(spec.modes.eps[0])
    return tuple(reduce_block(op[k * n_g:, k * n_g:], n_g, eps0)[1]
                 for k in range(depth))
