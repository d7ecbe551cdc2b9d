"""Complete root enumeration for the rational characteristic function.

The roots of F(eta) = det[V_eff(eta) - eta I] are exactly the
eigenvalues of the symmetric bordered matrix

    [[h0, W], [W^T, diag(p_k, repeated rank_k times)]]

whose off-diagonal border W collects the residue-factor columns that
ep_from_poles kept, so one dense symmetric eigensolve enumerates every
root at once, multiplicities included. Each eigenpair (x, y) is
certified by the residual ||h0 x + W y - eta x|| / ||x||, which never
divides by eta - p_k, so a root next to a weakly coupled pole is
certified like any other; no root is excluded, and one that fails
certification raises. The independent check is the exact inertia
count effective.root_count_below, never the source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import EffectivePotential
from .errors import NumericalError
from .truncated import diagonalize_sym

ROOT_RESIDUAL_FACTOR = 1e-7


def linearize_ep(ep: EffectivePotential) -> np.ndarray:
    """Bordered symmetric linearization whose eigenvalues are the roots.

    The border is every residue-factor column of the potential, with
    its pole on the diagonal; decoupled poles have no column and are
    reported separately by find_roots.
    """
    w_all, p_all = ep.columns()
    return np.block([[ep.h0, w_all], [w_all.T, np.diag(p_all)]])


@dataclass(frozen=True)
class CountRecord:
    """Root/pole/rank bookkeeping for one spectrum."""

    n_g: int
    n_roots: int
    n_poles: int
    rank_sum: int
    degree_bound: int
    full_degree_count: int
    linear_count: int


@dataclass(frozen=True)
class SpectrumResult:
    """All certified roots with channel-0 eigenvectors and accounting.

    excluded keeps the (value, reason) format of spectrum.json; since
    certification excludes nothing, it is empty. span is the
    potential's span, the scale of the certification bound and of the
    pole guard.
    """

    roots: np.ndarray
    vectors: np.ndarray  # rows are unit channel-0 profiles per root
    energies: np.ndarray
    counts: CountRecord
    excluded: tuple
    decoupled_poles: tuple
    residual_max: float
    span: float


def find_roots(ep: EffectivePotential) -> SpectrumResult:
    """Enumerate and certify every root of the characteristic function.

    Every eigenpair (x_j, y_j) of the linearization is a root. Its
    division-free residual R_j = ||h0 x_j + W y_j - eta_j x_j|| / ||x_j||,
    from one product for all roots, must clear ROOT_RESIDUAL_FACTOR
    times the span, or NumericalError is raised. residual_max is the
    largest R_j.
    """
    vals, vecs = diagonalize_sym(linearize_ep(ep))
    n_g = ep.n_g
    x = vecs[:n_g]
    w_all, _ = ep.columns()
    resid = np.linalg.norm(ep.h0 @ x + w_all @ vecs[n_g:] - x * vals, axis=0)
    nx = np.linalg.norm(x, axis=0)
    bound = ROOT_RESIDUAL_FACTOR * ep.span
    failed = np.flatnonzero(resid > bound * nx)
    if failed.size:
        j = failed[0]
        raise NumericalError(
            f"find_roots: root {float(vals[j])!r} failed certification "
            f"(residual {resid[j]:.3e} > {bound:.3e} x channel-0 weight "
            f"{nx[j]:.3e})")
    ranks = ep.ranks()
    n_e = ep.n_channels
    counts = CountRecord(
        n_g=int(n_g),
        n_roots=int(vals.size),
        n_poles=int(ep.poles.size),
        rank_sum=int(ranks.sum()),
        degree_bound=int(n_g * (ep.poles.size + 1)),
        full_degree_count=int(n_g * (n_e * n_g + 1)),
        linear_count=int((n_e + 1) * n_g))
    return SpectrumResult(
        roots=vals, vectors=(x / nx).T, energies=vals + ep.eps0,
        counts=counts, excluded=(),
        decoupled_poles=tuple(float(p) for p in ep.poles[ranks == 0]),
        residual_max=float((resid / nx).max(initial=0.0)), span=ep.span)


def count_accounting(sr: SpectrumResult) -> dict:
    """Confront the measured root count with the closed-form counts.

    Four numbers: the measured count, the rank accounting
    N_g + sum_k rank(R_k), the full-degree count N_g (N_e N_g + 1)
    evaluated with N_e = eliminated channels, and the plain linear
    dimension N_tot N_g. The verdict strings state whether measurement
    matches the rank accounting and under what condition the degree
    bound is attained.
    """
    c = sr.counts
    n_g = c.n_g
    rank_accounting = n_g + c.rank_sum
    all_full_rank = (c.n_poles > 0 and c.rank_sum == c.n_poles * n_g)
    bound_attained = c.n_roots == c.degree_bound
    return {
        "measured_roots": c.n_roots,
        "rank_accounting": rank_accounting,
        "full_degree_count": c.full_degree_count,
        "linear_count": c.linear_count,
        "n_poles": c.n_poles,
        "degree_bound": c.degree_bound,
        "measured_equals_rank_accounting": bool(c.n_roots == rank_accounting),
        "degree_bound_attained": bool(bound_attained),
        "all_residues_full_rank": bool(all_full_rank),
        "verdicts": [
            "measured = rank accounting: "
            + ("yes" if c.n_roots == rank_accounting else "NO"),
            "degree bound attained iff all residues full-rank: "
            + ("consistent" if bound_attained == all_full_rank
               else "INCONSISTENT"),
        ],
    }
