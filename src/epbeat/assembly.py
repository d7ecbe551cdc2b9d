"""Reconstruction of full two-field states and their diagnostics.

A root eta_i of the effective equation carries only the channel-0
profile psi_0i(xi). The eliminated channels are recovered exactly,

    psi_ni(xi) = sum_k psi0_k(n, xi) <w_k, psi_0i> / (eta_i - p_k),

which is the resolvent of the truncated operator applied to the
back-coupling, and the full two-field amplitude is painted onto the
product grid as Psi_i(q, xi) = sum_n phi_n(q) psi_ni(xi), normalized
so its quadrature-weighted density is a probability field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import NumericalError, PoleProximityError
from .model import Grid, ModeBasis
from .spectrum import SpectrumResult
from .truncated import TruncatedSolution

RESONANCE_GUARD = 1e-9
SCHMIDT_TOL = 1e-8
NORM_TOL = 1e-9


@dataclass(frozen=True)
class AssembledState:
    """One reconstructed eigenstate of the compound system."""

    root_index: int
    psi0: np.ndarray           # channel-0 profile, unit Euclidean norm
    tails: np.ndarray          # (n_modes-1, n_xi) recovered channels
    full: np.ndarray           # (n_q, n_xi) amplitude, weighted-unit norm
    energy: float
    norm: float
    q_grid: Grid
    xi_grid: Grid

    def channel_vector(self) -> np.ndarray:
        """Stacked (psi0, tails) over the flattened channel index."""
        return np.concatenate([self.psi0, self.tails.ravel()])


@dataclass(frozen=True)
class DensityField:
    """Probability density rho(q, xi) = |Psi|^2 with cell-mass marginals.

    rho is a density with respect to the quadrature measure
    (sum_{q,xi} w_q w_xi rho = 1); the marginals are per-cell masses
    and therefore plain-sum to 1.
    """

    rho: np.ndarray
    marginal_xi: np.ndarray
    marginal_q: np.ndarray


def reconstruct_state(sr: SpectrumResult, i: int, trunc: TruncatedSolution,
                      b: np.ndarray, basis: ModeBasis,
                      xi_grid: Grid) -> AssembledState:
    """Recover the full state behind root i of the spectrum.

    b is the coupling B = op[:N_g, N_g:] of mode 0 to the eliminated
    sector that trunc diagonalizes.
    """
    eta = float(sr.roots[i])
    psi0 = sr.vectors[i]
    n_g = xi_grid.n
    span = max(float(trunc.eigvals[-1] - trunc.eigvals[0]), 1.0) \
        if trunc.eigvals.size else 1.0
    gaps = np.abs(eta - trunc.eigvals)
    if np.any(gaps <= RESONANCE_GUARD * span):
        raise PoleProximityError(
            f"state at root {eta!r} is undefined at resonance with a pole")
    w = b @ trunc.eigvecs                     # residue vector per pole
    amps = (w.T @ psi0) / (eta - trunc.eigvals)
    tails = (trunc.eigvecs @ amps).reshape(-1, n_g)

    channels = np.vstack([psi0[None, :], tails])
    full = basis.phi.T @ channels             # (n_q, n_xi)
    wq = basis.q_grid.weights
    wx = xi_grid.weights
    norm = float(np.sqrt(np.einsum("qx,q,x->", full ** 2, wq, wx)))
    if norm == 0.0:
        raise NumericalError("reconstructed state has zero amplitude")
    full = full / norm
    return AssembledState(root_index=i, psi0=psi0, tails=tails, full=full,
                          energy=float(sr.energies[i]), norm=1.0,
                          q_grid=basis.q_grid, xi_grid=xi_grid)


def density(state: AssembledState) -> DensityField:
    """Observable density |Psi|^2 with both marginals."""
    rho = state.full ** 2
    wq = state.q_grid.weights
    wx = state.xi_grid.weights
    marginal_xi = wx * (wq @ rho)
    marginal_q = wq * (rho @ wx)
    return DensityField(rho=rho, marginal_xi=marginal_xi,
                        marginal_q=marginal_q)


def participation_ratio(p: np.ndarray) -> float:
    """PR = 1 / sum p^2 of a normalized cell-mass distribution.

    1 for a point mass, the cell count for a uniform distribution.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("participation_ratio: negative mass")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"participation_ratio: distribution sums to {total!r}, not 1")
    return float(1.0 / np.sum(p * p))


def schmidt_rank(state: AssembledState, tol: float = SCHMIDT_TOL) -> int:
    """Number of Schmidt coefficients above tol times the leading one.

    Singular values are taken of the weighted amplitude matrix
    sqrt(w_q) Psi sqrt(w_xi), i.e. with respect to the quadrature
    inner products; rank 1 means a product (unentangled) state.
    """
    m = (np.sqrt(state.q_grid.weights)[:, None] * state.full
         * np.sqrt(state.xi_grid.weights)[None, :])
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("schmidt_rank: zero state")
    return int(np.sum(s > tol * s[0]))


def complexity_measure(n_realizations: int) -> float:
    """ln(n): zero for a single realization, strictly increasing."""
    if n_realizations < 1:
        raise ValueError("complexity_measure: need n >= 1")
    return log(n_realizations)


def reconstruct_all(sr: SpectrumResult, trunc: TruncatedSolution,
                    b: np.ndarray, basis: ModeBasis,
                    xi_grid: Grid) -> tuple:
    """Reconstruct every certified root, in root order."""
    return tuple(reconstruct_state(sr, i, trunc, b, basis, xi_grid)
                 for i in range(sr.roots.size))
