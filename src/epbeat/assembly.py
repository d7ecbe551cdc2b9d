"""Reconstruction of full two-field states and their diagnostics.

A root eta_i is a linearization eigenvalue whose eigenvector (x, y)
holds the channel-0 profile psi_0i = x and, lifted to the raw poles
of L = Q diag(p) Q^T, the eliminated channels

    psi_ni(xi) = sum_k a_ik q_k(n, xi),   a_i = ep.raw_amplitudes(y).

For a simple pole a_ik = <w_k, x> / (eta_i - p_k), read off without
dividing, so a root on a pole is rebuilt like any other. States stay
in channel space and the two-field amplitude
Psi_i(q, xi) = sum_n phi_n(q) psi_ni(xi) is never formed on the q
grid: the density CSVs evaluate phi(q)^T G(xi) phi(q) from per-cell
channel Gram blocks (realizations.realization_densities). Norms, xi
marginals and Schmidt ranks go through the mode-overlap factor R of
ModeBasis.overlap_factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from .effective import EffectivePotential
from .errors import NumericalError
from .model import Grid, ModeBasis
from .spectrum import SpectrumResult

SCHMIDT_TOL = 1e-8


@dataclass(frozen=True)
class StateSet:
    """Reconstructed eigenstates in root order, as channel amplitudes.

    channels[i, n] is the xi profile psi_ni of state i on mode n, scaled
    on construction to unit quadrature-weighted norm of Psi_i(q, xi).
    marginal_xi[i] holds the per-cell xi masses w_xi |R psi_i(xi)|^2 of
    that probability density, so each row plain-sums to 1.
    """

    channels: np.ndarray     # (n_roots, N_tot, N_g)
    energies: np.ndarray     # total energies, root order
    basis: ModeBasis
    xi_grid: Grid
    marginal_xi: np.ndarray = field(init=False)  # (n_roots, N_g)

    def __post_init__(self):
        c = np.asarray(self.channels, dtype=float)
        rc = self.basis.overlap_factor @ c
        masses = self.xi_grid.weights * (rc * rc).sum(axis=1)
        norm2 = masses.sum(axis=1)
        if (norm2 == 0.0).any():
            raise NumericalError("reconstructed state has zero amplitude")
        object.__setattr__(self, "channels",
                           c / np.sqrt(norm2)[:, None, None])
        object.__setattr__(self, "marginal_xi", masses / norm2[:, None])

    def __len__(self) -> int:
        return self.channels.shape[0]


def participation_ratio(p: np.ndarray):
    """PR = 1 / sum p^2 of normalized cell-mass distributions.

    Reduces over the last axis: 1 for a point mass, the cell count for
    a uniform distribution.
    """
    p = np.asarray(p, dtype=float)
    if (p < -1e-12).any():
        raise ValueError("participation_ratio: negative mass")
    total = p.sum(axis=-1)
    if (np.abs(total - 1.0) > 1e-6).any():
        raise ValueError(
            f"participation_ratio: distribution sums to {total}, not 1")
    return 1.0 / (p * p).sum(axis=-1)


def schmidt_ranks(states: StateSet, tol: float = SCHMIDT_TOL) -> np.ndarray:
    """Number of Schmidt coefficients above tol times the leading one.

    The Schmidt values of state i are the singular values of the
    weighted amplitude sqrt(w_q) Psi_i sqrt(w_xi) = Q R C_i sqrt(w_xi),
    i.e. those of R C_i sqrt(w_xi): one batched SVD for all states.
    Rank 1 means a product (unentangled) state.
    """
    m = (states.basis.overlap_factor @ states.channels
         * np.sqrt(states.xi_grid.weights))
    s = np.linalg.svd(m, compute_uv=False)
    if np.any(s[:, 0] == 0.0):
        raise ValueError("schmidt_ranks: zero state")
    return np.sum(s > tol * s[:, :1], axis=1)


def complexity_measure(n_realizations: int) -> float:
    """ln(n): zero for a single realization, strictly increasing."""
    if n_realizations < 1:
        raise ValueError("complexity_measure: need n >= 1")
    return log(n_realizations)


def reconstruct_all(sr: SpectrumResult, ep: EffectivePotential,
                    q: np.ndarray, basis: ModeBasis,
                    xi_grid: Grid) -> StateSet:
    """Recover the full state behind every certified root, in root order.

    q holds the eigenvectors of L, a column per raw pole of ep in
    ascending order (reduce_block); all tails come from one product.
    """
    tails = (ep.raw_amplitudes(sr.border) @ q.T).reshape(
        sr.roots.size, basis.n_modes - 1, xi_grid.n)
    channels = np.concatenate([sr.vectors[:, None, :], tails], axis=1)
    return StateSet(channels=channels, energies=sr.energies, basis=basis,
                    xi_grid=xi_grid)
