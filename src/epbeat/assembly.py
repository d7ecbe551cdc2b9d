"""Reconstruction of full two-field states and their diagnostics.

A root eta_i of the effective equation carries only the channel-0
profile psi_0i(xi). The eliminated channels are recovered exactly,

    psi_ni(xi) = sum_k psi0_k(n, xi) <w_k, psi_0i> / (eta_i - p_k),

which is the resolvent of the truncated operator applied to the
back-coupling. States stay in channel space: the two-field amplitude
Psi_i(q, xi) = sum_n phi_n(q) psi_ni(xi) is painted onto the q grid
only for density CSVs. Norms, xi marginals and Schmidt ranks go
through the mode-overlap factor R of ModeBasis.overlap_factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from .effective import check_pole_gap
from .errors import NumericalError
from .model import Grid, ModeBasis
from .spectrum import SpectrumResult
from .truncated import TruncatedSolution

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
        masses = self.xi_grid.weights * np.sum(rc * rc, axis=1)
        norm2 = masses.sum(axis=1)
        if np.any(norm2 == 0.0):
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
    if np.any(p < -1e-12):
        raise ValueError("participation_ratio: negative mass")
    total = p.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > 1e-6):
        raise ValueError(
            f"participation_ratio: distribution sums to {total}, not 1")
    return 1.0 / np.sum(p * p, axis=-1)


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


def reconstruct_all(sr: SpectrumResult, trunc: TruncatedSolution,
                    b: np.ndarray, basis: ModeBasis,
                    xi_grid: Grid) -> StateSet:
    """Recover the full state behind every certified root, in root order.

    b is the coupling B = op[:N_g, N_g:] of mode 0 to the eliminated
    sector that trunc diagonalizes; all tails come from one resolvent
    product. A root at resonance with a pole raises PoleProximityError.
    """
    eta = sr.roots
    check_pole_gap(eta, trunc.eigvals, sr.span)
    w = b @ trunc.eigvecs                     # residue vector per pole
    amps = (sr.vectors @ w) / (eta[:, None] - trunc.eigvals[None, :])
    tails = (amps @ trunc.eigvecs.T).reshape(eta.size, basis.n_modes - 1,
                                             xi_grid.n)
    channels = np.concatenate([sr.vectors[:, None, :], tails], axis=1)
    return StateSet(channels=channels, energies=sr.energies, basis=basis,
                    xi_grid=xi_grid)
