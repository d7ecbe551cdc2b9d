"""The one eigensolver of the package.

diagonalize_sym is LAPACK's symmetric solver behind input and
reconstruction checks. effective.reduce_block applies it to the
eliminated block L = op[N_g:, N_g:] (see model.block_operator), whose
eigenvalues are the pole positions of the effective potential and
whose eigenvectors carry the reconstructed channel tails;
spectrum.find_roots applies it to the bordered linearization.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

SYMMETRY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9


def diagonalize_sym(m: np.ndarray):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (values sorted ascending, orthonormal eigenvector columns).
    Raises NumericalError for non-square or non-symmetric input, or
    if the eigenpairs do not reconstruct the matrix to
    RECONSTRUCTION_TOL relative to its norm. The error
    ||V (V diag(values))^T - A||_F is one product, whose two n x n
    temporaries stay below the ~3.2 n^2 workspace of LAPACK's eigh.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError("diagonalize_sym: matrix must be square")
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > SYMMETRY_TOL * max(norm, 1.0):
        raise NumericalError("diagonalize_sym: input is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    r = vecs @ (vecs * vals).T
    r -= a
    recon = np.linalg.norm(r)
    if recon > RECONSTRUCTION_TOL * max(norm, np.finfo(float).tiny):
        raise NumericalError(
            f"diagonalize_sym: reconstruction error {recon:.3e} exceeds "
            f"tolerance")
    return vals, vecs
