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
# residual columns the reconstruction check holds at once (one block
# up to n = 1448)
RECONSTRUCTION_BLOCK_BYTES = 1 << 24


def diagonalize_sym(m: np.ndarray):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (values sorted ascending, orthonormal eigenvector columns).
    Raises NumericalError for non-square or non-symmetric input, or
    if the eigenpairs do not reconstruct the matrix to
    RECONSTRUCTION_TOL relative to its norm. The error
    ||V diag(values) V^T - A||_F is summed over column blocks
    V diag(values) V[J, :]^T - A[:, J] of RECONSTRUCTION_BLOCK_BYTES,
    so its temporaries stay near that size at any n.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError("diagonalize_sym: matrix must be square")
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > SYMMETRY_TOL * max(norm, 1.0):
        raise NumericalError("diagonalize_sym: input is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    n = a.shape[0]
    step = max(1, RECONSTRUCTION_BLOCK_BYTES // max(a.itemsize * n, 1))
    sq = 0.0
    for j in range(0, n, step):
        r = vecs @ (vecs[j:j + step] * vals).T
        r -= a[:, j:j + step]
        sq += float(np.dot(r.ravel(), r.ravel()))
    recon = np.sqrt(sq)
    if recon > RECONSTRUCTION_TOL * max(norm, np.finfo(float).tiny):
        raise NumericalError(
            f"diagonalize_sym: reconstruction error {recon:.3e} exceeds "
            f"tolerance")
    return vals, vecs
