"""The eliminated sector of a block reduction and the one eigensolver.

Eliminating mode 0 from the coupled-channel operator leaves the block
operator L = op[N_g:, N_g:] over the remaining modes (see
model.block_operator). Its eigenvalues are the pole positions of the
effective potential, because the per-block energy shifts eps_n - eps_0
are already part of L. diagonalize_sym is the only eigensolver of the
package: LAPACK's symmetric solver behind input and reconstruction
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

SYMMETRY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class TruncatedSolution:
    """Eigen-solution of the eliminated block operator.

    eigvecs columns are global eigenvectors over the flattened
    (block n, xi) index, orthonormal; eigvals are sorted ascending.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray


def diagonalize_sym(m: np.ndarray):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (values sorted ascending, orthonormal eigenvector columns).
    Raises NumericalError for non-square or non-symmetric input, or
    if the eigenpairs do not reconstruct the matrix to
    RECONSTRUCTION_TOL relative to its norm.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError("diagonalize_sym: matrix must be square")
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > SYMMETRY_TOL * max(norm, 1.0):
        raise NumericalError("diagonalize_sym: input is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    recon = np.linalg.norm(a - (vecs * vals) @ vecs.T)
    if recon > RECONSTRUCTION_TOL * max(norm, np.finfo(float).tiny):
        raise NumericalError(
            f"diagonalize_sym: reconstruction error {recon:.3e} exceeds "
            f"tolerance")
    return vals, vecs
