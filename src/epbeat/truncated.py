"""The one eigensolver of the package.

diagonalize_sym is LAPACK's symmetric solver behind input and
reconstruction checks. effective.reduce_block applies it to the
eliminated block L = op[N_g:, N_g:] (see model.block_operator), whose
eigenvalues are the pole positions of the effective potential and
whose eigenvectors carry the reconstructed channel tails;
effective.ep_from_poles to a merged pole cluster's summed residue
matrix; spectrum.find_roots to the bordered linearization.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

SYMMETRY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9


def diagonalize_sym(m: np.ndarray):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (values sorted ascending, orthonormal eigenvector columns).
    Raises NumericalError for non-square, non-finite or non-symmetric
    input, or unless the eigenpairs reconstruct the matrix to
    RECONSTRUCTION_TOL relative to its norm. The error
    ||V (V diag(values))^T - A||_F is one product, whose two n x n
    temporaries stay below the ~3.2 n^2 workspace of LAPACK's eigh.
    Both tests pass only on a `<=`, so a NaN fails them.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError("diagonalize_sym: matrix must be square")
    norm = _frobenius(a)
    # a NaN or inf entry makes the norm non-finite; so may a finite
    # entry near the float limit, which the scan tells apart
    if not math.isfinite(norm) and not np.isfinite(a).all():
        raise NumericalError("diagonalize_sym: input is not finite")
    if not _frobenius(a - a.T) <= SYMMETRY_TOL * max(norm, 1.0):
        raise NumericalError("diagonalize_sym: input is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    r = vecs @ (vecs * vals).T
    r -= a
    recon = _frobenius(r)
    if not recon <= RECONSTRUCTION_TOL * max(norm, np.finfo(float).tiny):
        raise NumericalError(
            f"diagonalize_sym: reconstruction error {recon:.3e} exceeds "
            f"tolerance")
    return vals, vecs


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a float array, bit for bit: the square root
    of the dot product of a, raveled in memory order, with itself,
    without norm's dispatch on ord and axis."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))
