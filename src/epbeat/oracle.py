"""Brute-force ground truth: the coupled problem solved head-on.

The full coupled-channel operator over all modes (model.block_operator)
is diagonalized directly (LAPACK via numpy), with no reduction to the
effective potential. Whatever the pole machinery produces must agree
with this to working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import ProblemSpec, block_operator

DIMENSION_CAP = 2000
# compare_spectra's bound on the worst deviation over the spectral scale
EP_EXACTNESS_TOL = 1e-7


def check_dimension(caller: str, spec: ProblemSpec) -> None:
    """Refuse a dense solve of the full operator above DIMENSION_CAP,
    read at call time, so every caller follows a cap set on the
    module."""
    if spec.dim > DIMENSION_CAP:
        raise NumericalError(
            f"{caller}: dimension {spec.dim} exceeds cap {DIMENSION_CAP}")


def direct_spectrum(spec: ProblemSpec, v: np.ndarray):
    """All eigenpairs of the full operator, total energies ascending.

    The eigenvalues of block_operator(spec, v) (eta scale) shifted by
    eps_0, where v is project_coupling's (N_tot, N_tot, N_g) array.
    """
    check_dimension("direct_spectrum", spec)
    etas, vectors = np.linalg.eigh(block_operator(spec, v))
    return etas + spec.modes.eps[0], vectors


def direct_energies(spec: ProblemSpec, v: np.ndarray) -> np.ndarray:
    """direct_spectrum's eigenvalues only (eigvalsh), from an operator
    it builds itself after the same DIMENSION_CAP check."""
    check_dimension("direct_energies", spec)
    return np.linalg.eigvalsh(block_operator(spec, v)) + spec.modes.eps[0]


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_dev: float
    max_rel_dev: float
    matched_pairs: int
    unmatched_a: tuple
    unmatched_b: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_abs_dev": float(self.max_abs_dev),
            "max_rel_dev": float(self.max_rel_dev),
            "matched_pairs": self.matched_pairs,
            "unmatched_a": [float(x) for x in self.unmatched_a],
            "unmatched_b": [float(x) for x in self.unmatched_b],
            "passed": bool(self.passed),
        }


# inf - inf: a NaN deviation, which fails; a difference past the float
# range: an inf deviation, which fails
@np.errstate(invalid="ignore", over="ignore")
def compare_spectra(a, b) -> ComparisonReport:
    """Greedy nearest matching of two sorted spectra.

    Spectra of equal length are paired in order, in one array
    operation: that is what the greedy walk does when it skips
    nothing, and it skips only while one spectrum has more values
    left than the other. Unequal lengths take the walk. Relative
    deviation is measured against the overall spectral scale
    max(|a|, |b|) (the natural scale for eigenvalue perturbations);
    passes iff both spectra are finite, the worst matched deviation
    clears EP_EXACTNESS_TOL, read at call time, and nothing is left
    unmatched.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0),
                1e-300)
    finite = bool(np.isfinite(a).all() and np.isfinite(b).all())
    if a.size == b.size:
        devs, unmatched_a, unmatched_b = np.abs(a - b), (), ()
    else:
        devs, unmatched_a, unmatched_b = _greedy_walk(a.tolist(), b.tolist())
    max_abs = float(np.max(devs, initial=0.0))
    max_rel = max_abs / scale
    passed = (finite and max_rel <= EP_EXACTNESS_TOL
              and not unmatched_a and not unmatched_b)
    return ComparisonReport(max_abs_dev=max_abs, max_rel_dev=max_rel,
                            matched_pairs=len(devs),
                            unmatched_a=tuple(unmatched_a),
                            unmatched_b=tuple(unmatched_b),
                            passed=passed)


def _greedy_walk(a: list, b: list):
    """compare_spectra's walk over sorted spectra on Python floats: the
    matched pairs' deviations and the values of a and b left over."""
    i = j = 0
    devs = []
    unmatched_a, unmatched_b = [], []
    while i < len(a) and j < len(b):
        left_a, left_b = len(a) - i, len(b) - j
        if left_a > left_b and i + 1 < len(a) \
                and abs(a[i + 1] - b[j]) < abs(a[i] - b[j]):
            unmatched_a.append(a[i])
            i += 1
            continue
        if left_b > left_a and j + 1 < len(b) \
                and abs(a[i] - b[j + 1]) < abs(a[i] - b[j]):
            unmatched_b.append(b[j])
            j += 1
            continue
        devs.append(abs(a[i] - b[j]))
        i += 1
        j += 1
    unmatched_a.extend(a[i:])
    unmatched_b.extend(b[j:])
    return devs, unmatched_a, unmatched_b
