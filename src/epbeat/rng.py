"""Counter-based 64-bit pseudo-random generator (SplitMix64).

The i-th output depends only on (seed, i), so streams are reproducible
across implementations and trivially parallel:

    value(seed, i) = mix64((seed + (i + 1) * GAMMA) mod 2^64)

with GAMMA = 0x9E3779B97F4A7C15 and mix64 the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2^64). This matches the reference SplitMix64
sequence: for seed 0 the first three outputs are

    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F

which are frozen as test vectors in the suite and in the README. The
suite also holds the scalar form of value above, the reference that
uniform_block must match bit for bit.

Uniform doubles take the top 53 bits: u = (value >> 11) * 2^-53, so
u is in [0, 1). A categorical draw over weights alpha picks the
smallest j with u < cum_j = alpha_0 + ... + alpha_j.

The draw inverts the cumulative weights through a guide table (Chen &
Asau 1974; Devroye 1986, III.2.4) of M = 2^GUIDE_BITS buckets, with
g[b] the number of cum_j <= b / M. A draw u starts at j = g[floor(u M)].
This is exact: u M is exact for M a power of two, so b / M <= u and
g[b] never exceeds the answer; and if u < cum_j, every later cum is
above u too, so j is the answer. Only draws with u >= cum_j take the
binary search: those in a bucket that holds a boundary (about K / M
of all draws) and any past a cum[-1] < 1.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_U64_GAMMA = np.uint64(GAMMA)
_U64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 2.0 ** -53

GUIDE_BITS = 12
# uniforms per chunk of a categorical draw: 128 KiB of uint64 per
# SplitMix64 temporary, so a chunk's temporaries stay in L2
DRAW_CHUNK = 1 << 14


def _check_window(start: int, count: int) -> None:
    if start < 0:
        raise ValueError("index must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized uniform doubles for indices start..start+count-1.

    u_i = (value(seed, i) >> 11) * 2^-53, with the counters i + 1
    wrapping mod 2^64; computed in place.
    """
    _check_window(start, count)
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64((start + 1) & MASK64)
    z *= _U64_GAMMA
    z += np.uint64(seed & MASK64)
    z ^= z >> _S30
    z *= _U64_C1
    z ^= z >> _S27
    z *= _U64_C2
    z ^= z >> _S31
    z >>= _S11
    return z * _INV53


def categorical_block(seed: int, start: int, count: int,
                      alpha: np.ndarray) -> np.ndarray:
    """Draw count categorical outcomes j ~ alpha, one per counter index.

    Outcome j is the smallest index with u < cumsum(alpha)[j]; a final
    clip to K - 1 guards against cumulative rounding at u ~ 1. The ids
    have the smallest unsigned dtype that holds K - 1 (uint8 up to
    K = 256).
    """
    _check_window(start, count)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a nonempty 1-D weight vector")
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    total = float(alpha.sum())
    if not np.isfinite(total) or total <= 0:
        raise ValueError("alpha must have positive total mass")
    last = alpha.size - 1
    cum = np.cumsum(alpha / total)
    m = 1 << GUIDE_BITS
    guide = np.searchsorted(cum, np.arange(m) / m, side="right")
    # a draw below its bucket's bound ends at the guide's id
    bound = np.append(cum, np.inf)[guide]
    dtype = np.min_scalar_type(last)
    guide = np.minimum(guide, last).astype(dtype)
    ids = np.empty(count, dtype=dtype)
    for a in range(0, count, DRAW_CHUNK):
        u = uniform_block(seed, start + a, min(DRAW_CHUNK, count - a))
        bucket = (u * m).astype(np.intp)
        out = ids[a:a + u.size]
        np.take(guide, bucket, out=out)
        hit = u >= bound[bucket]
        if hit.any():
            out[hit] = np.minimum(np.searchsorted(cum, u[hit], side="right"),
                                  last)
    return ids
