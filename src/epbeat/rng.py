"""The package's two pseudo-random streams.

The beat draws from SplitMix64, a counter-based generator (below). The
verification battery draws its random instances from PCG64, a
bit-exact copy of numpy.random.default_rng(seed) for the draws it
makes (class PCG64 at the end), so the battery's instances stay the
ones numpy drew without importing numpy.random.

SplitMix64. The i-th output depends only on (seed, i), so streams are
reproducible across implementations and trivially parallel:

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

import operator

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


# numpy.random.SeedSequence's constants (all arithmetic mod 2^32)
MASK32 = (1 << 32) - 1
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1


def _hash_schedule(h: int, mult: int, n: int) -> tuple:
    """The (xor, multiplier) pairs of n successive hashes: SeedSequence's
    hash constant h is xored in, then multiplied by mult and used as
    the multiplier, so the pairs depend on the call count alone."""
    pairs = []
    for _ in range(n):
        x, h = h, h * mult & MASK32
        pairs.append((x, h))
    return tuple(pairs)


def _mix_steps(fill: tuple, n: int) -> tuple:
    """(src, dst, xor, multiplier) of each mix after the pool's fill:
    every pool word into every other, then each of the n - POOL_SIZE
    words past the pool into every pool word."""
    pairs = [(src, dst) for src in range(max(n, POOL_SIZE))
             for dst in range(POOL_SIZE) if src != dst]
    return tuple(p + h for p, h in zip(pairs, fill[POOL_SIZE:]))


# A seed of w words hashes POOL_SIZE * max(POOL_SIZE, w) times into the
# pool: the schedule of a seed below 2^128 is fixed, and so is that of
# the 8 state words, each hashed from pool word i % POOL_SIZE.
_FILL = _hash_schedule(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE)
_STEPS = _mix_steps(_FILL, POOL_SIZE)
_OUT = tuple((i % POOL_SIZE,) + h
             for i, h in enumerate(_hash_schedule(INIT_B, MULT_B, 8)))


def seed_state(seed: int) -> list:
    """SeedSequence(seed).generate_state(4, np.uint64), as Python ints.

    The seed's 32-bit little-endian words (at least one, zero-padded
    to POOL_SIZE) are hashed into a pool; every pool word is mixed into
    every other, then each word past the pool into every pool word;
    8 hashed pool words pair into 4 uint64, low word first. The
    hashmix (xor, multiply, v ^= v >> 16) and mix steps are written
    out in the loops: this runs once per battery instance.
    """
    seed = operator.index(seed)  # a numpy int would wrap in the products
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    words = [seed & MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & MASK32)
    n = len(words)
    if n <= POOL_SIZE:
        fill, steps = _FILL, _STEPS
    else:
        fill = _hash_schedule(INIT_A, MULT_A, POOL_SIZE * n)
        steps = _mix_steps(fill, n)
    pool = words + [0] * (POOL_SIZE - n)
    for i in range(POOL_SIZE):
        x, m = fill[i]
        v = (pool[i] ^ x) * m & MASK32
        pool[i] = v ^ v >> 16
    # pool[src] is read as mixed so far; the words past the pool,
    # pool[POOL_SIZE:], are never written
    for src, dst, x, m in steps:
        v = (pool[src] ^ x) * m & MASK32
        v = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (v ^ v >> 16)) & MASK32
        pool[dst] = v ^ v >> 16
    out = []
    for src, x, m in _OUT:
        v = (pool[src] ^ x) * m & MASK32
        out.append(v ^ v >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class PCG64:
    """numpy.random.default_rng(seed)'s stream, bit for bit, for the
    draws the verification battery makes: integers(low, high),
    random() and uniform(low, high, size).

    PCG64 (O'Neill 2014) is a 128-bit LCG, s <- s * PCG_MULT + inc,
    whose output is the XSL-RR of the new state. Its state is seeded
    from seed_state's u0..u3: inc = 2 (u2 2^64 + u3) + 1, and s steps
    once from 0, adds u0 2^64 + u1 and steps again. A 32-bit draw takes
    the low half of a 64-bit output and keeps the high half for the
    next 32-bit draw, as numpy's PCG64 does; 64-bit draws leave that
    half alone.
    """

    def __init__(self, seed: int):
        u0, u1, u2, u3 = seed_state(seed)
        self.inc = ((u2 << 64 | u3) << 1 | 1) & MASK128
        state = (self.inc + (u0 << 64 | u1)) & MASK128
        self.state = (state * PCG_MULT + self.inc) & MASK128
        self.half = None  # the buffered high half of a 32-bit draw

    def next64(self) -> int:
        s = self.state = (self.state * PCG_MULT + self.inc) & MASK128
        hi = s >> 64
        x, rot = (hi ^ s) & MASK64, hi >> 58
        return (x >> rot | x << (64 - rot)) & MASK64

    def next32(self) -> int:
        if self.half is not None:
            word, self.half = self.half, None
            return word
        value = self.next64()
        self.half = value >> 32
        return value & MASK32

    def integers(self, low: int, high: int) -> int:
        """Uniform int in [low, high) for high - low < 2^32, by
        Lemire's multiply-and-reject method on 32-bit words."""
        n = high - low
        m = self.next32() * n
        if m & MASK32 < n:
            threshold = (MASK32 + 1 - n) % n
            while m & MASK32 < threshold:
                m = self.next32() * n
        return low + (m >> 32)

    def random(self) -> float:
        return (self.next64() >> 11) * _INV53

    def uniform(self, low: float, high: float, size: int | None = None):
        """low + (high - low) u for u = random(): a float, or an array of
        size draws."""
        span = high - low
        if size is None:
            return low + span * self.random()
        return np.array([low + span * self.random() for _ in range(size)])
