"""The battery's stream: rng.PCG64 against numpy.random.default_rng.

numpy's generator is the reference here; the package itself never
imports numpy.random.
"""

import json

import numpy as np
import pytest
from numpy.random import PCG64 as NumpyPCG64
from numpy.random import Generator, SeedSequence, default_rng

from epbeat import rng, verification
from epbeat.cli import main

# seeds past 2^64 take two or more 32-bit words, past 2^128 more
# words than SeedSequence's pool holds
WIDE_SEEDS = ([2 ** 64 + k for k in range(200)]
              + [2 ** 32 + 5, 2 ** 63 + 7, 2 ** 64 - 1, 2 ** 96 + 3,
                 2 ** 128 + 1, 2 ** 200 + 17])
SEEDS = list(range(10_000)) + WIDE_SEEDS

# integers(2, 9) draws from 7 values: a 32-bit word w is rejected when
# 7 w mod 2^32 < (2^32 - 7) mod 7 = 4, i.e. for w = k 7^-1, k = 0..3
INV7 = pow(7, -1, 2 ** 32)


def instance_draws(gen) -> tuple:
    """The draws verification.random_instance makes, in its order, and
    one more of each kind, so a stream that drifts after the instance
    is caught too."""
    n_g = int(gen.integers(2, 9))
    return (int(gen.integers(2, 6)), n_g, gen.random(),
            *(float(gen.uniform(a, b)) for a, b in
              [(0.4, 1.5), (0.3, 1.5), (0.12, 0.45), (0.05, 0.5)]),
            gen.uniform(-1.0, 1.0, n_g).tolist(),
            int(gen.integers(2, 9)), int(gen.integers(2, 6)), gen.random())


def test_seed_state_matches_seed_sequence():
    for seed in SEEDS:
        want = SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert rng.seed_state(seed) == want, seed


def test_instance_draws_match_default_rng():
    for seed in SEEDS:
        assert (instance_draws(rng.PCG64(seed))
                == instance_draws(default_rng(seed))), seed


def test_seed_types():
    # a numpy int seeds as its value, not as wrapping int64 products
    assert rng.seed_state(np.uint64(2 ** 63 + 7)) == rng.seed_state(
        2 ** 63 + 7)
    with pytest.raises(ValueError, match="nonnegative"):
        rng.PCG64(-1)
    with pytest.raises(TypeError):
        rng.PCG64(1.0)


def test_uniform_array_is_float64():
    draws = rng.PCG64(3).uniform(-1.0, 1.0, 5)
    assert draws.dtype == np.float64 and draws.shape == (5,)


def numpy_with_buffered_word(word: int, like: rng.PCG64) -> Generator:
    """numpy's PCG64 at like's LCG state, with word as its buffered
    32-bit half, so numpy's next 32-bit draw returns word."""
    bit_gen = NumpyPCG64()
    bit_gen.state = {"bit_generator": "PCG64",
                     "state": {"state": like.state, "inc": like.inc},
                     "has_uint32": 1, "uinteger": word}
    return Generator(bit_gen)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_rejected_word_matches_numpy(k):
    # a rejected buffered word is consumed, the redraw takes the low
    # half of a fresh 64-bit output and buffers its high half
    ours = rng.PCG64(17)
    ours.half = k * INV7 % 2 ** 32
    ref = numpy_with_buffered_word(ours.half, ours)
    assert instance_draws(ours) == instance_draws(ref)


def test_first_accepted_word_matches_numpy():
    # 7 w mod 2^32 = 4 equals the threshold: w is accepted
    ours = rng.PCG64(17)
    w = ours.half = 4 * INV7 % 2 ** 32
    ref = numpy_with_buffered_word(w, ours)
    assert ours.integers(2, 9) == ref.integers(2, 9) == 2 + (7 * w >> 32)
    assert instance_draws(ours) == instance_draws(ref)


def test_lemire_rejection_on_crafted_words(monkeypatch):
    # three rejected words in a row, then w = 2^31: 7 w >> 32 = 3
    words = [0, INV7, 3 * INV7 % 2 ** 32, 2 ** 31]
    gen = rng.PCG64(0)
    monkeypatch.setattr(gen, "next32", iter(words).__next__)
    assert gen.integers(2, 9) == 5
    # a power-of-two range has threshold 0: word 0 is kept
    monkeypatch.setattr(gen, "next32", iter([0]).__next__)
    assert gen.integers(2, 6) == 2


def test_verify_battery_past_two_to_the_64(tmp_path, monkeypatch):
    # --seed 2^64 - 1 gives battery seeds 2^64 - 1, 2^64 and 2^64 + 1,
    # two and three 32-bit words wide
    drawn, draw = [], verification.random_instance

    def recorded(seed):
        drawn.append(seed)
        return draw(seed)

    monkeypatch.setattr(verification, "random_instance", recorded)
    config = {"grid": {"n": 8}, "modes": {"count": 3, "delta_eps": 0.7},
              "coupling": {"kind": "gaussian_attractive", "g": 1.0,
                           "sigma": 0.2},
              "hg": {"stiffness": 0.1,
                     "potential": {"kind": "double_well", "depth": 1,
                                   "width": 0.08, "centers": [0.3, 0.7]}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out-dir", str(out),
                 "--seed", str(2 ** 64 - 1), "--instances", "3"]) == 0
    assert drawn == [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1]
    battery = json.loads(
        (out / "verify_report.json").read_text())["random_battery"]
    assert battery["n_instances"] == 3 and battery["all_passed"]
