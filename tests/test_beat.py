"""Counter-based generator and the stochastic beat process."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from epbeat import (ConfigError, empirical_freqs, mean_intermediate_density,
                    simulate_beat, solve_problem)
from epbeat import rng
from epbeat.beat import BeatTrajectory
from epbeat.cli import _fmt_float, _write_ticks, write_events_csv
from epbeat.verification import two_well_instance
from instances import zero_coupling_instance

# Published SplitMix64 reference outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F)

MASK64 = (1 << 64) - 1

# sha256 of events.csv for the two-well Born beat, 100_001 cycles, seed 1,
# as the binary-search draw and the one-digit tick writer wrote it; the
# same bytes `epbeat beat` writes for the serialized two-well config
TWO_WELL_BORN_SHA256 = \
    "3f9364c89427baf0592182115ccd4e8b70e94832833bae21b5cf353ca2130075"

WEIGHTS = {
    "zeros": [0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0],
    "single": [2.5],
    "random300": np.random.default_rng(300).random(300),
    # 100 boundaries inside one guide bucket
    "packed": np.r_[0.5, np.full(100, 1e-6), 0.5],
    "tiny": [0.4, 1e-300, 0.6],
    # cumulative sums that end below 1: 1 - 9e-16 and, at K = 256,
    # 1 - 7e-16, so the clip runs before a uint8 store
    "short_total": np.ones(37),
    "short_total_256": np.random.default_rng(1).random(256),
}

# (seed, start, count): one draw, whole chunks, and ragged windows
WINDOWS = [(7, 0, 1), (7, 0, rng.DRAW_CHUNK),
           (2 ** 63, 5, 3 * rng.DRAW_CHUNK + 17), (123, 1000, 200_003)]


@pytest.fixture(scope="module")
def two_well_rs():
    return solve_problem(two_well_instance(), pr_threshold=2.0).rs


def event_rows(traj, tmp_path):
    """The data rows of the events.csv written for traj, split."""
    path = tmp_path / "events.csv"
    write_events_csv(path, traj)
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def traced_peak(fn):
    """fn's result and the traced allocation peak above entry, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def value_at(seed: int, index: int) -> int:
    """The index-th raw 64-bit output of the stream keyed by seed, in
    Python integers: the scalar reference for rng.uniform_block."""
    return mix64((seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64)


def uniform_at(seed: int, index: int) -> float:
    """The index-th uniform double in [0, 1)."""
    return (value_at(seed, index) >> 11) * 2.0 ** -53


def ref_categorical(seed, start, count, alpha):
    """The binary-search draw the guide table replaced."""
    alpha = np.asarray(alpha, dtype=float)
    cum = np.cumsum(alpha / alpha.sum())
    ids = np.searchsorted(cum, rng.uniform_block(seed, start, count),
                          side="right")
    return np.minimum(ids, alpha.size - 1)


def reference_events_csv(traj):
    """events.csv formatted one line at a time."""
    texts = ["nan" if coord != coord else _fmt_float(coord)
             for _, coord in traj.centers]
    lines = ["tick,realization_id,center_index,center_coord\n"]
    for t, j in enumerate(traj.ids.tolist()):
        lines.append(f"{t},{j},{traj.centers[j][0]},{texts[j]}\n")
    return "".join(lines).encode("ascii")


class TestGenerator:
    def test_reference_vectors(self):
        for i, expected in enumerate(SPLITMIX64_SEED0):
            assert value_at(0, i) == expected

    def test_vector_path_bit_identical(self):
        scalar = np.array([uniform_at(987654321, i) for i in range(64)])
        block = rng.uniform_block(987654321, 0, 64)
        assert np.array_equal(scalar, block)
        # offset windows agree too
        assert np.array_equal(rng.uniform_block(987654321, 10, 20),
                              scalar[10:30])

    def test_uniform_range(self):
        u = rng.uniform_block(3, 0, 10_000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.02

    def test_categorical_inverts_cumulative(self):
        alpha = np.array([0.2, 0.5, 0.3])
        draws = rng.categorical_block(11, 0, 5000, alpha)
        u = rng.uniform_block(11, 0, 5000)
        expected = np.minimum(np.searchsorted(np.cumsum(alpha), u,
                                              side="right"), 2)
        assert np.array_equal(draws, expected)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_categorical_matches_binary_search(self, name, window):
        alpha = WEIGHTS[name]
        ids = rng.categorical_block(*window, alpha)
        assert np.array_equal(ids, ref_categorical(*window, alpha))
        assert ids.dtype == np.min_scalar_type(len(alpha) - 1)

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_categorical_exact_at_boundaries(self, name, monkeypatch):
        # uniforms at, just below and just above every bucket edge and
        # every cumulative boundary, and the largest uniform
        alpha = np.asarray(WEIGHTS[name], dtype=float)
        cum = np.cumsum(alpha / alpha.sum())
        m = 1 << rng.GUIDE_BITS
        edges = np.r_[np.arange(m) / m, cum, 1.0 - 2.0 ** -53]
        u = np.unique(np.r_[edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 1.0)])
        u = u[u < 1.0]
        monkeypatch.setattr(rng, "uniform_block",
                            lambda seed, start, count: u[start:start + count])
        expected = np.minimum(np.searchsorted(cum, u, side="right"),
                              alpha.size - 1)
        assert np.array_equal(rng.categorical_block(0, 0, u.size, alpha),
                              expected)

    def test_top_of_counter_range(self):
        # the counters wrap mod 2^64 like the scalar path's
        top = 2 ** 64 - 1
        scalar = np.array([uniform_at(5, top - 2 + i) for i in range(5)])
        assert np.array_equal(rng.uniform_block(5, top, 1), scalar[2:3])
        assert np.array_equal(rng.uniform_block(5, top - 2, 5), scalar)
        alpha = WEIGHTS["random300"]
        cum = np.cumsum(alpha / alpha.sum())
        expected = np.minimum(np.searchsorted(cum, scalar[2:], side="right"),
                              alpha.size - 1)
        assert np.array_equal(rng.categorical_block(5, top, 3, alpha),
                              expected)

    @pytest.mark.parametrize("start, count", [(-1, 2), (-3, 5), (-1, 0)])
    def test_uniform_rejects_negative_start(self, start, count):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            rng.uniform_block(1, start, count)

    @pytest.mark.parametrize("start, count", [(-1, 2), (-3, 5), (-1, 0)])
    def test_categorical_rejects_negative_start(self, start, count):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            rng.categorical_block(1, start, count, [0.5, 0.5])


class TestSimulateBeat:
    def test_single_realization_constant(self):
        rs = solve_problem(zero_coupling_instance()).rs
        traj = simulate_beat(rs, 200, seed=5, mode="uniform")
        assert set(traj.ids.tolist()) == {0}
        assert all(traj.centers[j][0] == -1 for j in traj.ids)

    def test_identical_seeds_identical_trajectories(self, two_well_rs):
        a = simulate_beat(two_well_rs, 1000, seed=42, mode="uniform")
        b = simulate_beat(two_well_rs, 1000, seed=42, mode="uniform")
        assert np.array_equal(a.ids, b.ids)
        c = simulate_beat(two_well_rs, 1000, seed=43, mode="uniform")
        assert not np.array_equal(a.ids, c.ids)

    def test_ticks_count_up_from_zero(self, two_well_rs, tmp_path):
        traj = simulate_beat(two_well_rs, 50, seed=1, mode="uniform")
        rows = event_rows(traj, tmp_path)
        assert [int(r[0]) for r in rows] == list(range(50))

    def test_events_carry_group_centers(self, two_well_rs, tmp_path):
        traj = simulate_beat(two_well_rs, 100, seed=2, mode="uniform")
        centers = {g.center_index: g.center_coord
                   for g in two_well_rs.groups}
        rows = event_rows(traj, tmp_path)
        assert [int(r[1]) for r in rows] == traj.ids.tolist()
        for _, _, index, coord in rows:
            assert int(index) in centers
            assert float(coord) == centers[int(index)]

    @pytest.mark.parametrize("t", [1, 10, 100, 101, 9_999, 10_000, 10_001,
                                   rng.DRAW_CHUNK + 1, 65_537, 100_003,
                                   1_000_001])
    @pytest.mark.parametrize("kind", ["groups", "intermediate"])
    def test_writer_matches_per_line_reference(self, two_well_rs, tmp_path,
                                               t, kind):
        # tick digit counts change at powers of ten, blocks at the chunk
        rs = (two_well_rs if kind == "groups"
              else solve_problem(zero_coupling_instance()).rs)
        traj = simulate_beat(rs, t, seed=t, mode="uniform")
        assert len(traj.centers) == (len(two_well_rs.groups)
                                     if kind == "groups" else 1)
        path = tmp_path / "events.csv"
        write_events_csv(path, traj)
        assert path.read_bytes() == reference_events_csv(traj)

    @pytest.mark.parametrize("chunk", [7, 64, 1000])
    @pytest.mark.parametrize("t", [1, 99, 101, 1_000, 12_345])
    def test_writer_matches_reference_at_any_chunk_start(
            self, two_well_rs, tmp_path, monkeypatch, chunk, t):
        # chunk starts on every residue mod 100, pieces that end inside
        # a 100-tick block; the writer reads the chunk at call time
        traj = simulate_beat(two_well_rs, t, seed=chunk, mode="uniform")
        monkeypatch.setattr(rng, "DRAW_CHUNK", chunk)
        path = tmp_path / "events.csv"
        write_events_csv(path, traj)
        assert path.read_bytes() == reference_events_csv(traj)

    @pytest.mark.parametrize("t", [131_073, 199_999])
    def test_writer_matches_reference_for_uint16_ids(self, tmp_path, t):
        # 300 realizations, suffixes of 9 to 36 bytes
        coords = [float("nan"), 0.5, -1.2345678901234567e-300,
                  9.8765432109876543e+200, 0.0, -0.0, 1e16, 3.0000000000000004]
        centers = tuple((-1 if j % 7 == 0 else j * 37, coords[j % len(coords)])
                        for j in range(300))
        ids = np.random.default_rng(t).integers(0, 300, t).astype(np.uint16)
        traj = BeatTrajectory(seed=0, mode="uniform", ids=ids, centers=centers)
        path = tmp_path / "events.csv"
        write_events_csv(path, traj)
        assert path.read_bytes() == reference_events_csv(traj)

    @pytest.mark.parametrize("a, b", [
        (0, 10), (10, 100), (100, 1000), (37, 41), (199, 301),
        (10 ** 12 - 250, 10 ** 12), (10 ** 12, 10 ** 12 + 1234),
        (10 ** 12 + 37, 10 ** 12 + 338), (2 ** 64 - 1234, 2 ** 64),
        (2 ** 64 - 99, 2 ** 64 - 98)])
    def test_tick_digits_match_str(self, a, b):
        d = len(str(a))
        rows = np.zeros((b - a, d + 3), dtype=np.uint8)
        _write_ticks(rows, a, b)
        assert not rows[:, d:].any()
        assert rows[:, :d].tobytes() == "".join(
            str(t) for t in range(a, b)).encode("ascii")

    def test_two_well_born_events_pinned(self, tmp_path):
        result = solve_problem(two_well_instance())
        rs = result.rs.with_born(mean_intermediate_density(result))
        path = tmp_path / "events.csv"
        write_events_csv(path, simulate_beat(rs, 100_001, seed=1,
                                             mode="born"))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == TWO_WELL_BORN_SHA256

    def test_two_well_born_working_set_bounded(self, tmp_path):
        # a 1e6-tick beat draws and writes in chunk-sized buffers: past
        # the ids themselves, neither peak grows with T
        result = solve_problem(two_well_instance())
        rs = result.rs.with_born(mean_intermediate_density(result))
        traj, draw_peak = traced_peak(
            lambda: simulate_beat(rs, 1_000_000, seed=7, mode="born"))
        assert draw_peak <= traj.ids.nbytes + 0.75 * 2 ** 20
        _, write_peak = traced_peak(
            lambda: write_events_csv(tmp_path / "events.csv", traj))
        assert write_peak <= 1.25 * 2 ** 20

    def test_binomial_convergence(self, two_well_rs):
        t = 100_000
        traj = simulate_beat(two_well_rs, t, seed=7, mode="uniform")
        bound = 3.0 * np.sqrt(0.25 / t)
        assert abs(traj.empirical[0] - 0.5) <= bound

    def test_rejects_zero_cycles(self, two_well_rs):
        with pytest.raises(ConfigError, match="T >= 1"):
            simulate_beat(two_well_rs, 0, seed=0, mode="uniform")

    def test_rejects_missing_mode(self, two_well_rs):
        with pytest.raises(ConfigError, match="born"):
            simulate_beat(two_well_rs, 10, seed=0, mode="born")


class TestEmpiricalFreqs:
    def test_counting(self):
        traj = BeatTrajectory(seed=0, mode="uniform",
                              ids=np.array([0, 1, 0, 1]),
                              centers=((0, 0.0), (1, 1.0)))
        assert empirical_freqs(traj) == (0.5, 0.5)

    def test_single_id(self):
        traj = BeatTrajectory(seed=0, mode="uniform", ids=np.array([0]),
                              centers=((3, 0.3),))
        assert empirical_freqs(traj) == (1.0,)

    def test_chunked_count_equals_one_bincount(self):
        # three whole count chunks plus a partial one
        t = 3 * rng.DRAW_CHUNK + 17
        ids = np.random.default_rng(5).integers(0, 4, t, dtype=np.uint8)
        traj = BeatTrajectory(seed=0, mode="uniform", ids=ids,
                              centers=tuple((j, 0.0) for j in range(5)))
        want = np.bincount(ids, minlength=5) / t
        assert empirical_freqs(traj) == tuple(want)

    def test_chi_square_over_seeds(self, two_well_rs):
        # goodness-of-fit oracle at the 99.9% quantile
        t = 100_000
        alpha = np.array(two_well_rs.alphas["uniform"])
        crit = stats.chi2.ppf(0.999, df=alpha.size - 1)
        failures = 0
        for seed in range(20):
            traj = simulate_beat(two_well_rs, t, seed=seed, mode="uniform")
            emp = np.array(empirical_freqs(traj))
            chi2 = t * np.sum((emp - alpha) ** 2 / alpha)
            if chi2 >= crit:
                failures += 1
        assert failures == 0

    def test_reversal_keeps_freqs_breaks_reproduction(self, two_well_rs):
        traj = simulate_beat(two_well_rs, 500, seed=13, mode="uniform")
        ids = traj.ids
        reversed_ids = ids[::-1]
        assert np.array_equal(np.bincount(ids), np.bincount(reversed_ids))
        regenerated = simulate_beat(two_well_rs, 500, seed=13,
                                    mode="uniform").ids
        assert np.array_equal(ids, regenerated)
        assert not np.array_equal(reversed_ids, regenerated)
