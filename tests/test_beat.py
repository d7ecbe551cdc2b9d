"""Counter-based generator and the stochastic beat process."""

import numpy as np
import pytest
from scipy import stats

from epbeat import ConfigError, empirical_freqs, simulate_beat, solve_problem
from epbeat import rng
from epbeat.beat import BeatTrajectory
from epbeat.cli import EVENTS_CHUNK, _fmt_float, write_events_csv
from epbeat.verification import two_well_instance, zero_coupling_instance

# Published SplitMix64 reference outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F)


@pytest.fixture(scope="module")
def two_well_rs():
    return solve_problem(two_well_instance(), pr_threshold=2.0).rs


def event_rows(traj, tmp_path):
    """The data rows of the events.csv written for traj, split."""
    path = tmp_path / "events.csv"
    write_events_csv(path, traj)
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def reference_events_csv(traj):
    """events.csv formatted one line at a time."""
    lines = ["tick,realization_id,center_index,center_coord\n"]
    for t, j in enumerate(traj.ids.tolist()):
        index, coord = traj.centers[j]
        text = "nan" if coord != coord else _fmt_float(coord)
        lines.append(f"{t},{j},{index},{text}\n")
    return "".join(lines).encode("ascii")


class TestGenerator:
    def test_reference_vectors(self):
        for i, expected in enumerate(SPLITMIX64_SEED0):
            assert rng.value_at(0, i) == expected

    def test_vector_path_bit_identical(self):
        scalar = np.array([rng.uniform_at(987654321, i) for i in range(64)])
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

    @pytest.mark.parametrize("t", [1, 10, 100, 101, EVENTS_CHUNK + 1,
                                   100_003])
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
