"""Stochastic simulation of the realization-switching beat process.

Each cycle the system passes through the intermediate realization and
reduces to one regular realization, drawn independently with the
fixed weights alpha; one completed reduction-extension cycle is one
time tick. The draw at tick t uses output t of the counter-based
generator, so a trajectory is a pure function of
(realization set, T, seed, mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError
from .realizations import RealizationSet


@dataclass(frozen=True)
class BeatTrajectory:
    """T reduction events: ids[t] is the realization drawn at tick t.

    ids has the smallest unsigned integer dtype that holds the largest
    realization id (uint8 for up to 256 realizations).

    centers[j] is the (center_index, center_coord) of realization j,
    where every event of that realization is reduced.
    """

    seed: int
    mode: str
    ids: np.ndarray
    centers: tuple

    @property
    def length(self) -> int:
        return self.ids.size

    @property
    def empirical(self) -> tuple:
        return empirical_freqs(self)


def simulate_beat(rs: RealizationSet, t: int, seed: int,
                  mode: str) -> BeatTrajectory:
    """Generate T reduction events with the weights attached for mode.

    When no regular group exists the intermediate realization is the
    only outcome; its events carry the sentinel center index -1 (no
    sharp center of reduction).
    """
    if t < 1:
        raise ConfigError(f"cycles: need T >= 1, got {t}")
    if mode not in rs.alphas:
        raise ConfigError(
            f"simulate_beat: probabilities not computed for mode {mode!r}")
    alpha = np.asarray(rs.alphas[mode], dtype=float)
    if alpha.size == 0:
        raise ConfigError("simulate_beat: empty realization set")
    centers = tuple((g.center_index, g.center_coord) for g in rs.groups) \
        or ((-1, float("nan")),)
    return BeatTrajectory(seed=seed, mode=mode,
                          ids=rng.categorical_block(seed, 0, t, alpha),
                          centers=centers)


def empirical_freqs(traj: BeatTrajectory) -> tuple:
    """Visit frequency per realization id, count_j / T.

    Counted rng.DRAW_CHUNK ids at a time: bincount widens its input to
    intp, so a whole-trajectory call would copy the ids at 8 bytes each.
    """
    if traj.length == 0:
        raise ConfigError("empirical_freqs: empty trajectory")
    counts = sum(np.bincount(traj.ids[a:a + rng.DRAW_CHUNK],
                             minlength=len(traj.centers))
                 for a in range(0, traj.length, rng.DRAW_CHUNK))
    return tuple(counts.astype(float) / traj.length)
