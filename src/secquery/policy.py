"""Threshold strategy execution on a stream of relative ranks.

An episode walks t = 1..n over the relative ranks z_t.  At a record (z_t = 1)
with queries remaining and t at or past the current query threshold, the
expert is queried; the episode stops there iff t is at or past the stop
threshold for the response.  Once the budget is spent, the first record at or
past the final threshold stops the episode.  Episodes that never stop are
failures, not errors.

This is one of three walkers of a ``ThresholdSet``, with ``sim`` and
``oracle``; they are checked against one another, so none imports another.
``run_strategy`` checks only the horizon n, since a rank stream has no K or M.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .solver import HorizonMismatch, ThresholdSet

# A response source: called with (time, current sample is best) -> level 1..M.
Genie = Callable[[int, bool], int]


class NotAPermutation(ValueError):
    pass


class GenieExhausted(RuntimeError):
    """A scripted response list ran out before the strategy stopped querying."""


@dataclass(frozen=True)
class RankStream:
    """Relative ranks z_1..z_n, with 1 <= z_t <= t (z_t = 1 marks a record)."""

    n: int
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", tuple(self.z))
        if self.n < 1 or len(self.z) != self.n:
            raise ValueError(f"rank stream needs exactly n={self.n} entries, got {len(self.z)}")
        for t, zt in enumerate(self.z, start=1):
            if not (1 <= zt <= t):
                raise ValueError(f"z_{t} = {zt} outside 1..{t}")

    @property
    def best_time(self) -> int:
        """Arrival time of the overall best sample: the last record."""
        return max(t for t, zt in enumerate(self.z, start=1) if zt == 1)


@dataclass(frozen=True)
class EpisodeOutcome:
    selected: int | None
    queries_used: tuple[tuple[int, int], ...]  # (time, response level), increasing times
    stopped_at_query: bool
    success: bool


def _check_permutation(permutation: Sequence[int]) -> None:
    n = len(permutation)
    if n < 1 or sorted(permutation) != list(range(1, n + 1)):
        raise NotAPermutation(f"input of length {n} is not a permutation of 1..{n}")


def relative_ranks(permutation: Sequence[int]) -> RankStream:
    """Observable rank stream of a permutation: z_t = 1 + #{l < t : xi_l < xi_t}."""
    _check_permutation(permutation)
    n = len(permutation)
    z = tuple(
        1 + sum(1 for l in range(t - 1) if permutation[l] < permutation[t - 1])
        for t in range(1, n + 1)
    )
    return RankStream(n=n, z=z)


def hindsight_best(permutation: Sequence[int]) -> int:
    """Arrival time of the sample with value 1 (the success ground truth)."""
    _check_permutation(permutation)
    return list(permutation).index(1) + 1


class ScriptedGenie:
    """Replays a fixed response list; raises GenieExhausted when it runs out."""

    def __init__(self, responses: Iterable[int]) -> None:
        self._responses = list(responses)
        self._next = 0

    def __call__(self, t: int, is_best: bool) -> int:
        if self._next >= len(self._responses):
            raise GenieExhausted(f"scripted genie exhausted after {self._next} responses")
        level = self._responses[self._next]
        self._next += 1
        return level


def run_strategy(thresholds: ThresholdSet, stream: RankStream, genie: Genie) -> EpisodeOutcome:
    """Execute the threshold strategy on one rank stream.

    The walk keeps the stage k: query k for k <= K, the final stop at
    k = K+1.  Stage k acts at the first record at or past ``gates[k-1]``.  A
    query and a final stop can never happen at the same time step: after a
    query that continues, the walk moves on to t+1.  A genie response must
    be an integer (anything ``operator.index`` takes, numpy integers too) in
    1..M, or ValueError names it; the level is recorded as an int.
    """
    if thresholds.n != stream.n:
        raise HorizonMismatch(f"thresholds solved for n={thresholds.n}, stream has n={stream.n}")
    n, K, M = stream.n, thresholds.K, thresholds.M
    gates = thresholds.gates
    best_time = stream.best_time
    k = 1
    queries: list[tuple[int, int]] = []
    selected: int | None = None
    stopped_at_query = False
    for t in range(1, n + 1):
        if stream.z[t - 1] != 1 or t < gates[k - 1]:
            continue
        if k > K:
            selected = t
            break
        response = genie(t, t == best_time)
        try:
            level = operator.index(response)
        except TypeError:
            level = None
        if level not in range(1, M + 1):
            raise ValueError(f"genie response {response} outside 1..{M}")
        queries.append((t, level))
        if t >= thresholds.s[k - 1][level - 1]:
            selected, stopped_at_query = t, True
            break
        k += 1
    return EpisodeOutcome(
        selected=selected,
        queries_used=tuple(queries),
        stopped_at_query=stopped_at_query,
        success=selected == best_time,
    )
