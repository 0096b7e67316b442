"""Temporal calculus: interval algebra, trends, and change-point detection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from .errors import SeriesTooShort
from .tag import X


@dataclass(frozen=True)
class Interval:
    """Half-open interval [start, end) in frame ordinals or milliseconds."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"interval start {self.start} must be < end {self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start


class AllenRelation(Enum):
    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    STARTS = "starts"
    DURING = "during"
    FINISHES = "finishes"
    EQUALS = "equals"
    AFTER = "after"
    MET_BY = "met_by"
    OVERLAPPED_BY = "overlapped_by"
    STARTED_BY = "started_by"
    CONTAINS = "contains"
    FINISHED_BY = "finished_by"


CONVERSE = {
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.DURING: AllenRelation.CONTAINS,
    AllenRelation.FINISHES: AllenRelation.FINISHED_BY,
    AllenRelation.EQUALS: AllenRelation.EQUALS,
}
CONVERSE.update({v: k for k, v in list(CONVERSE.items())})


def allen(a: Interval, b: Interval) -> AllenRelation:
    """The single interval-algebra relation holding between a and b."""
    if a.start == b.start and a.end == b.end:
        return AllenRelation.EQUALS
    if a.end < b.start:
        return AllenRelation.BEFORE
    if b.end < a.start:
        return AllenRelation.AFTER
    if a.end == b.start:
        return AllenRelation.MEETS
    if b.end == a.start:
        return AllenRelation.MET_BY
    if a.start == b.start:
        return AllenRelation.STARTS if a.end < b.end else AllenRelation.STARTED_BY
    if a.end == b.end:
        return AllenRelation.FINISHES if a.start > b.start else AllenRelation.FINISHED_BY
    if b.start < a.start and a.end < b.end:
        return AllenRelation.DURING
    if a.start < b.start and b.end < a.end:
        return AllenRelation.CONTAINS
    return AllenRelation.OVERLAPS if a.start < b.start else AllenRelation.OVERLAPPED_BY


class Trend(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    FLAT = "flat"
    UNDETERMINED = "undetermined"


def trend(series: Sequence, span: Optional[Interval] = None,
          epsilon: Optional[float] = None) -> Trend:
    """Qualitative least-squares trend over the non-X samples of a span.

    ``epsilon`` is the slope deadband (units per sample); default is 1%
    of the span's value range.  Fewer than 3 non-X samples is
    UNDETERMINED.
    """
    lo, hi = (span.start, span.end) if span is not None else (0, len(series))
    xs, ys = [], []
    for i in range(lo, hi):
        v = series[i]
        if v is X:
            continue
        xs.append(float(i))
        ys.append(float(v))
    if len(ys) < 3:
        return Trend.UNDETERMINED
    slope = float(np.polyfit(xs, ys, 1)[0])
    if epsilon is None:
        epsilon = 0.01 * (max(ys) - min(ys))
    if slope > epsilon:
        return Trend.INCREASING
    if slope < -epsilon:
        return Trend.DECREASING
    return Trend.FLAT


def _l2_cost_factory(series: np.ndarray):
    """Segment cost = within-segment sum of squared deviations from the mean."""
    cs = np.concatenate([[0.0], np.cumsum(series)])
    cs2 = np.concatenate([[0.0], np.cumsum(series ** 2)])

    def cost(i: int, j: int) -> float:
        # segment series[i:j], j > i; the true L2 cost is non-negative, so
        # clamp the cumulative-sum rounding error away
        n = j - i
        s = cs[j] - cs[i]
        return max(0.0, (cs2[j] - cs2[i]) - s * s / n)

    return cost


def default_penalty(series: Sequence[float]) -> float:
    """BIC-style default: 2 * var(series) * ln(n).

    The variance estimate is floored relative to the data magnitude so a
    (near-)constant series never yields a penalty below floating-point
    noise, which would let epsilon cost savings buy spurious splits.
    Magnitudes past about 1e154 overflow the floor to inf, and inf or
    NaN samples make the variance NaN; either way the penalty is inf,
    so no split is taken.
    """
    arr = np.asarray(series, dtype=float)
    n = len(arr)
    if n <= 1:
        return 0.0
    scale = float(np.abs(arr).max()) or 1.0
    try:
        floor = (1e-5 * scale) ** 2
    except OverflowError:
        floor = math.inf
    var = max(float(arr.var()), floor)
    if math.isnan(var):
        return math.inf
    return 2.0 * var * math.log(n)


def pelt_changepoints(series: Sequence[float],
                      penalty: Optional[float] = None) -> List[int]:
    """Exact penalized L2 segmentation with PELT pruning.

    Returns the first indices of new segments, strictly increasing.
    The series must be gap-free (callers split on X themselves).
    """
    if any(v is X for v in series):
        raise ValueError("series contains don't-care slots; split on gaps first")
    arr = np.asarray(series, dtype=float)
    n = len(arr)
    if n < 2:
        raise SeriesTooShort(f"need at least 2 samples, got {n}")
    if penalty is None:
        penalty = default_penalty(arr)
    if penalty < 0:
        raise ValueError("penalty must be >= 0")

    # the cumulative sums of _l2_cost_factory, indexed by all live
    # candidates at once; each element takes the same IEEE steps as
    # cost(s, t), so the result equals a one-candidate-at-a-time scan
    cs = np.concatenate([[0.0], np.cumsum(arr)])
    cs2 = np.concatenate([[0.0], np.cumsum(arr ** 2)])
    # f[t] = optimal cost of series[0:t] including penalty per changepoint
    f = np.full(n + 1, math.inf)
    f[0] = 0.0
    prev = [0] * (n + 1)
    candidates = np.zeros(1, dtype=np.intp)   # ascending
    for t in range(1, n + 1):
        d = cs[t] - cs[candidates]
        cost = (cs2[t] - cs2[candidates]) - d * d / (t - candidates)
        # max(0.0, cost): clamp rounding error, and a NaN from inf - inf
        cost = np.where(cost > 0.0, cost, 0.0)
        fc = f[candidates] + cost
        # the first segment (s == 0) pays no changepoint penalty
        total = fc + np.where(candidates > 0, penalty, 0.0)
        i = int(total.argmin())   # the first minimum: ties go to the lowest s
        best = total[i]
        f[t] = best
        # a scan from best = inf, best_s = 0 that takes only c < best keeps
        # s = 0 when no total is finite (an inf or NaN penalty)
        prev[t] = int(candidates[i]) if best < math.inf else 0
        # prune: a candidate s can never be optimal again if even without
        # its future penalty it already exceeds the current optimum
        candidates = np.append(candidates[fc <= best + penalty], t)

    cps = []
    t = n
    while t > 0:
        s = prev[t]
        if s > 0:
            cps.append(s)
        t = s
    return sorted(cps)


def segmentation_cost(series: Sequence[float], changepoints: Sequence[int],
                      penalty: float) -> float:
    """Total penalized cost of a given segmentation (shared with tests)."""
    arr = np.asarray(series, dtype=float)
    cost = _l2_cost_factory(arr)
    bounds = [0] + list(changepoints) + [len(arr)]
    total = penalty * len(changepoints)
    for i in range(len(bounds) - 1):
        total += cost(bounds[i], bounds[i + 1])
    return total


def no_motion_span(motion: Sequence, alpha: float,
                   min_len: int) -> List[Interval]:
    """Maximal runs of >= min_len consecutive speeds <= alpha (X breaks runs)."""
    spans = []
    start = None
    for i, v in enumerate(motion):
        still = v is not X and v <= alpha
        if still and start is None:
            start = i
        elif not still and start is not None:
            if i - start >= min_len:
                spans.append(Interval(start, i))
            start = None
    if start is not None and len(motion) - start >= min_len:
        spans.append(Interval(start, len(motion)))
    return spans
