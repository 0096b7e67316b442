"""Interval algebra, trend, and change-point detection tests."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vekg.errors import SeriesTooShort
from vekg.tag import X
from vekg.temporal import (CONVERSE, AllenRelation, Interval, Trend,
                           _l2_cost_factory, allen, default_penalty,
                           pelt_changepoints, segmentation_cost, trend)


def all_intervals(hi=5):
    return [Interval(s, e) for s in range(hi + 1)
            for e in range(s + 1, hi + 1)]


def oracle_allen(a, b):
    """Each of the 13 relations by its defining endpoint comparisons."""
    defs = {
        AllenRelation.BEFORE: a.end < b.start,
        AllenRelation.MEETS: a.end == b.start,
        AllenRelation.OVERLAPS: a.start < b.start < a.end < b.end,
        AllenRelation.STARTS: a.start == b.start and a.end < b.end,
        AllenRelation.DURING: b.start < a.start and a.end < b.end,
        AllenRelation.FINISHES: b.start < a.start and a.end == b.end,
        AllenRelation.EQUALS: a.start == b.start and a.end == b.end,
        AllenRelation.AFTER: b.end < a.start,
        AllenRelation.MET_BY: b.end == a.start,
        AllenRelation.OVERLAPPED_BY: b.start < a.start < b.end < a.end,
        AllenRelation.STARTED_BY: a.start == b.start and b.end < a.end,
        AllenRelation.CONTAINS: a.start < b.start and b.end < a.end,
        AllenRelation.FINISHED_BY: a.start < b.start and a.end == b.end,
    }
    holding = [r for r, ok in defs.items() if ok]
    assert len(holding) == 1
    return holding[0]


class TestAllen:
    def test_meets(self):
        assert allen(Interval(0, 5), Interval(5, 10)) is AllenRelation.MEETS

    def test_during(self):
        assert allen(Interval(2, 4), Interval(0, 10)) is AllenRelation.DURING

    def test_equals(self):
        assert allen(Interval(0, 5), Interval(0, 5)) is AllenRelation.EQUALS

    def test_exhaustive_totality_and_exclusivity(self):
        # every endpoint ordering with endpoints in {0..5}
        for a, b in itertools.product(all_intervals(), repeat=2):
            assert allen(a, b) is oracle_allen(a, b)

    def test_exhaustive_converse_symmetry(self):
        for a, b in itertools.product(all_intervals(), repeat=2):
            assert allen(a, b) is CONVERSE[allen(b, a)]

    def test_thirteen_relations_all_reachable(self):
        seen = {allen(a, b)
                for a, b in itertools.product(all_intervals(), repeat=2)}
        assert seen == set(AllenRelation)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(5, 5)
        assert Interval(2, 7).length == 5


class TestTrend:
    def test_monotone_up(self):
        assert trend([1, 2, 3, 4]) is Trend.INCREASING

    def test_monotone_down(self):
        assert trend([4, 3, 2, 1]) is Trend.DECREASING

    def test_flat_skipping_x(self):
        assert trend([5, X, 5, 5], epsilon=0.1) is Trend.FLAT

    def test_undetermined_below_three_samples(self):
        assert trend([1, X, X, 2]) is Trend.UNDETERMINED

    def test_span_restriction(self):
        series = [9, 9, 1, 2, 3, 4]
        assert trend(series, Interval(2, 6)) is Trend.INCREASING


def brute_force_cost(series, penalty):
    """Minimum penalized cost over all 2^(n-1) split masks."""
    n = len(series)
    best = float("inf")
    for mask in range(1 << (n - 1)):
        cps = [i + 1 for i in range(n - 1) if mask >> i & 1]
        best = min(best, segmentation_cost(series, cps, penalty))
    return best


def dp_optimal_cost(series, penalty):
    """Unpruned O(n^2) exact dynamic program (same recurrence as PELT)."""
    from vekg.temporal import _l2_cost_factory
    import numpy as np
    arr = np.asarray(series, dtype=float)
    cost = _l2_cost_factory(arr)
    n = len(arr)
    f = [0.0] + [float("inf")] * n
    for t in range(1, n + 1):
        f[t] = min(f[s] + cost(s, t) + (penalty if s > 0 else 0.0)
                   for s in range(t))
    return f[n]


class TestPelt:
    def test_single_jump(self):
        assert pelt_changepoints([1, 1, 1, 1, 10, 10, 10, 10],
                                 penalty=5) == [4]

    def test_constant_series(self):
        assert pelt_changepoints([3.0] * 10, penalty=1) == []

    def test_double_jump(self):
        assert pelt_changepoints([0, 0, 9, 9, 0, 0], penalty=1) == [2, 4]

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            pelt_changepoints([1.0])

    def test_rejects_dont_care(self):
        with pytest.raises(ValueError):
            pelt_changepoints([1.0, X, 2.0], penalty=1)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            pelt_changepoints([1, 2, 3], penalty=-1)

    def test_default_penalty_suppresses_noise_splits(self):
        # near-constant data must not fragment under the BIC default
        rng = random.Random(3)
        series = [5.0 + rng.uniform(-1e-12, 1e-12) for _ in range(50)]
        assert pelt_changepoints(series) == []

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 10)
            series = [rng.choice([0.0, 1.0, 5.0]) + rng.random()
                      for _ in range(n)]
            penalty = rng.uniform(0.1, 5.0)
            cps = pelt_changepoints(series, penalty)
            got = segmentation_cost(series, cps, penalty)
            assert got == pytest.approx(brute_force_cost(series, penalty),
                                        abs=1e-9)

    def test_matches_unpruned_dp(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(2, 16)
            series = [rng.uniform(-5, 5) for _ in range(n)]
            penalty = rng.uniform(0.05, 10.0)
            cps = pelt_changepoints(series, penalty)
            # summation order differs, so allow float rounding slack
            assert segmentation_cost(series, cps, penalty) == pytest.approx(
                dp_optimal_cost(series, penalty), abs=1e-9)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=20),
           st.floats(0.01, 5), st.floats(0.01, 5))
    @settings(max_examples=100, deadline=None)
    def test_penalty_monotonicity(self, series, p1, p2):
        lo, hi = sorted((p1, p2))
        assert len(pelt_changepoints(series, hi)) <= \
            len(pelt_changepoints(series, lo))

    def test_default_penalty_scales_with_variance(self):
        small = default_penalty([0, 0.1, 0, 0.1] * 4)
        big = default_penalty([0, 10, 0, 10] * 4)
        assert big > small > 0

    @pytest.mark.parametrize("series", [
        [0.4] * 10 + [1e210] * 10,
        [1e200, -1e200, 1e200],
        [1.7e308] * 4,
        [1.0, math.inf, 2.0],
        [-math.inf, 0.0],
        [math.inf, -math.inf],
        [1.0, math.nan, 2.0],
    ])
    def test_default_penalty_never_raises_or_gives_nan(self, series):
        penalty = default_penalty(series)
        assert not math.isnan(penalty)
        assert penalty >= 0


def scalar_pelt(series, penalty=None):
    """The scalar PELT loop that scanned one candidate at a time.

    Kept as the reference for the vectorised scan: the same recurrence,
    tie-break (the first candidate in ascending order wins, by strict
    ``<``) and pruning, so the two must return equal lists.
    """
    arr = np.asarray(series, dtype=float)
    n = len(arr)
    if penalty is None:
        penalty = default_penalty(arr)
    cost = _l2_cost_factory(arr)
    f = [0.0] + [math.inf] * n
    prev = [0] * (n + 1)
    candidates = [0]
    for t in range(1, n + 1):
        best, best_s = math.inf, 0
        for s in candidates:
            c = f[s] + cost(s, t) + (penalty if s > 0 else 0.0)
            if c < best:
                best, best_s = c, s
        f[t] = best
        prev[t] = best_s
        candidates = [s for s in candidates
                      if f[s] + cost(s, t) <= best + penalty]
        candidates.append(t)
    cps = []
    t = n
    while t > 0:
        s = prev[t]
        if s > 0:
            cps.append(s)
        t = s
    return sorted(cps)


PENALTIES = [None, 0, 3, 2.5]   # the BIC default, zero, an int, a float


class TestPeltMatchesScalarReference:
    """Exact list equality with the scalar loop, not a cost tolerance."""

    def check(self, series, penalties=PENALTIES):
        for penalty in penalties:
            got = pelt_changepoints(series, penalty)
            assert got == scalar_pelt(series, penalty), (series, penalty)
            assert type(got) is list
            assert all(type(cp) is int for cp in got)

    def test_seeded_random_series(self):
        rng = random.Random(2026)
        lengths = [2, 3, 4, 7, 16, 61, 150, 300, 400]
        lengths += [rng.randint(2, 400) for _ in range(3)]
        for n in lengths:
            # piecewise levels plus noise, like an aspect-ratio series
            series, level = [], rng.uniform(0.2, 3.0)
            for _ in range(n):
                if rng.random() < 0.02:
                    level = rng.uniform(0.2, 3.0)
                series.append(level + rng.gauss(0.0, 0.05))
            self.check(series)
            self.check([rng.uniform(-5, 5) for _ in range(n)], [1.5])

    def test_integer_series_with_exact_ties(self):
        # [0, 2] costs 2 unsplit and 0 + 0 + 2 split: the first wins
        assert pelt_changepoints([0, 2], penalty=2) == []
        self.check([0, 2], [2])
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 60)
            self.check([rng.choice([0, 1, 2]) for _ in range(n)],
                       [None, 0, 1, 2, 3, 0.5])

    def test_constant_step_and_alternating_series(self):
        for n in (2, 3, 10, 101, 300):
            self.check([3.0] * n)
            self.check([0.0] * (n // 2) + [5.0] * (n - n // 2))
            self.check([float(i % 2) for i in range(n)])

    def test_non_finite_costs_and_penalties(self):
        # an aspect ratio can overflow to inf, squares to inf (NaN costs,
        # clamped to 0), and a direct caller may pass an infinite or NaN
        # penalty
        with np.errstate(all="ignore"):
            self.check([1.0, 2.0, math.inf, 2.0, 1.0, 1.0],
                       [0, 1.5, math.inf])
            self.check([1e200, -1e200, 1e200, 3.0, 3.0, 4.0],
                       [0, 2.5, math.inf])
            self.check([1.0, 1.0, 5.0, 5.0, 1.0], [math.inf, math.nan])
            self.check([1.0, math.inf, 2.0])
