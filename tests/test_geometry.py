"""Spatial calculus tests: worked examples plus an independent point-set oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vekg.errors import CoincidentCentroids, InvalidRegion, ZeroLengthSegment
from vekg.geometry import (BoundingBox, DirectionClass, Region,
                           SpatialRelationClass as S, centroid_distance,
                           direction, inside_region, overlap_ratio,
                           point_distance, segment_angle, topology)


# ---------------------------------------------------------------------------
# independent oracle: classify a box pair by explicit point membership on a
# half-step grid (exact for integer-coordinate boxes)

def _grid(lo, hi):
    n = int((hi - lo) * 2) + 1
    return [lo + 0.5 * k for k in range(n)]


def oracle_topology(a: BoundingBox, b: BoundingBox):
    lo = min(a.x, a.y, b.x, b.y) - 1
    hi = max(a.x2, a.y2, b.x2, b.y2) + 1
    pts = [(x, y) for x in _grid(lo, hi) for y in _grid(lo, hi)]

    def closed(box, p):
        return box.x <= p[0] <= box.x2 and box.y <= p[1] <= box.y2

    def interior(box, p):
        return box.x < p[0] < box.x2 and box.y < p[1] < box.y2

    a_closed = {p for p in pts if closed(a, p)}
    b_closed = {p for p in pts if closed(b, p)}
    a_open = {p for p in pts if interior(a, p)}
    b_open = {p for p in pts if interior(b, p)}
    a_bound = a_closed - a_open
    b_bound = b_closed - b_open

    out = set()
    if not (a_closed & b_closed):
        return frozenset({S.DISJOINT})
    out.add(S.INTERSECT)
    if not (a_open & b_open):
        out.add(S.TOUCH)
        return frozenset(out)
    a_in_b = a_closed <= b_closed
    b_in_a = b_closed <= a_closed
    if b_in_a:
        out.add(S.CONTAINS)
    if a_in_b:
        out.add(S.WITHIN)
        if a_closed <= b_open:
            out.add(S.INSIDE)
        elif a_bound & b_bound:
            out.add(S.COVERED_BY)
    if not a_in_b and not b_in_a:
        out.add(S.OVERLAP)
    return frozenset(out)


int_boxes = st.tuples(st.integers(0, 6), st.integers(0, 6),
                      st.integers(1, 6), st.integers(1, 6)).map(
                          lambda t: BoundingBox(*t))
boxes = st.tuples(st.floats(-100, 100), st.floats(-100, 100),
                  st.floats(0.5, 100), st.floats(0.5, 100)).map(
                      lambda t: BoundingBox(*t))


class TestTopology:
    def test_disjoint(self):
        assert topology(BoundingBox(0, 0, 10, 10),
                        BoundingBox(20, 20, 5, 5)) == {S.DISJOINT}

    def test_touch_shared_edge(self):
        assert topology(BoundingBox(0, 0, 10, 10),
                        BoundingBox(10, 0, 10, 10)) == {S.TOUCH, S.INTERSECT}

    def test_containment_both_views(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(2, 2, 4, 4)
        assert topology(a, b) == {S.CONTAINS, S.INTERSECT}
        # b sits strictly inside a, avoiding a's boundary entirely
        assert topology(b, a) == {S.WITHIN, S.INSIDE, S.INTERSECT}

    def test_covered_by_on_boundary_contact(self):
        a = BoundingBox(0, 0, 4, 4)
        b = BoundingBox(0, 0, 10, 10)
        assert S.COVERED_BY in topology(a, b)
        assert S.INSIDE not in topology(a, b)

    def test_equal_boxes(self):
        a = BoundingBox(1, 1, 5, 5)
        t = topology(a, BoundingBox(1, 1, 5, 5))
        assert S.CONTAINS in t and S.WITHIN in t and S.COVERED_BY in t

    def test_crosses_never_returned(self):
        for pair in [((0, 0, 10, 10), (5, 5, 10, 10)),
                     ((0, 0, 3, 3), (0, 0, 3, 3))]:
            assert S.CROSSES not in topology(BoundingBox(*pair[0]),
                                             BoundingBox(*pair[1]))

    @given(int_boxes, int_boxes)
    @settings(max_examples=300, deadline=None)
    def test_matches_point_set_oracle(self, a, b):
        assert topology(a, b) == oracle_topology(a, b)

    @given(boxes, boxes)
    @settings(max_examples=200, deadline=None)
    def test_intersect_iff_not_disjoint(self, a, b):
        t = topology(a, b)
        assert (S.INTERSECT in t) == (S.DISJOINT not in t)

    @given(boxes, boxes)
    @settings(max_examples=200, deadline=None)
    def test_contains_within_duality(self, a, b):
        assert (S.CONTAINS in topology(a, b)) == (S.WITHIN in topology(b, a))


class TestMetricOps:
    def test_overlap_ratio_identity(self):
        a = BoundingBox(0, 0, 10, 10)
        assert overlap_ratio(a, a) == 1.0

    def test_overlap_ratio_half(self):
        assert overlap_ratio(BoundingBox(0, 0, 10, 10),
                             BoundingBox(5, 0, 10, 10)) == 0.5

    def test_overlap_ratio_disjoint(self):
        assert overlap_ratio(BoundingBox(0, 0, 4, 4),
                             BoundingBox(100, 100, 4, 4)) == 0.0

    def test_centroid_distance_345(self):
        a = BoundingBox(-1, -1, 2, 2)     # centroid (0, 0)
        b = BoundingBox(2, 3, 2, 2)       # centroid (3, 4)
        assert centroid_distance(a, b) == pytest.approx(5.0)

    def test_point_distance(self):
        assert point_distance((0, 0), (0, 0)) == 0.0
        assert point_distance((0, 0), (6, 8)) == pytest.approx(10.0)
        assert point_distance((2, 3), (5, 7)) == pytest.approx(5.0)

    @given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_distance_symmetry_and_triangle(self, p, q, r):
        assert point_distance(p, q) == pytest.approx(point_distance(q, p))
        assert point_distance(p, r) <= \
            point_distance(p, q) + point_distance(q, r) + 1e-9


class TestDirection:
    def test_pure_vertical(self):
        a = BoundingBox(45, 5, 10, 10)    # centroid (50, 10)
        b = BoundingBox(45, 85, 10, 10)   # centroid (50, 90)
        assert direction(a, b) is DirectionClass.ABOVE

    def test_pure_horizontal(self):
        a = BoundingBox(85, 45, 10, 10)   # centroid (90, 50)
        b = BoundingBox(5, 45, 10, 10)    # centroid (10, 50)
        assert direction(a, b) is DirectionClass.RIGHT

    def test_axis_dominance(self):
        # |dy| = 80 dominates |dx| = 2: vertical class wins
        a = BoundingBox(5, 5, 10, 10)     # centroid (10, 10)
        b = BoundingBox(7, 85, 10, 10)    # centroid (12, 90)
        assert direction(a, b) is DirectionClass.ABOVE

    def test_coincident_centroids(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(2, 2, 6, 6)
        with pytest.raises(CoincidentCentroids):
            direction(a, b)

    @given(boxes, boxes)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, a, b):
        converse = {DirectionClass.ABOVE: DirectionClass.BELOW,
                    DirectionClass.BELOW: DirectionClass.ABOVE,
                    DirectionClass.LEFT: DirectionClass.RIGHT,
                    DirectionClass.RIGHT: DirectionClass.LEFT}
        try:
            d = direction(a, b)
        except CoincidentCentroids:
            return
        assert direction(b, a) is converse[d]


class TestSegmentAngle:
    def test_perpendicular(self):
        assert segment_angle(((0, 0), (1, 0)),
                             ((0, 0), (0, 1))) == pytest.approx(90.0)

    def test_parallel(self):
        assert segment_angle(((0, 0), (1, 0)),
                             ((5, 5), (6, 5))) == pytest.approx(0.0)

    def test_135_degrees(self):
        assert segment_angle(((0, 0), (1, 0)),
                             ((0, 0), (-1, 1))) == pytest.approx(135.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ZeroLengthSegment):
            segment_angle(((0, 0), (0, 0)), ((0, 0), (1, 1)))

    @given(st.floats(-20, 20), st.floats(-20, 20),
           st.floats(-20, 20), st.floats(-20, 20),
           st.floats(0.01, 100))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, ux, uy, vx, vy, k):
        if math.hypot(ux, uy) < 1e-6 or math.hypot(vx, vy) < 1e-6:
            return
        base = segment_angle(((0, 0), (ux, uy)), ((0, 0), (vx, vy)))
        scaled = segment_angle(((0, 0), (ux * k, uy * k)),
                               ((0, 0), (vx, vy)))
        assert scaled == pytest.approx(base, abs=1e-5)


class TestRegion:
    SQUARE = Region(((0, 0), (10, 0), (10, 10), (0, 10)))

    def test_centroid_inside(self):
        assert inside_region([BoundingBox(4, 4, 2, 2)], self.SQUARE) == [True]

    def test_centroid_outside(self):
        assert inside_region([BoundingBox(49, 49, 2, 2)], self.SQUARE) == [False]

    def test_centroid_on_edge_is_outside(self):
        # centroid (10, 5) lies exactly on the right edge
        assert inside_region([BoundingBox(9, 4, 2, 2)], self.SQUARE) == [False]

    def test_too_few_vertices(self):
        with pytest.raises(InvalidRegion):
            Region(((0, 0), (1, 1)))

    def test_zero_area(self):
        with pytest.raises(InvalidRegion):
            Region(((0, 0), (5, 5), (10, 10)))

    def test_self_intersecting(self):
        with pytest.raises(InvalidRegion):
            Region(((0, 0), (10, 10), (10, 0), (0, 10)))

    def test_concave_region(self):
        arrow = Region(((0, 0), (10, 0), (10, 10), (5, 3), (0, 10)))
        assert inside_region([BoundingBox(1, 1, 2, 2)], arrow) == [True]
        assert inside_region([BoundingBox(4, 7, 2, 2)], arrow) == [False]
