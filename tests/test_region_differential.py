"""Differential test of ``Region`` and ``inside_region`` against the
reference region code, which rebuilds the edge list in each function and
tests containment in two passes.

Both must reject the same polygons with the same message, and give the
same containment boolean for every centroid, above all for centroids
placed exactly on a vertex or an edge, where the on-edge test decides.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_region
from vekg.errors import InvalidRegion
from vekg.geometry import BoundingBox, Region, inside_region

GRID = st.integers(-6, 6)
COORDS = GRID | st.sampled_from([0.5, -2.5, 1e-9, -1e-300, 1e300]) | st.floats()
POLYGONS = st.lists(st.tuples(COORDS, COORDS), max_size=8)

# a convex and a concave region: vertices, edges and inside points on
# whole and half coordinates
SQUARE = ((0, 0), (10, 0), (10, 10), (0, 10))
ARROW = ((0, 0), (10, 0), (10, 10), (5, 3), (0, 10))


def verdict(check, polygon):
    try:
        check(polygon)
    except InvalidRegion as exc:
        return str(exc)
    return None


def box_at(px, py) -> BoundingBox:
    """A 2 x 2 box whose centroid is exactly (px, py) for the points used
    here (whole, half and quarter coordinates of modest size)."""
    box = BoundingBox(px - 1, py - 1, 2, 2)
    assert box.centroid == (px, py)
    return box


def probes(polygon):
    """Each vertex, points at quarters along each edge, and the centre of
    the vertices' bounding box."""
    n = len(polygon)
    out = list(polygon)
    for i in range(n):
        (x1, y1), (x2, y2) = polygon[i], polygon[(i + 1) % n]
        out += [(x1 + (x2 - x1) * k / 4, y1 + (y2 - y1) * k / 4) for k in (1, 2, 3)]
    xs, ys = [p[0] for p in polygon], [p[1] for p in polygon]
    out.append(((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2))
    return out


def assert_same_containment(reg: Region, points):
    for px, py in points:
        box = box_at(px, py)
        assert inside_region(box, reg) == reference_region.inside_region(box, reg), \
            (reg.polygon, (px, py))


@settings(max_examples=400, deadline=None)
@given(POLYGONS)
def test_same_invalid_region_verdicts(polygon):
    assert verdict(Region, polygon) == verdict(reference_region.check_polygon, polygon)


def test_named_invalid_region_verdicts():
    for polygon, message in [
            (((0, 0), (1, 1)), "region needs at least 3 vertices"),
            (((0, 0), (5, 5), (10, 10)), "region has zero area"),
            (((0, 0), (10, 10), (10, 0), (0, 20)), "region polygon is self-intersecting"),
            (((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)), None),   # touches, never crosses
            (SQUARE, None), (ARROW, None)]:
        assert verdict(Region, polygon) == message
        assert verdict(reference_region.check_polygon, polygon) == message


def test_edge_list_is_closed_and_outside_equality():
    reg = Region(ARROW)
    assert reg.edges == tuple(zip(reg.polygon, reg.polygon[1:] + reg.polygon[:1]))
    assert "edges" not in repr(reg)
    assert reg == Region(ARROW) and hash(reg) == hash(Region(ARROW))


@pytest.mark.parametrize("polygon", [SQUARE, ARROW], ids=["convex", "concave"])
def test_named_regions_on_a_half_grid(polygon):
    reg = Region(polygon)
    points = [(x / 2, y / 2) for x in range(-2, 23) for y in range(-2, 23)]
    assert_same_containment(reg, points)
    assert {inside_region(box_at(*p), reg) for p in points} == {True, False}
    assert not any(inside_region(box_at(*p), reg) for p in probes(reg.polygon)[:-1])


def convex_hull(points):
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set(points))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                    (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                    - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def star(points):
    """The points joined in angle order around their mean: concave in
    general, and simple unless two points share an angle."""
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(set(points), key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


GRID_POINTS = st.lists(st.tuples(GRID, GRID), min_size=3, max_size=9)


@settings(max_examples=300, deadline=None)
@given(GRID_POINTS, st.sampled_from([convex_hull, star]),
       st.lists(st.tuples(GRID, GRID).map(lambda p: (p[0] / 4, p[1] / 4)), max_size=6))
def test_same_containment_on_random_regions(points, shape, extra):
    polygon = shape(points)
    assume(verdict(Region, polygon) is None)
    reg = Region(polygon)
    assert_same_containment(reg, probes(reg.polygon) + extra)
