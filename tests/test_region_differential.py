"""Differential test of ``Region`` and ``inside_region`` against the
reference region code, which rebuilds the edge list in each function and
tests one centroid at a time in two passes.

Both must reject the same polygons with the same message.  The batch
``inside_region`` must give, element by element, the reference's Python
bool for every box of a batch, above all for centroids placed exactly on
a vertex or an edge, where the on-edge test decides, for integer
coordinates above 2**53 and for centroids that overflow to inf.
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

TINY = 5e-324                  # the smallest subnormal
BIG = 2 ** 53 + 1              # the first integer a double cannot hold


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


def point_box(px, py) -> BoundingBox:
    """A box whose centroid is exactly (px, py) for any finite point:
    half the smallest subnormal width rounds to 0.0."""
    return BoundingBox(px, py, TINY, TINY)


def assert_same_containment(reg: Region, boxes):
    """One batch call; each element is the reference's bool, by identity."""
    got = inside_region(boxes, reg)
    assert type(got) is list and len(got) == len(boxes)
    for box, flag in zip(boxes, got):
        want = reference_region.inside_region(box, reg)
        assert want is True or want is False
        assert flag is want, (reg.polygon, box)


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
    grid = [box_at(x / 2, y / 2) for x in range(-2, 23) for y in range(-2, 23)]
    assert_same_containment(reg, grid)
    assert set(inside_region(grid, reg)) == {True, False}
    boundary = [box_at(*p) for p in probes(reg.polygon)[:-1]]
    assert inside_region(boundary, reg) == [False] * len(boundary)


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
    assert_same_containment(reg, [box_at(*p) for p in probes(reg.polygon) + extra])


def test_empty_batch():
    assert inside_region([], Region(SQUARE)) == []
    assert inside_region((), Region(ARROW)) == []


@pytest.mark.parametrize("polygon", [SQUARE, ARROW], ids=["convex", "concave"])
def test_centroids_that_overflow_to_inf(polygon):
    """x + w / 2 overflows to inf; inf and nan compare as IEEE says, and
    no RuntimeWarning escapes (pytest would turn it into an error)."""
    big = 1.7e308
    boxes = [BoundingBox(big, 5, big, 2), BoundingBox(4, big, 2, big),
             BoundingBox(big, big, big, big), BoundingBox(1e308, 1e308, 1e308, 1e308),
             BoundingBox(-big, 4, big, 2), box_at(4, 4)]
    assert boxes[0].centroid[0] == math.inf and boxes[3].centroid == (1.5e308, 1.5e308)
    reg = Region(polygon)
    assert_same_containment(reg, boxes)
    for scale in (1e300, -1e300):
        assert_same_containment(Region(tuple((x * scale, y * scale) for x, y in polygon)),
                                boxes)


def test_centroids_at_the_on_edge_tolerance():
    """|cross| equal to the tolerance is on the edge: (5, 1e-9) lies on the
    square's bottom edge and (1e-9, 5) on its left edge, 2e-9 does not."""
    reg = Region(SQUARE)
    on = [point_box(5, 1e-9), point_box(5, -1e-9), point_box(1e-9, 5), point_box(-1e-9, 5)]
    off = [point_box(5, 2e-9), point_box(2e-9, 5)]
    assert_same_containment(reg, on + off)
    assert inside_region(on + off, reg) == [False] * 4 + [True] * 2


def test_integer_coordinates_above_2_53():
    """Python ints round to the nearest double, as in the scalar centroid."""
    reg = Region(((BIG, BIG), (5 * BIG, BIG), (5 * BIG, 3 * BIG), (3 * BIG, 2 * BIG),
                  (BIG, 3 * BIG)))
    boxes = [BoundingBox(x, y, w, h)
             for x in (BIG, 2 * BIG, 3 * BIG - 1, 3 * BIG, 5 * BIG)
             for y in (BIG, 2 * BIG - 3, 2 * BIG, 3 * BIG + 1)
             for w, h in ((2, 2), (BIG, 1), (1, 2 * BIG + 1))]
    boxes += [point_box(*p) for p in probes(reg.polygon)]
    assert_same_containment(reg, boxes)
    assert set(inside_region(boxes, reg)) == {True, False}


# finite box fields, with integers above 2**53 and sizes whose centroid
# overflows to inf
BOX_XY = GRID | st.floats(-1e308, 1e308) | st.integers(2 ** 53, 2 ** 64)
BOX_WH = (st.integers(1, 12) | st.floats(0, 1.7e308, exclude_min=True)
          | st.integers(2 ** 53, 2 ** 64))
BOXES = st.builds(BoundingBox, BOX_XY, BOX_XY, BOX_WH, BOX_WH)
SCALES = st.sampled_from([1, 0.25, BIG, 1e300, -1e300])
# each probe, and the points the on-edge tolerance away from it
NUDGES = ((0, 0), (1e-9, 0), (-1e-9, 0), (0, 1e-9), (0, -1e-9))


@settings(max_examples=300, deadline=None)
@given(GRID_POINTS, st.sampled_from([convex_hull, star]), SCALES,
       st.lists(BOXES, max_size=12), st.randoms(use_true_random=False))
def test_random_batches_match_the_reference(points, shape, scale, boxes, rnd):
    """Random regions (with horizontal, vertical and slanted edges, convex
    or concave, scaled up to 1e300 or to integers above 2**53), and
    batches that mix random boxes with boxes centred exactly on each
    vertex, each edge's quarter points and the middle, or the on-edge
    tolerance away from them, in random order."""
    polygon = [(x * scale, y * scale) for x, y in shape(points)]
    assume(verdict(Region, polygon) is None)
    reg = Region(polygon)
    batch = [point_box(px + dx, py + dy) for px, py in probes(reg.polygon)
             for dx, dy in NUDGES] + boxes
    rnd.shuffle(batch)
    assert_same_containment(reg, batch)
