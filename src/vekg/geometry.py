"""Qualitative and metric spatial calculus over axis-aligned boxes, points and segments.

All coordinates follow the image convention: origin top-left, x grows
rightward, y grows downward.  Boxes are axis-aligned with strictly
positive width and height, so every topological question reduces to
per-axis interval comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import CoincidentCentroids, InvalidRegion, ZeroLengthSegment

Point = Tuple[float, float]


class SpatialRelationClass(Enum):
    DISJOINT = "disjoint"
    TOUCH = "touch"
    CONTAINS = "contains"
    INTERSECT = "intersect"
    WITHIN = "within"
    COVERED_BY = "covered_by"
    CROSSES = "crosses"
    OVERLAP = "overlap"
    INSIDE = "inside"


class DirectionClass(Enum):
    ABOVE = "above"
    BELOW = "below"
    LEFT = "left"
    RIGHT = "right"


@dataclass(slots=True, unsafe_hash=True)
class BoundingBox:
    """Axis-aligned pixel box given by top-left corner and size.

    A slotted dataclass: boxes compare and hash by value.  The
    constructor raises ValueError unless all four values are finite and
    ``w, h > 0``.  Treat a box as immutable: nothing stops an assignment,
    but those checks and the hash hold only for the values it was built
    with.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise ValueError("bounding box coordinates must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError("bounding box must have positive width and height")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def centroid(self) -> Point:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Region:
    """Simple polygon (>= 3 vertices, positive area, no self-intersection).

    ``edges`` is the closed polygon's edge list, built once: edge i runs
    from vertex i to vertex i + 1, and the last edge back to vertex 0.
    It is derived from ``polygon`` and left out of ``==``, hash and repr.
    """

    polygon: Tuple[Point, ...]
    edges: Tuple[Tuple[Point, Point], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.polygon)
        object.__setattr__(self, "polygon", pts)
        if len(pts) < 3:
            raise InvalidRegion("region needs at least 3 vertices")
        edges = tuple(zip(pts, pts[1:] + pts[:1]))
        object.__setattr__(self, "edges", edges)
        if abs(_shoelace(edges)) <= 0.0:
            raise InvalidRegion("region has zero area")
        if _self_intersects(edges):
            raise InvalidRegion("region polygon is self-intersecting")


def _shoelace(edges: Sequence[Tuple[Point, Point]]) -> float:
    s = 0.0
    for (x1, y1), (x2, y2) in edges:
        s += x1 * y2 - x2 * y1
    return s / 2.0


def _segments_cross(p1, p2, q1, q2) -> bool:
    # Proper crossing only; shared endpoints of adjacent edges do not count.
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _self_intersects(edges: Sequence[Tuple[Point, Point]]) -> bool:
    n = len(edges)
    for i in range(n):
        # skip the adjacent edges, which share a vertex: i + 1, and n - 1 for i == 0
        for j in range(i + 2, n - 1 if i == 0 else n):
            if _segments_cross(*edges[i], *edges[j]):
                return True
    return False


# --- topology: one decision over edge coordinates, one shared set per code ---

TOPO_DISJOINT = 0
TOPO_TOUCH = 1
TOPO_OVERLAP = 2
TOPO_CONTAINS = 3
TOPO_EQUAL = 4
TOPO_INSIDE = 5
TOPO_COVERED_BY = 6

_S = SpatialRelationClass
TOPOLOGY_SETS = (
    frozenset({_S.DISJOINT}),
    frozenset({_S.INTERSECT, _S.TOUCH}),
    frozenset({_S.INTERSECT, _S.OVERLAP}),
    frozenset({_S.INTERSECT, _S.CONTAINS}),
    frozenset({_S.INTERSECT, _S.CONTAINS, _S.WITHIN, _S.COVERED_BY}),
    frozenset({_S.INTERSECT, _S.WITHIN, _S.INSIDE}),
    frozenset({_S.INTERSECT, _S.WITHIN, _S.COVERED_BY}),
)


def topology_code(ax, ay, ax2, ay2, bx, by, bx2, by2) -> int:
    """Topology code of box a = [ax, ax2] x [ay, ay2] against box b.

    Each axis is a closed interval with lo <= hi.  TOPOLOGY_SETS[code]
    is the set of classes that hold.  The open-interval tests keep
    ``lo < hi`` so that a box whose width or height rounds away to zero
    has no interior.
    """
    if ax > bx2 or bx > ax2 or ay > by2 or by > ay2:
        return TOPO_DISJOINT
    if not (ax < bx2 and bx < ax2 and ay < by2 and by < ay2
            and ax < ax2 and bx < bx2 and ay < ay2 and by < by2):
        return TOPO_TOUCH
    a_in_b = bx <= ax and ax2 <= bx2 and by <= ay and ay2 <= by2
    b_in_a = ax <= bx and bx2 <= ax2 and ay <= by and by2 <= ay2
    if a_in_b:
        if b_in_a:
            return TOPO_EQUAL
        if bx < ax and ax2 < bx2 and by < ay and ay2 < by2:
            return TOPO_INSIDE
        return TOPO_COVERED_BY
    return TOPO_CONTAINS if b_in_a else TOPO_OVERLAP


def topology(a: BoundingBox, b: BoundingBox) -> frozenset:
    """All topological classes that hold between two boxes.

    Classes are not mutually exclusive; e.g. containment implies
    intersection.  CROSSES applies to line-vs-box geometry only and is
    never returned for a box pair.
    """
    return TOPOLOGY_SETS[topology_code(a.x, a.y, a.x2, a.y2,
                                       b.x, b.y, b.x2, b.y2)]


def overlap_ratio(a: BoundingBox, b: BoundingBox) -> float:
    """Fraction of a's area covered by b (asymmetric, in [0, 1])."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    return (iw * ih) / a.area


# enum members bound once: attribute lookups on an Enum class are slow
_ABOVE, _BELOW = DirectionClass.ABOVE, DirectionClass.BELOW
_LEFT, _RIGHT = DirectionClass.LEFT, DirectionClass.RIGHT


def direction_of(ax, ay, bx, by) -> Optional[DirectionClass]:
    """Qualitative direction of centroid (ax, ay) relative to (bx, by).

    Axis dominance breaks ties: |dy| >= |dx| resolves to the vertical
    class.  None when the centroids coincide.
    """
    dx = bx - ax
    dy = by - ay
    if (dy if dy >= 0 else -dy) >= (dx if dx >= 0 else -dx):
        if dy == 0:   # so dx == 0 too
            return None
        return _ABOVE if ay < by else _BELOW
    return _LEFT if ax < bx else _RIGHT


def direction(a: BoundingBox, b: BoundingBox) -> DirectionClass:
    """Qualitative direction of a relative to b, on centroids.

    direction(a, b) == ABOVE reads "a is above b".
    """
    d = direction_of(*a.centroid, *b.centroid)
    if d is None:
        raise CoincidentCentroids("boxes have coincident centroids")
    return d


def centroid_distance(a: BoundingBox, b: BoundingBox) -> float:
    return point_distance(a.centroid, b.centroid)


def point_distance(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def segment_angle(u: Tuple[Point, Point], v: Tuple[Point, Point]) -> float:
    """Unsigned angle in degrees [0, 180] between two directed segments."""
    ux = u[1][0] - u[0][0]
    uy = u[1][1] - u[0][1]
    vx = v[1][0] - v[0][0]
    vy = v[1][1] - v[0][1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0 or nv == 0:
        raise ZeroLengthSegment("segments must have nonzero length")
    c = (ux * vx + uy * vy) / (nu * nv)
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


def inside_region(boxes: Sequence[BoundingBox], reg: Region) -> List[bool]:
    """For each box, True iff its centroid is strictly inside the polygon.

    Boundary points count as outside.  One numpy pass over the edges
    tests the whole batch: per edge, the on-edge test marks the centroids
    lying on it, and the ray crossing toggles the others.  The operations
    and their order are those of a test of one centroid at a time, so
    each answer is the same bit for bit.  Centroids that overflow to inf
    compare as IEEE says, without a warning.  Returns Python bools.
    """
    if not boxes:
        return []
    eps = 1e-9
    with np.errstate(over="ignore", invalid="ignore"):
        px = (np.array([b.x for b in boxes], dtype=float)
              + np.array([b.w for b in boxes], dtype=float) / 2.0)
        py = (np.array([b.y for b in boxes], dtype=float)
              + np.array([b.h for b in boxes], dtype=float) / 2.0)
        on_edge = np.zeros(len(boxes), dtype=bool)
        inside = np.zeros(len(boxes), dtype=bool)
        for (x1, y1), (x2, y2) in reg.edges:
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            on_edge |= ((np.abs(cross) <= eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)))
                        & (min(x1, x2) - eps <= px) & (px <= max(x1, x2) + eps)
                        & (min(y1, y2) - eps <= py) & (py <= max(y1, y2) + eps))
            if y1 != y2:   # a horizontal edge is never crossed
                xin = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                inside ^= ((y1 > py) != (y2 > py)) & (px < xin)
    return (inside & ~on_edge).tolist()
