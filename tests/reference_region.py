"""Reference region code: the polygon checks and the two-pass
containment test that ``vekg.geometry`` replaced with one edge list per
``Region``, kept verbatim as the oracle of the differential region test.
Each function rebuilds the closed edge list from the vertices with
``(i + 1) % n``.  Not used by the program.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from vekg.errors import InvalidRegion

Point = Tuple[float, float]


def check_polygon(polygon) -> Tuple[Point, ...]:
    """The old ``Region.__post_init__``: the vertices as floats, or
    InvalidRegion with the old message."""
    pts = tuple((float(x), float(y)) for x, y in polygon)
    if len(pts) < 3:
        raise InvalidRegion("region needs at least 3 vertices")
    if abs(_shoelace(pts)) <= 0.0:
        raise InvalidRegion("region has zero area")
    if _self_intersects(pts):
        raise InvalidRegion("region polygon is self-intersecting")
    return pts


def _shoelace(pts: Sequence[Point]) -> float:
    s = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
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


def _self_intersects(pts: Sequence[Point]) -> bool:
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex
            if _segments_cross(*edges[i], *edges[j]):
                return True
    return False


def inside_region(b, reg) -> bool:
    """True iff b's centroid is strictly inside the polygon.

    Boundary points count as outside (ray casting with explicit
    on-edge rejection).
    """
    px, py = b.centroid
    pts = reg.polygon
    n = len(pts)
    eps = 1e-9
    # on-edge check
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if abs(cross) <= eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
            if min(x1, x2) - eps <= px <= max(x1, x2) + eps and \
               min(y1, y2) - eps <= py <= max(y1, y2) + eps:
                return False
    inside = False
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xin = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xin:
                inside = not inside
    return inside
