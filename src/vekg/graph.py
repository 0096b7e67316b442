"""Per-frame complete directed labeled graphs over detected objects.

Each frame becomes a graph with one node per object and n(n-1)
directed edges.  Only the relations required by the registered rules
are evaluated, for every ordered pair in one pass over the frame; an
edge is stored only when it carries a value, so with no required
relation ``edges`` is empty and the n(n-1) edges are counted, not kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Tuple

from . import geometry
from .errors import UnknownRelation
from .ingest import FrameDetections, ObjectNode


# relations decided in the one-pass kernel from the boxes' edge coordinates
KERNEL_RELATIONS = frozenset({
    "topology",    # set of SpatialRelationClass
    "overlap",     # boolean relation operation
    "direction",   # DirectionClass, or None for coincident centroids
})

# metric relation operations, evaluated per pair on the two boxes
RELATION_FUNCS = {
    "distance": geometry.centroid_distance,
    "overlap_ratio": geometry.overlap_ratio,
}

RELATIONS = KERNEL_RELATIONS | RELATION_FUNCS.keys()


@dataclass(frozen=True)
class VekgGraph:
    """Complete directed labeled graph of one frame."""

    timestamp: int
    nodes: Tuple[ObjectNode, ...]
    edges: Dict[Tuple[int, int], Dict[str, object]]
    relation_classes: FrozenSet[str]
    build_ms: float = 0.0

    def dump(self) -> str:
        """Line-based adjacency listing for debugging."""
        n = len(self.nodes)
        lines = [f"graph ts={self.timestamp} nodes={n} edges={n * (n - 1)}"]
        for o in sorted(self.nodes, key=lambda o: o.track_id):
            lines.append(f"node {o.track_id} {o.label} conf={o.confidence:g} "
                         f"bbox={o.bbox.x:g},{o.bbox.y:g},{o.bbox.w:g},{o.bbox.h:g}")
        for (u, v) in sorted(self.edges):
            vals = " ".join(f"{r}={format_value(val)}"
                            for r, val in sorted(self.edges[(u, v)].items()))
            lines.append(f"edge {u}->{v} {vals}")
        return "\n".join(lines)


def format_value(val) -> str:
    """A relation value or a position as the dumps print it."""
    if isinstance(val, frozenset):
        return "{" + ",".join(sorted(c.value for c in val)) + "}"
    if hasattr(val, "value"):
        return str(val.value)
    if isinstance(val, float):
        return f"{val:.3f}"
    if hasattr(val, "x"):
        return f"{val.x:g},{val.y:g},{val.w:g},{val.h:g}"
    return str(val)


def _pair_relations(objects, required) -> Dict[Tuple[int, int], Dict[str, object]]:
    """Every ordered pair's required relations, in one pass over the frame.

    Each object's edge coordinates and centroid are read once; the
    topology code is computed once per pair and serves both the
    topology and the overlap relation.
    """
    topology_code = geometry.topology_code
    topology_sets = geometry.TOPOLOGY_SETS
    direction_of = geometry.direction_of
    overlap_code = geometry.TOPO_OVERLAP
    topo = "topology" in required
    overlap = "overlap" in required
    need_code = topo or overlap
    direc = "direction" in required
    metric = [(rel, RELATION_FUNCS[rel]) for rel in required
              if rel in RELATION_FUNCS]
    rows = []
    for o in objects:
        b = o.bbox
        x, y, w, h = b.x, b.y, b.w, b.h
        rows.append((o.track_id, x, y, x + w, y + h,
                     x + w / 2.0, y + h / 2.0, b))
    edges: Dict[Tuple[int, int], Dict[str, object]] = {}
    for u, ax, ay, ax2, ay2, acx, acy, abox in rows:
        for v, bx, by, bx2, by2, bcx, bcy, bbox in rows:
            if u == v:
                continue
            vals: Dict[str, object] = {}
            if need_code:
                code = topology_code(ax, ay, ax2, ay2, bx, by, bx2, by2)
                if topo:
                    vals["topology"] = topology_sets[code]
                if overlap:
                    vals["overlap"] = code == overlap_code
            if direc:
                vals["direction"] = direction_of(acx, acy, bcx, bcy)
            if metric:
                for rel, fn in metric:
                    vals[rel] = fn(abox, bbox)
            edges[(u, v)] = vals
    return edges


def build_frame_graph(frame: FrameDetections,
                      required_relations) -> VekgGraph:
    """Build the frame's graph, evaluating exactly the required relations."""
    required = frozenset(required_relations)
    unknown = required - RELATIONS
    if unknown:
        raise UnknownRelation(f"unknown relation(s): {sorted(unknown)}")
    t0 = time.perf_counter()
    edges = _pair_relations(frame.objects, required) if required else {}
    build_ms = (time.perf_counter() - t0) * 1000.0
    return VekgGraph(timestamp=frame.timestamp, nodes=tuple(frame.objects),
                     edges=edges, relation_classes=required, build_ms=build_ms)


def stream_graphs(frames, required_relations) -> Iterator[VekgGraph]:
    """Map an ordered frame stream to an ordered graph stream."""
    required = frozenset(required_relations)
    for frame in frames:
        yield build_frame_graph(frame, required)
