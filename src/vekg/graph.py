"""Per-frame complete directed labeled graphs over detected objects.

Each frame becomes a graph with one node per object and n(n-1)
directed edges.  Relations are evaluated only where the registered
rules read them: a rule set's needs map an ordered label pair to its
relations, ``{(label_u, label_v): relations}``, and an edge (u, v) is
evaluated, in one pass over the frame, only when the two objects carry
one of those label pairs in that frame.  A plain set of relation names
means those relations on every ordered pair.  An edge is stored only
when it carries a value, so with no need ``edges`` is empty and the
n(n-1) edges are counted, not kept.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from . import geometry
from .errors import UnknownRelation
from .ingest import FrameDetections, ObjectNode


# relations decided in the one-pass kernel from the boxes' edge coordinates
KERNEL_RELATIONS = frozenset({
    "topology",    # set of SpatialRelationClass
    "direction",   # DirectionClass, or None for coincident centroids
})

# metric relation operations, evaluated per pair on the two boxes
RELATION_FUNCS = {
    "distance": geometry.centroid_distance,
    "overlap_ratio": geometry.overlap_ratio,
}

RELATIONS = KERNEL_RELATIONS | RELATION_FUNCS.keys()

# the needs key of a plain relation set: every object's label counts as
# ANY, so every ordered pair matches it
ANY = None
ALL_PAIRS = (ANY, ANY)


class RelationNeeds(dict):
    """Validated needs, ``{(label_u, label_v): frozenset(relations)}``;
    made only by ``relation_needs``."""


def relation_needs(required) -> RelationNeeds:
    """The needs form of ``required``.

    A mapping ``{(label_u, label_v): relations}`` keeps its label pairs; a
    plain set of relation names becomes ``{ALL_PAIRS: relations}``.  Empty
    relation sets are dropped.  Needs made here are returned as they are.
    """
    if isinstance(required, RelationNeeds):
        return required
    if isinstance(required, Mapping):
        items = [(key, frozenset(rels)) for key, rels in required.items()]
    else:
        items = [(ALL_PAIRS, frozenset(required))]
    needs = RelationNeeds((key, rels) for key, rels in items if rels)
    unknown = frozenset().union(*needs.values()) - RELATIONS
    if unknown:
        raise UnknownRelation(f"unknown relation(s): {sorted(unknown)}")
    return needs


@dataclass(frozen=True)
class VekgGraph:
    """Complete directed labeled graph of one frame."""

    timestamp: int
    nodes: Tuple[ObjectNode, ...]
    edges: Dict[Tuple[int, int], Dict[str, object]]
    needs: RelationNeeds
    build_ms: float = 0.0


def _pair_relations(objects, needs: RelationNeeds) -> Dict[Tuple[int, int], Dict[str, object]]:
    """Each needed ordered pair's relations, in one pass over the frame.

    The frame's objects are grouped by label once (all in one group for
    ALL_PAIRS), and each needed object's edge coordinates and centroid
    are read once.
    """
    topology_code = geometry.topology_code
    topology_sets = geometry.TOPOLOGY_SETS
    direction_of = geometry.direction_of
    scoped = ALL_PAIRS not in needs
    rows: Dict[Optional[str], list] = {label: [] for key in needs for label in key}
    for o in objects:
        group = rows.get(o.label if scoped else ANY)
        if group is not None:
            b = o.bbox
            x, y, w, h = b.x, b.y, b.w, b.h
            group.append((o.track_id, x, y, x + w, y + h,
                          x + w / 2.0, y + h / 2.0, b))
    edges: Dict[Tuple[int, int], Dict[str, object]] = {}
    for (label_u, label_v), required in needs.items():
        topo = "topology" in required
        direc = "direction" in required
        metric = [(rel, RELATION_FUNCS[rel]) for rel in required
                  if rel in RELATION_FUNCS]
        for u, ax, ay, ax2, ay2, acx, acy, abox in rows[label_u]:
            for v, bx, by, bx2, by2, bcx, bcy, bbox in rows[label_v]:
                if u == v:
                    continue
                vals: Dict[str, object] = {}
                if topo:
                    vals["topology"] = topology_sets[topology_code(
                        ax, ay, ax2, ay2, bx, by, bx2, by2)]
                if direc:
                    vals["direction"] = direction_of(acx, acy, bcx, bcy)
                if metric:
                    for rel, fn in metric:
                        vals[rel] = fn(abox, bbox)
                edges[(u, v)] = vals
    return edges


def build_frame_graph(frame: FrameDetections, required_relations) -> VekgGraph:
    """Build the frame's graph, evaluating exactly the needed relations.

    ``required_relations`` is a needs mapping or a plain relation set (see
    ``relation_needs``).
    """
    needs = relation_needs(required_relations)
    t0 = time.perf_counter()
    edges = _pair_relations(frame.objects, needs) if needs else {}
    build_ms = (time.perf_counter() - t0) * 1000.0
    return VekgGraph(timestamp=frame.timestamp, nodes=tuple(frame.objects),
                     edges=edges, needs=needs, build_ms=build_ms)


def stream_graphs(frames, required_relations) -> Iterator[VekgGraph]:
    """Map an ordered frame stream to an ordered graph stream."""
    needs = relation_needs(required_relations)
    for frame in frames:
        yield build_frame_graph(frame, needs)
