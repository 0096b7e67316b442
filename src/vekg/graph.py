"""Relation needs, the one pair kernel, and per-frame graphs.

A rule set's needs map an ordered label pair to the relations its rules
read, ``{(label_u, label_v): relations}``; a plain set of relation names
means those relations on every ordered pair.  ``pair_series`` decides the
needed relations of every matching ordered track pair over a run of
frames, in one pass; a run calls it once per window, on the TAG's node
frames (see ``tag.aggregate``), and builds no frame graph.  A frame graph
(``build_frame_graph``) has one node per object and n(n-1) directed edges,
and carries the same kernel's values, over that one frame, on its matching
pairs' edges.  An edge is stored only when it carries a value.
"""

from __future__ import annotations

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
    relation sets are dropped, and ``ALL_PAIRS`` next to a label pair raises
    ValueError.  Needs made here are returned as they are.
    """
    if isinstance(required, RelationNeeds):
        return required
    if isinstance(required, Mapping):
        items = [(key, frozenset(rels)) for key, rels in required.items()]
    else:
        items = [(ALL_PAIRS, frozenset(required))]
    needs = RelationNeeds((key, rels) for key, rels in items if rels)
    if ALL_PAIRS in needs and len(needs) > 1:
        raise ValueError(f"needs mix ALL_PAIRS with label pairs: {needs}")
    unknown = frozenset().union(*needs.values()) - RELATIONS
    if unknown:
        raise UnknownRelation(f"unknown relation(s): {sorted(unknown)}")
    return needs


class _DontCare:
    """Singleton marker for undefined series slots."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "X"


X = _DontCare()


def pair_series(tracks, nframes: int,
                needs: RelationNeeds) -> Dict[Tuple[int, int], Dict[str, list]]:
    """Each needed ordered track pair's ``{relation: series}``, in one pass.

    ``tracks`` maps a track id to ``(label, objects)``: its node label and
    its object at each of ``nframes`` frames, None where absent.  A track
    pairs by its node label (every track is ANY under ALL_PAIRS).  A slot
    holds the frame's value where both objects are present and, under
    label-pair needs, carry their node's label; every other slot is X.
    Each object's edge coordinates and centroid are read once.
    """
    topology_code = geometry.topology_code
    topology_sets = geometry.TOPOLOGY_SETS
    direction_of = geometry.direction_of
    scoped = ALL_PAIRS not in needs
    # per label: (track, per frame (x, y, x2, y2, cx, cy, box) or None)
    rows: Dict[Optional[str], list] = {label: [] for key in needs for label in key}
    for track, (label, objects) in tracks.items():
        group = rows.get(label if scoped else ANY)
        if group is None:
            continue
        coords = []
        for o in objects:
            if o is None or (scoped and o.label != label):
                coords.append(None)
                continue
            b = o.bbox
            x, y, w, h = b.x, b.y, b.w, b.h
            coords.append((x, y, x + w, y + h, x + w / 2.0, y + h / 2.0, b))
        group.append((track, coords))
    out: Dict[Tuple[int, int], Dict[str, list]] = {}
    for (label_u, label_v), required in needs.items():
        metric = [(rel, RELATION_FUNCS[rel]) for rel in required
                  if rel in RELATION_FUNCS]
        for u, cu in rows[label_u]:
            for v, cv in rows[label_v]:
                if u == v:
                    continue
                series = {rel: [X] * nframes for rel in required}
                topo = series.get("topology")
                direc = series.get("direction")
                metric_slots = [(series[rel], fn) for rel, fn in metric]
                for i, a in enumerate(cu):
                    b = cv[i]
                    if a is None or b is None:
                        continue
                    ax, ay, ax2, ay2, acx, acy, abox = a
                    bx, by, bx2, by2, bcx, bcy, bbox = b
                    if topo is not None:
                        topo[i] = topology_sets[topology_code(
                            ax, ay, ax2, ay2, bx, by, bx2, by2)]
                    if direc is not None:
                        direc[i] = direction_of(acx, acy, bcx, bcy)
                    for slots, fn in metric_slots:
                        slots[i] = fn(abox, bbox)
                out[(u, v)] = series
    return out


@dataclass(frozen=True)
class VekgGraph:
    """Complete directed labeled graph of one frame, a window item like it."""

    timestamp: int
    objects: Tuple[ObjectNode, ...]
    edges: Dict[Tuple[int, int], Dict[str, object]]

    @property
    def nodes(self) -> Tuple[ObjectNode, ...]:
        return self.objects


def build_frame_graph(frame: FrameDetections, required_relations) -> VekgGraph:
    """Build the frame's graph, evaluating exactly the needed relations.

    ``required_relations`` is a needs mapping or a plain relation set (see
    ``relation_needs``).  The edges are ``pair_series`` over one frame.
    """
    needs = relation_needs(required_relations)
    edges = {}
    if needs:
        tracks = {o.track_id: (o.label, (o,)) for o in frame.objects}
        edges = {pair: {rel: slots[0] for rel, slots in series.items()}
                 for pair, series in pair_series(tracks, 1, needs).items()}
    return VekgGraph(timestamp=frame.timestamp, objects=tuple(frame.objects),
                     edges=edges)


def stream_graphs(frames, required_relations) -> Iterator[VekgGraph]:
    """Map an ordered frame stream to an ordered graph stream."""
    needs = relation_needs(required_relations)
    for frame in frames:
        yield build_frame_graph(frame, needs)
