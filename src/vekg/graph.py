"""Relation needs, the one pair kernel, and per-frame graphs.

A rule set's needs map an ordered label pair to the relations its rules
read, ``{(label_u, label_v): relations}``; a plain set of relation names
means those relations on every ordered pair.  ``pair_series`` decides the
needed relations of every matching ordered track pair over a run of
frames, in one pass; a run calls it once per window, on the TAG's node
frames (see ``tag.aggregate``), and builds no frame graph.  The pass is a
numpy kernel whose per-slot codes index tables of the values themselves
(``_TOPOLOGY_VALUES``, ``_DIRECTION_VALUES``), so every slot is the same
object the scalar ``geometry`` functions return.  A frame graph
(``build_frame_graph``) has one node per object and n(n-1) directed edges,
and carries the same kernel's values, over that one frame, on its matching
pairs' edges.  An edge is stored only when it carries a value.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

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


# code -> slot value tables: the last entry of each is an X slot's code, and
# every other entry is the very object the scalar functions return
_TOPOLOGY_VALUES = np.array([*geometry.TOPOLOGY_SETS, X], dtype=object)
# None, then ABOVE, BELOW, LEFT, RIGHT (definition order), then X
_DIRECTION_VALUES = np.array([None, *geometry.DirectionClass, X], dtype=object)
_ABSENT = (np.nan,) * 4   # the coordinates of an absent slot
_Boxes = namedtuple("_Boxes", "x y x2 y2 cx cy has_interior present")


def _box_arrays(boxes, nframes: int) -> _Boxes:
    """The tracks' boxes (one list of ``nframes`` boxes or None per track)
    as arrays of shape (tracks, nframes).  Absent slots hold NaN."""
    coords = [_ABSENT if b is None else (b.x, b.y, b.w, b.h)
              for track in boxes for b in track]
    xywh = np.fromiter(chain.from_iterable(coords), float, 4 * len(coords))
    x, y, w, h = xywh.reshape(-1, 4).T.reshape(4, len(boxes), nframes)
    x2, y2 = x + w, y + h
    return _Boxes(x, y, x2, y2, x + w / 2.0, y + h / 2.0,
                  (x < x2) & (y < y2), ~np.isnan(x))


def _topology_codes(a, b, present):
    """``geometry.topology_code`` of box a against box b at every
    (u, v, frame) slot, X's code where ``present`` is False.  A later
    assignment takes precedence, as an earlier return does there."""
    ax, ay, ax2, ay2 = (c[:, None] for c in a[:4])
    bx, by, bx2, by2 = (c[None] for c in b[:4])
    a_in_b = (bx <= ax) & (ax2 <= bx2) & (by <= ay) & (ay2 <= by2)
    b_in_a = (ax <= bx) & (bx2 <= ax2) & (ay <= by) & (by2 <= ay2)
    code = np.full(present.shape, geometry.TOPO_OVERLAP)
    code[b_in_a] = geometry.TOPO_CONTAINS
    code[a_in_b] = geometry.TOPO_COVERED_BY
    code[a_in_b & (bx < ax) & (ax2 < bx2) & (by < ay)
         & (ay2 < by2)] = geometry.TOPO_INSIDE
    code[a_in_b & b_in_a] = geometry.TOPO_EQUAL
    code[~((ax < bx2) & (bx < ax2) & (ay < by2) & (by < ay2)
           & a.has_interior[:, None] & b.has_interior[None])] = geometry.TOPO_TOUCH
    code[(ax > bx2) | (bx > ax2) | (ay > by2) | (by > ay2)] = geometry.TOPO_DISJOINT
    code[~present] = len(_TOPOLOGY_VALUES) - 1
    return code


def _direction_codes(a, b, present):
    """``geometry.direction_of`` of a's centroid against b's at every
    (u, v, frame) slot, as an index into ``_DIRECTION_VALUES``."""
    acx, acy = a.cx[:, None], a.cy[:, None]
    bcx, bcy = b.cx[None], b.cy[None]
    dy = bcy - acy
    vertical = np.abs(dy) >= np.abs(bcx - acx)
    code = np.where(vertical, np.where(acy < bcy, 1, 2), np.where(acx < bcx, 3, 4))
    code[vertical & (dy == 0)] = 0
    code[~present] = len(_DIRECTION_VALUES) - 1
    return code


def pair_series(tracks, nframes: int,
                needs: RelationNeeds) -> Dict[Tuple[int, int], Dict[str, list]]:
    """Each needed ordered track pair's ``{relation: series}``, in one pass.

    ``tracks`` maps a track id to ``(label, objects)``: its node label and
    its object at each of ``nframes`` frames, None where absent.  A track
    pairs by its node label (every track is ANY under ALL_PAIRS).  A slot
    holds the frame's value where both objects are present and, under
    label-pair needs, carry their node's label; every other slot is X.

    Topology and direction codes are decided over a label pair's
    (|U|, |V|, frames) slots at once, with the comparisons of
    ``geometry.topology_code`` and ``direction_of`` on float64 coordinates
    (overflow and NaN compare as IEEE says); the ``tolist()`` of their
    value tables are the series.  Metric relations are evaluated per
    present slot by ``RELATION_FUNCS``.
    """
    scoped = ALL_PAIRS not in needs
    # per label: (track, its box at each frame, None where it does not count)
    rows: Dict[Optional[str], list] = {label: [] for key in needs for label in key}
    for track, (label, objects) in tracks.items():
        group = rows.get(label if scoped else ANY)
        if group is not None:
            group.append((track, [None if o is None or (scoped and o.label != label)
                                  else o.bbox for o in objects]))
    out: Dict[Tuple[int, int], Dict[str, list]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = {label: _box_arrays([boxes for _, boxes in group], nframes)
                  for label, group in rows.items() if group}
        for (label_u, label_v), required in needs.items():
            us, vs = rows[label_u], rows[label_v]
            if not us or not vs:
                continue
            a, b = arrays[label_u], arrays[label_v]
            present = a.present[:, None] & b.present[None]
            columns = []   # (relation, its series per (u, v) as nested lists)
            if "topology" in required:
                columns.append(("topology", _TOPOLOGY_VALUES[
                    _topology_codes(a, b, present)].tolist()))
            if "direction" in required:
                columns.append(("direction", _DIRECTION_VALUES[
                    _direction_codes(a, b, present)].tolist()))
            metric = [(rel, RELATION_FUNCS[rel]) for rel in required
                      if rel in RELATION_FUNCS]
            for i, (u, boxes_u) in enumerate(us):
                rows_u = [(rel, col[i]) for rel, col in columns]
                for j, (v, boxes_v) in enumerate(vs):
                    if u == v:
                        continue
                    out[(u, v)] = series = {}
                    for rel, row in rows_u:
                        series[rel] = row[j]
                    for rel, fn in metric:
                        series[rel] = [X if p is None or q is None else fn(p, q)
                                       for p, q in zip(boxes_u, boxes_v)]
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
