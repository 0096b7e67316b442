"""Time-aggregated graph over one window of frames.

The window's frames, one VEKG each, collapse into a single complete
directed graph whose nodes are the distinct tracks seen in the window.
Each node keeps its object at every window frame (None where absent) and
has a self-loop edge storing its per-frame position.  Pair series are
built only where the rules read them, once per window, by
``graph.pair_series`` over the nodes' frames: for each needed ordered
label pair (see ``graph.relation_needs``), every ordered pair of tracks
whose node labels match it carries a series of length |T| per needed
relation.  A slot holds the frame's value when both objects are present
in that frame and carry those labels there, and a don't-care marker (X)
otherwise; a pair never co-present gets an all-X series.  Topology and
direction series are the ``tolist()`` rows of a numpy table lookup from
per-slot codes, so each slot is one of the shared
``geometry.TOPOLOGY_SETS``, a ``DirectionClass`` member or None, or X,
the very objects the scalar functions return.  Only each
window item's ``timestamp`` and ``objects`` are read, so a frame and a
``VekgGraph`` aggregate alike.  With no need no pair edge is stored: the
graph still has n^2 edges, counted from its nodes.  Memory is O(n * T)
for the nodes plus O(T) per needed relation of each matched pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import UnknownNode, UnknownRelation
from .geometry import point_distance
from .graph import X, pair_series, relation_needs
from .ingest import ObjectNode
from .windowing import WindowState

POSITION = "position"   # the self-loop relation


@dataclass
class TagNode:
    track_id: int
    # the track's object at each window frame, None where absent; the
    # position self-loop, label, keypoints and attributes are read from here
    frames: List[Optional[ObjectNode]]

    @cached_property
    def _last_seen(self) -> ObjectNode:
        """The object at the track's last present frame, found once."""
        return next(o for o in reversed(self.frames) if o is not None)

    @property
    def label(self) -> str:
        """The track's label at its last present frame."""
        return self._last_seen.label

    @property
    def attributes(self) -> Dict[str, str]:
        """The track's attributes at its last present frame."""
        return self._last_seen.attributes


@dataclass
class VekgTag:
    """Aggregated graph of one window."""

    start: int
    end: int
    timestamps: Tuple[int, ...]
    nodes: Dict[int, TagNode]
    # (u, u) -> {"position" -> series}; (u, v) -> {relation -> series}
    edges: Dict[Tuple[int, int], Dict[str, list]]
    # the pair pass's time, the VEKGs' whole construction; 0 with no need
    pairs_ms: float = 0.0
    # per-track facts that rules compute on first use and share within the
    # window, such as each track's velocity at a frame: {name: {track: fact}}
    facts: Dict[str, dict] = field(default_factory=dict, repr=False, compare=False)

    @property
    def frame_count(self) -> int:
        return len(self.timestamps)

    @cached_property
    def tracks_by_label(self) -> Dict[str, List[int]]:
        """The window's track ids by node label, each list in id order."""
        by_label: Dict[str, List[int]] = {}
        for track in sorted(self.nodes):
            by_label.setdefault(self.nodes[track].label, []).append(track)
        return by_label

    @cached_property
    def frame_period(self) -> int:
        """The median gap between consecutive frame timestamps (the upper
        median for an even count), 1 for a window of one frame."""
        ts = self.timestamps
        gaps = sorted(b - a for a, b in zip(ts, ts[1:]))
        return gaps[len(gaps) // 2] if gaps else 1


def aggregate(window: WindowState, required_relations=()) -> VekgTag:
    """Collapse a window's frames into one VekgTag.

    ``required_relations`` is a needs mapping or a plain relation set (see
    ``graph.relation_needs``).
    """
    needs = relation_needs(required_relations)
    timestamps = tuple(g.timestamp for g in window.graphs)
    nframes = len(timestamps)

    # node union (order-independent: keyed by track id)
    nodes: Dict[int, TagNode] = {}
    for i, g in enumerate(window.graphs):
        for obj in g.objects:
            tid = obj.track_id
            if tid not in nodes:
                nodes[tid] = TagNode(track_id=tid, frames=[None] * nframes)
            nodes[tid].frames[i] = obj

    tids = sorted(nodes)
    # self-loop: per-frame position series
    edges: Dict[Tuple[int, int], Dict[str, list]] = {
        (u, u): {POSITION: [o.bbox if o is not None else X
                            for o in nodes[u].frames]}
        for u in tids}
    pairs_ms = 0.0
    if needs:
        t0 = time.perf_counter()
        edges.update(pair_series(
            {u: (nodes[u].label, nodes[u].frames) for u in tids}, nframes, needs))
        pairs_ms = (time.perf_counter() - t0) * 1000.0

    return VekgTag(start=window.start, end=window.end, timestamps=timestamps,
                   nodes=nodes, edges=edges, pairs_ms=pairs_ms)


def edge_series(tag: VekgTag, u: int, v: int, relation: str) -> list:
    """Constant-time fetch of a full edge series.

    ``u == v`` with the "position" relation returns the self-loop series.
    A relation not stored on the edge raises UnknownRelation: a TAG stores
    no pair edge whose labels no need names.
    """
    if u not in tag.nodes:
        raise UnknownNode(f"track {u} not in tag")
    if v not in tag.nodes:
        raise UnknownNode(f"track {v} not in tag")
    try:
        return tag.edges[(u, v)][relation]
    except KeyError:
        raise UnknownRelation(
            f"relation {relation!r} not materialized on edge ({u},{v})") from None


def motion_series(tag: VekgTag, u: int) -> list:
    """Per-frame centroid speed (pixels per frame step) for one track.

    Slot i is X when the object is absent at frame i or i-1; the first
    present slot of a track is 0.
    """
    if u not in tag.nodes:
        raise UnknownNode(f"track {u} not in tag")
    positions = tag.edges[(u, u)][POSITION]
    out: list = []
    first_seen = False
    for i, pos in enumerate(positions):
        if pos is X:
            out.append(X)
            continue
        if not first_seen:
            out.append(0.0)
            first_seen = True
            continue
        prev = positions[i - 1]
        if prev is X:
            out.append(X)
        else:
            out.append(point_distance(pos.centroid, prev.centroid))
    return out


@dataclass(frozen=True)
class ReductionReport:
    """Node/edge reduction achieved by aggregation (ratios per definition)."""

    vekg_nodes: int
    tag_nodes: int
    vekg_edges: int
    tag_edges: int
    rin: float
    rie: float
    degenerate: bool   # True when a ratio came out negative (tiny windows)

    def as_dict(self) -> dict:
        return dict(vars(self))   # the fields, in declaration order


def reduction_report(window: WindowState, tag: VekgTag) -> ReductionReport:
    """Node/edge counts of the window's frame VEKGs vs the aggregated graph."""
    vekg_nodes = sum(len(g.objects) for g in window.graphs)
    vekg_edges = sum(len(g.objects) * (len(g.objects) - 1) for g in window.graphs)
    tag_nodes = len(tag.nodes)
    tag_edges = tag_nodes ** 2
    rin = (vekg_nodes - tag_nodes) / vekg_nodes if vekg_nodes > 0 else 0.0
    rie = (vekg_edges - tag_edges) / vekg_edges if vekg_edges > 0 else 0.0
    return ReductionReport(vekg_nodes=vekg_nodes, tag_nodes=tag_nodes,
                           vekg_edges=vekg_edges, tag_edges=tag_edges,
                           rin=rin, rie=rie, degenerate=rin < 0 or rie < 0)
