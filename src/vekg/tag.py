"""Time-aggregated graph over one window of the graph stream.

The window's per-frame graphs collapse into a single complete directed
graph whose nodes are the distinct tracks seen in the window.  Each node
keeps its object at every window frame (None where absent) and has a
self-loop edge storing its per-frame position.  For each required
relation, every ordered pair edge carries a series of length |T| with a
don't-care marker (X) wherever an endpoint object is absent.  With no
required relation no pair edge is stored: the graph still has n^2
edges, counted from its nodes.  Memory is O(n * T) for the nodes plus
O(n^2 * T) per required relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import RelationVocabularyMismatch, UnknownNode, UnknownRelation
from .geometry import point_distance
from .graph import format_value
from .ingest import ObjectNode
from .windowing import WindowState

POSITION = "position"   # the self-loop relation


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


@dataclass
class TagNode:
    track_id: int
    label: str
    attributes: Dict[str, str]
    # the track's object at each window frame, None where absent; the
    # position self-loop, keypoints and attribute history are read from here
    frames: List[Optional[ObjectNode]]

    @property
    def present(self) -> List[bool]:
        """Whether the track is present, per window frame."""
        return [o is not None for o in self.frames]


@dataclass
class VekgTag:
    """Aggregated graph of one window."""

    start: int
    end: int
    timestamps: Tuple[int, ...]
    nodes: Dict[int, TagNode]
    # (u, u) -> {"position" -> series}; (u, v) -> {relation -> series}
    edges: Dict[Tuple[int, int], Dict[str, list]]
    relation_classes: frozenset

    @property
    def frame_count(self) -> int:
        return len(self.timestamps)

    def dump(self) -> str:
        lines = [f"tag [{self.start},{self.end}) frames={self.frame_count} "
                 f"nodes={len(self.nodes)} edges={len(self.nodes) ** 2}"]
        for tid in sorted(self.nodes):
            n = self.nodes[tid]
            lines.append(f"node {tid} {n.label} present="
                         + "".join("1" if p else "0" for p in n.present))
        for (u, v) in sorted(self.edges):
            for rel in sorted(self.edges[(u, v)]):
                series = self.edges[(u, v)][rel]
                lines.append(f"edge {u}->{v} {rel} " + " ".join(
                    "X" if s is X else format_value(s) for s in series))
        return "\n".join(lines)


def aggregate(window: WindowState, required_relations=()) -> VekgTag:
    """Collapse a window's graph stream into one VekgTag."""
    required = frozenset(required_relations)
    for g in window.graphs:
        if not required <= g.relation_classes:
            missing = required - g.relation_classes
            raise RelationVocabularyMismatch(
                f"window graph at t={g.timestamp} lacks relations {sorted(missing)}")

    timestamps = tuple(g.timestamp for g in window.graphs)
    nframes = len(timestamps)

    # node union (order-independent: keyed by track id)
    nodes: Dict[int, TagNode] = {}
    for i, g in enumerate(window.graphs):
        for obj in g.nodes:
            tid = obj.track_id
            if tid not in nodes:
                nodes[tid] = TagNode(track_id=tid, label=obj.label,
                                     attributes=dict(obj.attributes),
                                     frames=[None] * nframes)
            node = nodes[tid]
            node.frames[i] = obj
            node.label = obj.label
            node.attributes = dict(obj.attributes)   # last-seen wins

    tids = sorted(nodes)
    # self-loop: per-frame position series
    edges: Dict[Tuple[int, int], Dict[str, list]] = {
        (u, u): {POSITION: [o.bbox if o is not None else X
                            for o in nodes[u].frames]}
        for u in tids}
    if required:
        for u in tids:
            for v in tids:
                if u != v:
                    edges[(u, v)] = {rel: [X] * nframes for rel in required}
        for i, g in enumerate(window.graphs):
            for pair, values in g.edges.items():
                series = edges[pair]
                for rel in required:
                    series[rel][i] = values[rel]

    return VekgTag(start=window.start, end=window.end, timestamps=timestamps,
                   nodes=nodes, edges=edges, relation_classes=required)


def edge_series(tag: VekgTag, u: int, v: int, relation: str) -> list:
    """Constant-time fetch of a full edge series.

    ``u == v`` with the "position" relation returns the self-loop series.
    A relation not stored on the edge raises UnknownRelation; a TAG
    aggregated with no required relation stores no pair edge at all.
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
        return {"vekg_nodes": self.vekg_nodes, "tag_nodes": self.tag_nodes,
                "vekg_edges": self.vekg_edges, "tag_edges": self.tag_edges,
                "rin": self.rin, "rie": self.rie, "degenerate": self.degenerate}


def reduction_report(window: WindowState, tag: VekgTag) -> ReductionReport:
    """Node/edge counts of the raw window stream vs the aggregated graph."""
    vekg_nodes = sum(len(g.nodes) for g in window.graphs)
    vekg_edges = sum(len(g.nodes) * (len(g.nodes) - 1) for g in window.graphs)
    tag_nodes = len(tag.nodes)
    tag_edges = tag_nodes ** 2
    rin = (vekg_nodes - tag_nodes) / vekg_nodes if vekg_nodes > 0 else 0.0
    rie = (vekg_edges - tag_edges) / vekg_edges if vekg_edges > 0 else 0.0
    return ReductionReport(vekg_nodes=vekg_nodes, tag_nodes=tag_nodes,
                           vekg_edges=vekg_edges, tag_edges=tag_edges,
                           rin=rin, rie=rie, degenerate=rin < 0 or rie < 0)
