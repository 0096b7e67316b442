"""Time-aggregated graph over one window of the graph stream.

The window's per-frame graphs collapse into a single complete directed
graph whose nodes are the distinct tracks seen in the window.  Every
ordered pair edge carries, per relation, a series of length |T| with a
don't-care marker (X) wherever an endpoint object is absent; every
node additionally has a self-loop edge storing its per-frame position.
Memory is O(n^2 * T): per-edge contiguous series plus one shared
presence bitmap per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import RelationVocabularyMismatch, UnknownNode, UnknownRelation
from .geometry import point_distance
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
    present: List[bool]   # shared presence bitmap, one slot per window frame


@dataclass
class VekgTag:
    """Aggregated graph of one window."""

    start: int
    end: int
    timestamps: Tuple[int, ...]
    nodes: Dict[int, TagNode]
    # (u, v) with u != v -> {relation -> series}; (u, u) -> {"position" -> series}
    edges: Dict[Tuple[int, int], Dict[str, list]]
    relation_classes: frozenset
    # per-node per-frame object refs (None where absent); keypoints and
    # attribute history are read from here
    node_frames: Dict[int, List[Optional[ObjectNode]]] = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return len(self.timestamps)

    def dump(self) -> str:
        lines = [f"tag [{self.start},{self.end}) frames={self.frame_count} "
                 f"nodes={len(self.nodes)} edges={len(self.edges)}"]
        for tid in sorted(self.nodes):
            n = self.nodes[tid]
            lines.append(f"node {tid} {n.label} present="
                         + "".join("1" if p else "0" for p in n.present))
        for (u, v) in sorted(self.edges):
            for rel in sorted(self.edges[(u, v)]):
                series = self.edges[(u, v)][rel]
                lines.append(f"edge {u}->{v} {rel} " + " ".join(_fmt(s) for s in series))
        return "\n".join(lines)


def _fmt(val) -> str:
    if val is X:
        return "X"
    if isinstance(val, frozenset):
        return "{" + ",".join(sorted(c.value for c in val)) + "}"
    if hasattr(val, "value"):
        return str(val.value)
    if isinstance(val, float):
        return f"{val:.3f}"
    if hasattr(val, "x"):
        return f"{val.x:g},{val.y:g},{val.w:g},{val.h:g}"
    return str(val)


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
    node_frames: Dict[int, List[Optional[ObjectNode]]] = {}
    for i, g in enumerate(window.graphs):
        for obj in g.nodes:
            tid = obj.track_id
            if tid not in nodes:
                nodes[tid] = TagNode(track_id=tid, label=obj.label,
                                     attributes=dict(obj.attributes),
                                     present=[False] * nframes)
                node_frames[tid] = [None] * nframes
            node = nodes[tid]
            node.present[i] = True
            node.label = obj.label
            node.attributes = dict(obj.attributes)   # last-seen wins
            node_frames[tid][i] = obj

    edges: Dict[Tuple[int, int], Dict[str, list]] = {}
    tids = sorted(nodes)
    for u in tids:
        # self-loop: per-frame position series
        edges[(u, u)] = {POSITION: [o.bbox if o is not None else X
                                    for o in node_frames[u]]}
        for v in tids:
            if u != v:
                edges[(u, v)] = {rel: [X] * nframes for rel in required}
    if required:
        for i, g in enumerate(window.graphs):
            for pair, values in g.edges.items():
                series = edges[pair]
                for rel in required:
                    series[rel][i] = values[rel]

    return VekgTag(start=window.start, end=window.end, timestamps=timestamps,
                   nodes=nodes, edges=edges, relation_classes=required,
                   node_frames=node_frames)


def edge_series(tag: VekgTag, u: int, v: int, relation: str) -> list:
    """Constant-time fetch of a full edge series.

    ``u == v`` with the "position" relation returns the self-loop series.
    """
    if u not in tag.nodes:
        raise UnknownNode(f"track {u} not in tag")
    if v not in tag.nodes:
        raise UnknownNode(f"track {v} not in tag")
    series = tag.edges[(u, v)]
    if relation not in series:
        raise UnknownRelation(f"relation {relation!r} not materialized on edge ({u},{v})")
    return series[relation]


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
    tag_edges = len(tag.edges)
    rin = (vekg_nodes - tag_nodes) / vekg_nodes if vekg_nodes > 0 else 0.0
    rie = (vekg_edges - tag_edges) / vekg_edges if vekg_edges > 0 else 0.0
    return ReductionReport(vekg_nodes=vekg_nodes, tag_nodes=tag_nodes,
                           vekg_edges=vekg_edges, tag_edges=tag_edges,
                           rin=rin, rie=rie, degenerate=rin < 0 or rie < 0)
