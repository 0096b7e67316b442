"""Reference pair-relation code: the per-frame kernel ``_pair_relations``
and the TAG's slot copy, which ``vekg.graph.pair_series`` replaced with
one pass over the TAG's node frames, kept verbatim as the oracle of the
differential pair test.  Not used by the program.

The reference decided each frame's pairs by the objects' frame labels,
then copied the frame edges into the TAG's series slot by slot, keeping
a slot only where both tracks carried their node's label in that frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from vekg import geometry
from vekg.graph import ALL_PAIRS, ANY, RELATION_FUNCS, X, RelationNeeds
from vekg.tag import TagNode


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


def pair_edges(frames, needs: RelationNeeds) -> Dict[Tuple[int, int], Dict[str, list]]:
    """The TAG's pair edges over ``frames`` (each a sequence of objects),
    built from per-frame ``_pair_relations`` edges by the slot copy."""
    nframes = len(frames)
    graph_edges = [_pair_relations(objects, needs) for objects in frames]
    nodes: Dict[int, TagNode] = {}
    for i, objects in enumerate(frames):
        for obj in objects:
            tid = obj.track_id
            if tid not in nodes:
                nodes[tid] = TagNode(track_id=tid, frames=[None] * nframes)
            nodes[tid].frames[i] = obj
    tids = sorted(nodes)
    edges: Dict[Tuple[int, int], Dict[str, list]] = {}
    if needs:
        scoped = ALL_PAIRS not in needs
        label = {u: nodes[u].label if scoped else ANY for u in tids}
        tracks: Dict[Optional[str], List[int]] = {}
        for u in tids:
            tracks.setdefault(label[u], []).append(u)
        for (label_u, label_v), rels in needs.items():
            for u in tracks.get(label_u, ()):
                for v in tracks.get(label_v, ()):
                    if u != v:
                        edges[(u, v)] = {rel: [X] * nframes for rel in rels}
        # a slot holds a value only while both tracks carry their node's
        # labels, which can fail only if some track changes label
        relabelled = scoped and any(
            o is not None and o.label != label[u]
            for u in tids for o in nodes[u].frames)
        for i, g_edges in enumerate(graph_edges):
            for (u, v), values in g_edges.items():
                series = edges.get((u, v))
                if series is None:
                    continue
                if relabelled and (nodes[u].frames[i].label != label[u]
                                   or nodes[v].frames[i].label != label[v]):
                    continue
                for rel, slots in series.items():
                    slots[i] = values[rel]
    return edges
