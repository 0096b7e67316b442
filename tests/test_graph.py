"""Per-frame graph construction tests."""

import random

import pytest

from conftest import frame, obj, window_of
from vekg import geometry
from vekg.errors import UnknownRelation
from vekg.geometry import DirectionClass, SpatialRelationClass
from vekg.graph import ALL_PAIRS, build_frame_graph, relation_needs, stream_graphs
from vekg.tag import aggregate

RIDE = {"topology", "direction"}


class TestBuildFrameGraph:
    def test_three_objects_six_distance_edges(self):
        f = frame(0, 0, [obj(1, bbox=(0, 0, 10, 10)),
                         obj(2, bbox=(30, 0, 10, 10)),
                         obj(3, bbox=(60, 0, 10, 10))])
        g = build_frame_graph(f, {"distance"})
        assert len(g.edges) == 6
        assert all("distance" in vals for vals in g.edges.values())

    def test_single_object_no_edges(self):
        g = build_frame_graph(frame(0, 0, [obj(1)]), {"distance"})
        assert g.edges == {}

    def test_overlap_and_direction_edge_values(self):
        a = obj(1, bbox=(0, 0, 20, 20))
        b = obj(2, bbox=(10, 30, 20, 20))   # below a, overlapping in x only
        g = build_frame_graph(frame(0, 0, [a, b]), {"topology", "direction"})
        assert len(g.edges) == 2
        assert g.edges[(1, 2)]["topology"] == {SpatialRelationClass.DISJOINT}
        assert g.edges[(1, 2)]["direction"] is DirectionClass.ABOVE
        assert g.edges[(2, 1)]["direction"] is DirectionClass.BELOW
        with pytest.raises(UnknownRelation):   # topology states overlap
            build_frame_graph(frame(0, 0, [a, b]), {"overlap"})

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            build_frame_graph(frame(0, 0, [obj(1)]), {"sorcery"})

    def test_lazy_materialization(self):
        f = frame(0, 0, [obj(1), obj(2, bbox=(50, 50, 5, 5))])
        g = build_frame_graph(f, {"distance"})
        assert set(g.edges[(1, 2)]) == {"distance"}

    def test_coincident_centroid_direction_is_none(self):
        f = frame(0, 0, [obj(1, bbox=(0, 0, 10, 10)),
                         obj(2, bbox=(2, 2, 6, 6))])
        g = build_frame_graph(f, {"direction"})
        assert g.edges[(1, 2)]["direction"] is None

    def test_edge_count_law_random(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(0, 8)
            objs = [obj(t, bbox=(rng.uniform(0, 200), rng.uniform(0, 200),
                                 rng.uniform(1, 40), rng.uniform(1, 40)))
                    for t in range(1, n + 1)]
            g = build_frame_graph(frame(0, 0, objs), {"distance"})
            assert len(g.edges) == n * (n - 1)

    def test_determinism(self):
        f = frame(3, 99, [obj(1, bbox=(1, 2, 3, 4)),
                          obj(2, bbox=(10, 2, 3, 4)),
                          obj(5, bbox=(4, 9, 2, 2))])
        g1 = build_frame_graph(f, {"distance", "topology"})
        g2 = build_frame_graph(f, {"distance", "topology"})
        assert g1.edges == g2.edges
        assert g1.nodes == g2.nodes

    def test_values_match_direct_geometry_calls(self):
        rng = random.Random(9)
        objs = [obj(t, bbox=(rng.uniform(0, 100), rng.uniform(0, 100),
                             rng.uniform(1, 30), rng.uniform(1, 30)))
                for t in range(1, 5)]
        g = build_frame_graph(frame(0, 0, objs), {"distance", "topology"})
        by_id = {o.track_id: o for o in objs}
        for (u, v), vals in g.edges.items():
            a, b = by_id[u].bbox, by_id[v].bbox
            assert vals["distance"] == geometry.centroid_distance(a, b)
            assert vals["topology"] == geometry.topology(a, b)
        with pytest.raises(UnknownRelation):   # parking reads slot boxes
            build_frame_graph(frame(0, 0, objs), {"overlap_ratio"})

    def test_no_required_relation_stores_no_edge(self):
        f = frame(0, 0, [obj(1), obj(2, bbox=(20, 0, 5, 5)),
                         obj(3, bbox=(40, 0, 5, 5))])
        g = build_frame_graph(f, set())
        assert g.edges == {}
        assert len(g.nodes) == 3

    def test_nodes_are_the_frame_objects_read_only(self):
        f = frame(0, 7, [obj(1), obj(2, bbox=(20, 0, 5, 5))])
        g = build_frame_graph(f, set())
        assert (g.timestamp, g.objects) == (f.timestamp, tuple(f.objects))
        assert g.nodes is g.objects
        with pytest.raises(AttributeError):
            g.nodes = ()
        assert not hasattr(g, "build_ms")


class TestScopedNeeds:
    """Needs keyed by ordered label pairs evaluate only those pairs."""

    FRAME = frame(0, 0, [obj(1, "person", (0, 0, 10, 20)),
                         obj(2, "horse", (0, 15, 30, 20)),
                         obj(3, "person", (40, 0, 10, 20)),
                         obj(4, "bike", (35, 15, 30, 20)),
                         obj(5, "car", (90, 0, 30, 20))])

    def test_edges_exactly_for_matching_label_pairs(self):
        g = build_frame_graph(self.FRAME, {("person", "horse"): {"topology"},
                                           ("person", "bike"): {"direction"}})
        assert {pair: set(vals) for pair, vals in g.edges.items()} == {
            (1, 2): {"topology"}, (3, 2): {"topology"},
            (1, 4): {"direction"}, (3, 4): {"direction"}}

    def test_same_label_pair_skips_self(self):
        g = build_frame_graph(self.FRAME, {("person", "person"): {"distance"}})
        assert set(g.edges) == {(1, 3), (3, 1)}

    def test_values_equal_the_all_pairs_build(self):
        scoped = build_frame_graph(self.FRAME, {("person", "horse"): RIDE})
        full = build_frame_graph(self.FRAME, RIDE)
        assert len(full.edges) == 5 * 4   # a plain set: every ordered pair
        assert scoped.edges == {p: full.edges[p] for p in scoped.edges}

    def test_label_pair_absent_from_frame(self):
        g = build_frame_graph(self.FRAME, {("rider", "pony"): RIDE})
        assert g.edges == {}

    def test_unknown_relation_in_needs(self):
        with pytest.raises(UnknownRelation):
            build_frame_graph(self.FRAME, {("person", "horse"): {"sorcery"}})

    def test_all_pairs_mixed_with_label_pairs_rejected(self):
        mixed = {ALL_PAIRS: {"distance"}, ("person", "horse"): {"topology"}}
        with pytest.raises(ValueError, match="ALL_PAIRS"):
            relation_needs(mixed)
        with pytest.raises(ValueError, match="ALL_PAIRS"):
            aggregate(window_of([self.FRAME]), mixed)

    def test_all_pairs_next_to_an_empty_label_pair_loads(self):
        needs = relation_needs({ALL_PAIRS: {"distance"},
                                ("person", "horse"): set()})
        assert needs == {ALL_PAIRS: {"distance"}}


class TestStreamGraphs:
    def test_five_frames(self):
        frames = [frame(i, i * 33, [obj(1)]) for i in range(5)]
        graphs = list(stream_graphs(frames, set()))
        assert [g.timestamp for g in graphs] == [0, 33, 66, 99, 132]

    def test_empty_stream(self):
        assert list(stream_graphs([], {"distance"})) == []

    def test_total_edges_across_frames(self):
        frames = [frame(i, i * 33, [obj(1), obj(2, bbox=(20, 0, 5, 5)),
                                    obj(3, bbox=(40, 0, 5, 5))])
                  for i in range(2)]
        graphs = list(stream_graphs(frames, {"distance"}))
        assert sum(len(g.edges) for g in graphs) == 12
