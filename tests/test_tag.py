"""Window aggregation, series queries, and reduction tests."""

import random

import pytest

from conftest import frame, obj, random_window, window_of
from vekg import geometry
from vekg.errors import (RelationVocabularyMismatch, UnknownNode,
                         UnknownRelation)
from vekg.tag import (POSITION, X, aggregate, edge_series, motion_series,
                      reduction_report)
from vekg.windowing import WindowState


def three_car_window_frames():
    """Cars 1 and 2 in all frames, car 3 only in the first two."""
    return [
        frame(0, 0, [obj(1, bbox=(0, 0, 10, 10)),
                     obj(2, bbox=(30, 0, 10, 10)),
                     obj(3, bbox=(60, 0, 10, 10))]),
        frame(1, 33, [obj(1, bbox=(2, 0, 10, 10)),
                      obj(2, bbox=(32, 0, 10, 10)),
                      obj(3, bbox=(63, 0, 10, 10))]),
        frame(2, 66, [obj(1, bbox=(4, 0, 10, 10)),
                      obj(2, bbox=(34, 0, 10, 10))]),
    ]


def three_car_window():
    return window_of(three_car_window_frames(), {"distance"}, start=0, end=100)


class TestAggregate:
    def test_three_frame_example(self):
        tag = aggregate(three_car_window(), {"distance"})
        assert len(tag.nodes) == 3
        assert len(tag.edges) == 9        # 3*2 pairs + 3 self-loops
        series = edge_series(tag, 2, 3, "distance")
        assert series[0] == geometry.centroid_distance(
            geometry.BoundingBox(30, 0, 10, 10),
            geometry.BoundingBox(60, 0, 10, 10))
        assert series[2] is X

    def test_single_frame_single_object(self):
        tag = aggregate(window_of([frame(0, 0, [obj(1)])], set()))
        assert len(tag.nodes) == 1
        assert len(tag.edges) == 1
        assert len(tag.edges[(1, 1)][POSITION]) == 1

    def test_empty_window(self):
        tag = aggregate(WindowState(start=0, end=100, graphs=()))
        assert tag.nodes == {} and tag.edges == {}

    def test_node_union(self):
        win = three_car_window()
        tag = aggregate(win, {"distance"})
        expected = set()
        for g in win.graphs:
            expected |= {o.track_id for o in g.nodes}
        assert set(tag.nodes) == expected

    def test_presence_bitmap(self):
        tag = aggregate(three_car_window(), {"distance"})
        assert tag.nodes[3].present == [True, True, False]
        assert tag.nodes[1].present == [True, True, True]

    def test_vocabulary_mismatch(self):
        with pytest.raises(RelationVocabularyMismatch):
            aggregate(three_car_window(), {"topology"})

    def test_last_seen_attributes(self):
        frames = [
            frame(0, 0, [obj(1, attrs={"color": "red"})]),
            frame(1, 33, [obj(1, attrs={"color": "green"})]),
        ]
        tag = aggregate(window_of(frames, set()))
        assert tag.nodes[1].attributes == {"color": "green"}

    def test_n_squared_law_random(self):
        rng = random.Random(21)
        for _ in range(25):
            tag = aggregate(random_window(rng), {"distance"})
            n = len(tag.nodes)
            assert len(tag.edges) == n * n

    def test_lossless_pair_reconstruction(self):
        rng = random.Random(22)
        for _ in range(15):
            win = random_window(rng)
            tag = aggregate(win, {"distance"})
            for i, g in enumerate(win.graphs):
                for (u, v), vals in g.edges.items():
                    assert edge_series(tag, u, v, "distance")[i] == \
                        vals["distance"]

    def test_x_exactly_where_absent(self):
        rng = random.Random(23)
        for _ in range(15):
            win = random_window(rng)
            tag = aggregate(win, {"distance"})
            for (u, v), series in tag.edges.items():
                for rel, vals in series.items():
                    for i, val in enumerate(vals):
                        both = tag.nodes[u].present[i] and tag.nodes[v].present[i]
                        assert (val is X) == (not both)


class TestNoRequiredRelation:
    """A TAG aggregated with no relation stores only its self-loops."""

    def test_only_self_loops_stored(self):
        rng = random.Random(24)
        for _ in range(15):
            tag = aggregate(random_window(rng, relations=()), set())
            assert set(tag.edges) == {(t, t) for t in tag.nodes}
            assert all(set(rels) == {POSITION} for rels in tag.edges.values())

    def test_reduction_matches_distance_aggregation(self):
        for seed in range(25, 40):
            bare = random_window(random.Random(seed), relations=())
            full = random_window(random.Random(seed))
            assert reduction_report(bare, aggregate(bare, set())) == \
                reduction_report(full, aggregate(full, {"distance"}))

    def test_unstored_pair_is_unknown_relation(self):
        tag = aggregate(window_of(three_car_window_frames(), set()), set())
        with pytest.raises(UnknownRelation):
            edge_series(tag, 1, 2, "distance")
        assert edge_series(tag, 1, 1, POSITION)[0].x == 0

    def test_dump_counts_edges_from_nodes(self):
        tag = aggregate(window_of(three_car_window_frames(), set()), set())
        text = tag.dump()
        assert "nodes=3 edges=9" in text
        assert "edge 1->1 position" in text and "edge 1->2" not in text


class TestNodeFrames:
    def test_present_matches_frames(self):
        rng = random.Random(41)
        for _ in range(15):
            win = random_window(rng)
            tag = aggregate(win, {"distance"})
            for tid, node in tag.nodes.items():
                assert len(node.frames) == len(win.graphs)
                assert node.present == [o is not None for o in node.frames]
                for i, g in enumerate(win.graphs):
                    here = [o for o in g.nodes if o.track_id == tid]
                    assert node.frames[i] is (here[0] if here else None)

    def test_self_loop_built_from_frames(self):
        tag = aggregate(window_of(three_car_window_frames(), set()), set())
        for tid, node in tag.nodes.items():
            assert tag.edges[(tid, tid)][POSITION] == [
                o.bbox if o is not None else X for o in node.frames]


class TestEdgeSeries:
    def test_self_loop_positions(self):
        tag = aggregate(three_car_window(), {"distance"})
        series = edge_series(tag, 3, 3, POSITION)
        assert series[0].x == 60 and series[1].x == 63 and series[2] is X

    def test_full_series_no_gaps(self):
        tag = aggregate(three_car_window(), {"distance"})
        assert all(v is not X for v in edge_series(tag, 1, 2, "distance"))

    def test_unknown_node(self):
        tag = aggregate(three_car_window(), {"distance"})
        with pytest.raises(UnknownNode):
            edge_series(tag, 1, 9, "distance")

    def test_unknown_relation(self):
        tag = aggregate(three_car_window(), {"distance"})
        with pytest.raises(UnknownRelation):
            edge_series(tag, 1, 2, "topology")


class TestMotionSeries:
    def test_stationary(self):
        frames = [frame(i, i * 33, [obj(1)]) for i in range(4)]
        tag = aggregate(window_of(frames, set()))
        assert motion_series(tag, 1) == [0.0, 0.0, 0.0, 0.0]

    def test_three_four_five_step(self):
        frames = [frame(0, 0, [obj(1, bbox=(0, 0, 2, 2))]),
                  frame(1, 33, [obj(1, bbox=(3, 4, 2, 2))])]
        tag = aggregate(window_of(frames, set()))
        assert motion_series(tag, 1) == [0.0, pytest.approx(5.0)]

    def test_absence_propagates_x(self):
        frames = [frame(0, 0, [obj(1)]),
                  frame(1, 33, []),
                  frame(2, 66, [obj(1)])]
        tag = aggregate(window_of(frames, set()))
        series = motion_series(tag, 1)
        assert series[0] == 0.0 and series[1] is X and series[2] is X


class TestReduction:
    def test_persistent_objects_arithmetic(self):
        frames = [frame(i, i * 33,
                        [obj(t, bbox=(40 * t, 0, 10, 10)) for t in range(1, 6)])
                  for i in range(1800)]
        win = window_of(frames, set(), start=0, end=60_000)
        tag = aggregate(win)
        rep = reduction_report(win, tag)
        assert rep.vekg_nodes == 9000 and rep.tag_nodes == 5
        assert rep.rin == pytest.approx(0.99944, abs=1e-5)
        assert not rep.degenerate

    def test_single_frame_negative_rie_flagged(self):
        win = window_of([frame(0, 0, [obj(1), obj(2, bbox=(30, 0, 5, 5))])],
                        set())
        tag = aggregate(win)
        rep = reduction_report(win, tag)
        # 2 raw edges vs 4 aggregated (2 pairs + 2 self-loops)
        assert rep.rie == pytest.approx(-1.0)
        assert rep.degenerate

    def test_empty_window_ratios_are_zero(self):
        win = WindowState(start=0, end=100, graphs=())
        rep = reduction_report(win, aggregate(win))
        assert rep.rin == 0.0 and rep.rie == 0.0


def test_dump_smoke():
    tag = aggregate(three_car_window(), {"distance"})
    text = tag.dump()
    assert "node 3" in text and "edge 2->3 distance" in text and "X" in text
