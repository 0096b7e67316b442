"""Window aggregation, series queries, and reduction tests."""

import random

import pytest

from conftest import frame, obj, random_window, window_of
from vekg import geometry
from vekg.errors import UnknownNode, UnknownRelation
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
        assert [o is not None for o in tag.nodes[3].frames] == [True, True, False]
        assert [o is not None for o in tag.nodes[1].frames] == [True, True, True]

    def test_last_seen_attributes(self):
        frames = [
            frame(0, 0, [obj(1, label="van", attrs={"color": "red"}),
                         obj(2, label="car", attrs={"color": "blue"})]),
            frame(1, 33, [obj(1, label="truck", attrs={"color": "green"}),
                          obj(2, label="bus", attrs={"color": "white"})]),
            frame(2, 66, [obj(1, attrs={"color": "black"})]),
        ]
        tag = aggregate(window_of(frames, set()))
        assert tag.nodes[1].label == "car"
        assert tag.nodes[1].attributes == {"color": "black"}
        # track 2 is absent at the window's last frame
        assert tag.nodes[2].label == "bus"
        assert tag.nodes[2].attributes == {"color": "white"}

    def test_last_present_object_found_once(self):
        """Label and attributes read the one object found at the track's
        last present frame, and it is looked up once per node."""
        frames = [frame(0, 0, [obj(1, label="van", attrs={"color": "red"})]),
                  frame(1, 33, [obj(1, label="car", attrs={"color": "blue"})]),
                  frame(2, 66, [])]
        node = aggregate(window_of(frames, set())).nodes[1]
        assert "_last_seen" not in vars(node)
        assert (node.label, node.attributes) == ("car", {"color": "blue"})
        assert vars(node)["_last_seen"] is node.frames[1]

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
                        both = (tag.nodes[u].frames[i] is not None
                                and tag.nodes[v].frames[i] is not None)
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


class TestScopedNeeds:
    """A TAG aggregated for label-pair needs holds series only for the
    track pairs whose node labels match a needed pair."""

    NEEDS = {("person", "horse"): {"distance"}}

    @staticmethod
    def frames():
        """Persons 1 and 2, horse 3, car 4; person 2 and horse 3 are never
        in the same frame."""
        return [
            frame(0, 0, [obj(1, "person", (0, 0, 10, 10)),
                         obj(3, "horse", (30, 0, 10, 10)),
                         obj(4, "car", (60, 0, 10, 10))]),
            frame(1, 33, [obj(1, "person", (2, 0, 10, 10)),
                          obj(2, "person", (90, 0, 10, 10))]),
            frame(2, 66, [obj(1, "person", (4, 0, 10, 10)),
                          obj(3, "horse", (34, 0, 10, 10)),
                          obj(4, "car", (64, 0, 10, 10))]),
        ]

    def test_series_for_every_label_matched_pair(self):
        tag = aggregate(window_of(self.frames(), self.NEEDS), self.NEEDS)
        pairs = {p for p in tag.edges if p[0] != p[1]}
        assert pairs == {(1, 3), (2, 3)}
        assert set(tag.edges[(1, 3)]) == {"distance"}
        assert edge_series(tag, 1, 3, "distance") == [30.0, X, 30.0]

    def test_never_co_present_pair_is_all_x(self):
        tag = aggregate(window_of(self.frames(), self.NEEDS), self.NEEDS)
        assert edge_series(tag, 2, 3, "distance") == [X, X, X]

    def test_unmatched_pair_has_no_series(self):
        tag = aggregate(window_of(self.frames(), self.NEEDS), self.NEEDS)
        for u, v in ((3, 1), (1, 4), (1, 2)):
            with pytest.raises(UnknownRelation):
                edge_series(tag, u, v, "distance")

    def test_slots_equal_the_all_pairs_tag(self):
        rng = random.Random(25)
        labels = ("person", "horse", "bike")
        for _ in range(15):
            win = random_window(rng)
            frames = [frame(i, g.timestamp,
                            [obj(o.track_id, labels[o.track_id % 3],
                                 (o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h))
                             for o in g.nodes])
                      for i, g in enumerate(win.graphs)]
            needs = {("person", "horse"): {"distance"},
                     ("bike", "person"): {"distance"}}
            scoped = aggregate(window_of(frames, needs, win.start, win.end), needs)
            full = aggregate(window_of(frames, {"distance"}, win.start, win.end),
                             {"distance"})
            for (u, v), series in scoped.edges.items():
                assert series == full.edges[(u, v)]
                if u != v:
                    assert (scoped.nodes[u].label, scoped.nodes[v].label) in needs

    def test_label_change_mid_window_gives_x(self):
        """A slot holds a value only in frames where both tracks carry
        the labels of their node (the last label seen in the window)."""
        needs = {("person", "horse"): {"distance"},
                 ("person", "bike"): {"distance"}}
        frames = [frame(i, 33 * i, [obj(1, "person", (0, 0, 10, 10)),
                                     obj(2, mount, (30, 0, 10, 10))])
                  for i, mount in enumerate(("bike", "bike", "cow",
                                             "horse", "horse"))]
        tag = aggregate(window_of(frames, needs), needs)
        assert tag.nodes[2].label == "horse"
        assert edge_series(tag, 1, 2, "distance") == [X, X, X, 30.0, 30.0]
        assert set(tag.edges) == {(1, 1), (2, 2), (1, 2)}

    def test_graphs_built_with_no_needs_aggregate_alike(self):
        """aggregate reads the nodes' frames, not the frame graphs' edges."""
        for built in ({}, {("person", "bike"): {"distance"}}, {"distance"}):
            tag = aggregate(window_of(self.frames(), built), self.NEEDS)
            assert tag.edges == aggregate(
                window_of(self.frames(), self.NEEDS), self.NEEDS).edges
            assert edge_series(tag, 1, 3, "distance") == [30.0, X, 30.0]


class TestNodeFrames:
    def test_present_matches_frames(self):
        rng = random.Random(41)
        for _ in range(15):
            win = random_window(rng)
            tag = aggregate(win, {"distance"})
            for tid, node in tag.nodes.items():
                assert len(node.frames) == len(win.graphs)
                for i, g in enumerate(win.graphs):
                    here = [o for o in g.nodes if o.track_id == tid]
                    assert node.frames[i] is (here[0] if here else None)

    def test_frames_and_frame_graphs_aggregate_alike(self):
        """A run's windows hold frames; windows of VekgGraphs built from
        the same frames give the same TAG and reduction."""
        needs = {("person", "horse"): {"distance", "topology"}}
        frames = [frame(i, 33 * i, [obj(1, "person", (3 * i, 0, 10, 20)),
                                     obj(2, "horse", (0, 15, 30, 20))]
                        + ([obj(3, "car", (90, 0, 30, 20))] if i % 2 else []))
                  for i in range(4)]
        graphs = window_of(frames, needs)
        raw = WindowState(start=graphs.start, end=graphs.end,
                          graphs=tuple(frames))
        a, b = aggregate(raw, needs), aggregate(graphs, needs)
        assert (a.timestamps, a.nodes, a.edges) == (b.timestamps, b.nodes, b.edges)
        assert reduction_report(raw, a) == reduction_report(graphs, b)

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


@pytest.mark.parametrize("timestamps, period", [
    ((0, 33, 67, 100), 33),        # gaps 33, 34, 33
    ((0, 10, 30, 60, 100), 30),    # gaps 10, 20, 30, 40: the upper median
    ((5,), 1),                     # one frame: no gap
])
def test_frame_period_is_the_median_gap(timestamps, period):
    frames = [frame(i, t, [obj(1)]) for i, t in enumerate(timestamps)]
    tag = aggregate(window_of(frames))
    assert tag.frame_period == period
    assert "frame_period" in vars(tag)   # computed once, then cached
