"""Tumbling-window partition tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame, obj
from vekg.errors import GraphOutsideWindow, NonPositiveLength
from vekg.graph import build_frame_graph
from vekg.windowing import WindowState, time_window


def graphs_at(timestamps):
    return [build_frame_graph(frame(i, ts, [obj(1)]), set())
            for i, ts in enumerate(timestamps)]


class TestTimeWindow:
    def test_basic_partition(self):
        wins = list(time_window(graphs_at([0, 400, 900, 1600]), 1000))
        assert [(w.start, w.end, len(w.graphs)) for w in wins] == \
            [(0, 1000, 3), (1000, 2000, 1)]

    def test_empty_window_emitted(self):
        wins = list(time_window(graphs_at([0, 2500]), 1000))
        assert [(w.start, w.end, len(w.graphs)) for w in wins] == \
            [(0, 1000, 1), (1000, 2000, 0), (2000, 3000, 1)]

    def test_empty_run_is_one_state(self):
        wins = list(time_window(graphs_at([0, 5, 100_000]), 10))
        assert [(w.start, w.end, len(w.graphs)) for w in wins] == \
            [(0, 10, 2), (10, 100_000, 0), (100_000, 100_010, 1)]

    def test_single_graph(self):
        wins = list(time_window(graphs_at([42]), 777))
        assert len(wins) == 1
        assert len(wins[0].graphs) == 1

    def test_empty_stream(self):
        assert list(time_window([], 1000)) == []

    def test_alignment_to_first_timestamp(self):
        wins = list(time_window(graphs_at([500, 600, 1400]), 1000))
        assert wins[0].start == 500 and wins[0].end == 1500
        assert len(wins[0].graphs) == 3

    def test_nonpositive_length(self):
        with pytest.raises(NonPositiveLength):
            list(time_window(graphs_at([0]), 0))

    def test_bounds_contain_graphs(self):
        for w in time_window(graphs_at([0, 10, 999, 1000, 1001, 5000]), 1000):
            for g in w.graphs:
                assert w.start <= g.timestamp < w.end

    def test_graph_outside_bounds_rejected(self):
        # a real exception, so the check holds under python -O too
        before, inside, at_end = graphs_at([999, 1000, 2000])
        assert WindowState(1000, 2000, (inside,)).graphs == (inside,)
        for g in (before, at_end):
            with pytest.raises(GraphOutsideWindow):
                WindowState(start=1000, end=2000, graphs=(inside, g))

    @given(st.lists(st.integers(0, 50_000), min_size=1, max_size=40,
                    unique=True),
           st.integers(1, 5000))
    @settings(max_examples=150, deadline=None)
    def test_partition_and_concatenation(self, timestamps, length):
        ts = sorted(timestamps)
        wins = list(time_window(graphs_at(ts), length))
        # every graph lands in exactly one window and order is preserved
        flat = [g.timestamp for w in wins for g in w.graphs]
        assert flat == ts
        # windows tile the time axis contiguously from the first timestamp
        assert wins[0].start == ts[0]
        for prev, nxt in zip(wins, wins[1:]):
            assert prev.end == nxt.start
            # a run of empty windows comes as one state
            assert prev.graphs or nxt.graphs
        for w in wins:
            # a state spans one window, or a whole number of empty ones
            assert (w.end - w.start) % length == 0
            assert w.end - w.start == length or not w.graphs
        assert wins[-1].end == ts[0] + ((ts[-1] - ts[0]) // length + 1) * length
