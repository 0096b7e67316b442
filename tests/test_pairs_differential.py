"""Differential test of the pair kernel against the reference pair code,
which decided each frame's pairs by frame label (``_pair_relations``) and
then copied the frame edges into the TAG's series slot by slot.

``aggregate``'s pair series and ``build_frame_graph``'s edges must equal
the reference's, under label-pair needs and ALL_PAIRS, for topology,
direction and distance.  Tracks drop out of frames and change label mid
window.  Boxes sit on a small grid, where they touch, nest, are equal or
share a centroid, or near 1.7e308, where ``x + w`` overflows to inf.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pairs
from conftest import frame, obj, window_of
from vekg.geometry import DirectionClass, SpatialRelationClass as S
from vekg.graph import build_frame_graph, relation_needs
from vekg.tag import X, aggregate

LABELS = ["person", "horse", "bike"]
RELATIONS = st.sets(st.sampled_from(["topology", "direction", "distance"]),
                    min_size=1)
GRID_BOX = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]))
# boxes whose right or bottom edge and centroid overflow to inf
FAR_BOX = st.sampled_from([(1.7e308, 0, 1.7e308, 2), (0, 1.7e308, 2, 1.7e308),
                           (1.7e308, 1.7e308, 1.7e308, 1.7e308)])
COORD = st.integers(0, 6) | st.sampled_from([0.5, 1.7e308, -1.7e308, 1e308]) \
    | st.floats(-1.7e308, 1.7e308)
SIZE = st.integers(1, 6) | st.sampled_from([0.5, 1.7e308, 1e308, 5e-324]) \
    | st.floats(0, 1.7e308, exclude_min=True)
BOXES = [GRID_BOX, GRID_BOX, GRID_BOX, FAR_BOX, st.tuples(COORD, COORD, SIZE, SIZE)]
NEEDS = (RELATIONS
         | st.dictionaries(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
                           RELATIONS, min_size=1, max_size=3))


@st.composite
def windows(draw):
    """A window's frames: each track is present or absent per frame and
    now and then carries another label."""
    tracks = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    frames = []
    for i in range(draw(st.integers(1, 8))):
        objects = []
        for track, label in enumerate(tracks, 1):
            if draw(st.integers(0, 4)):
                if not draw(st.integers(0, 5)):
                    label = draw(st.sampled_from(LABELS))
                box = draw(draw(st.sampled_from(BOXES)))
                objects.append(obj(track, label, box))
        frames.append(frame(i, 33 * i, objects))
    return frames


def canonical(value):
    """``value`` with NaN made equal to itself, inside dicts and lists."""
    if isinstance(value, dict):
        return {key: canonical(v) for key, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


@settings(max_examples=300, deadline=None)
@given(windows(), NEEDS)
def test_pair_series_match_the_reference(frames, required):
    needs = relation_needs(required)
    tag = aggregate(window_of(frames), needs)
    pairs = {p: series for p, series in tag.edges.items() if p[0] != p[1]}
    expected = reference_pairs.pair_edges([f.objects for f in frames], needs)
    assert canonical(pairs) == canonical(expected)
    assert list(pairs) == list(expected)


@settings(max_examples=300, deadline=None)
@given(windows(), NEEDS)
def test_frame_edges_match_the_reference(frames, required):
    needs = relation_needs(required)
    for f in frames:
        assert canonical(build_frame_graph(f, needs).edges) == \
            canonical(reference_pairs._pair_relations(f.objects, needs))


def test_examples():
    """Touching, nested, equal and overflowing boxes, an absence and a
    label change, against hand-derived values."""
    needs = {("person", "horse"): {"topology", "direction", "distance"}}
    horse = (0, 10, 10, 10)
    frames = [
        frame(0, 0, [obj(1, "person", (0, 0, 10, 10)), obj(2, "horse", horse)]),
        frame(1, 33, [obj(1, "person", (2, 12, 6, 6)), obj(2, "horse", horse)]),
        frame(2, 66, [obj(1, "person", horse), obj(2, "horse", horse)]),
        frame(3, 99, [obj(2, "horse", horse)]),
        frame(4, 132, [obj(1, "bike", (0, 0, 10, 10)), obj(2, "horse", horse)]),
        frame(5, 165, [obj(1, "person", (1.7e308, 0, 1.7e308, 10)),
                       obj(2, "horse", horse)]),
    ]
    tag = aggregate(window_of(frames), needs)
    assert set(tag.edges) == {(1, 1), (2, 2), (1, 2)}
    series = tag.edges[(1, 2)]
    assert series["topology"] == [
        {S.INTERSECT, S.TOUCH},
        {S.INTERSECT, S.WITHIN, S.INSIDE},
        {S.INTERSECT, S.CONTAINS, S.WITHIN, S.COVERED_BY},
        X, X, {S.DISJOINT}]
    assert series["direction"] == [DirectionClass.ABOVE, None, None, X, X,
                                   DirectionClass.RIGHT]
    assert series["distance"][:5] == [10.0, 0.0, 0.0, X, X]
    assert series["distance"][5] == math.inf
    assert canonical(tag.edges[(1, 2)]) == canonical(
        reference_pairs.pair_edges([f.objects for f in frames],
                                   relation_needs(needs))[(1, 2)])
