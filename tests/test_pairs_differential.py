"""Differential test of the pair kernel against the reference pair code,
which decided each frame's pairs by frame label (``_pair_relations``) and
then copied the frame edges into the TAG's series slot by slot.

``aggregate``'s pair series and ``build_frame_graph``'s edges must equal
the reference's, under label-pair needs and ALL_PAIRS, for topology,
direction and distance.  Tracks drop out of frames and change label mid
window.  Boxes sit on a small grid, where they touch, nest, are equal or
share a centroid, or near 1.7e308, where ``x + w`` overflows to inf.

Equal is not enough where the rules test a slot with ``in`` or ``is``:
every topology slot must be one of the interned ``TOPOLOGY_SETS``, every
direction slot a ``DirectionClass`` member or None, and every other slot
the X marker itself.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pairs
from conftest import frame, obj, window_of
from vekg.geometry import TOPOLOGY_SETS, DirectionClass, SpatialRelationClass as S
from vekg.graph import build_frame_graph, pair_series, relation_needs
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


def assert_slots_are_the_shared_objects(edges):
    """Each topology slot is an interned set, each direction slot an enum
    member or None, and each other slot is X or a metric float."""
    topology_sets = {id(s) for s in TOPOLOGY_SETS}
    for series in edges.values():
        for value in series.get("topology", ()):
            assert value is X or id(value) in topology_sets
        for value in series.get("direction", ()):
            assert value is X or value is None or type(value) is DirectionClass
        for value in series.get("distance", ()):
            assert value is X or type(value) is float


@settings(max_examples=300, deadline=None)
@given(windows(), NEEDS)
def test_pair_series_match_the_reference(frames, required):
    needs = relation_needs(required)
    tag = aggregate(window_of(frames), needs)
    pairs = {p: series for p, series in tag.edges.items() if p[0] != p[1]}
    expected = reference_pairs.pair_edges([f.objects for f in frames], needs)
    assert canonical(pairs) == canonical(expected)
    assert list(pairs) == list(expected)
    assert_slots_are_the_shared_objects(pairs)
    for pair, series in pairs.items():
        for rel, slots in series.items():
            assert [v is X for v in slots] == [v is X for v in expected[pair][rel]]


@settings(max_examples=300, deadline=None)
@given(windows(), NEEDS)
def test_frame_edges_match_the_reference(frames, required):
    needs = relation_needs(required)
    for f in frames:
        edges = build_frame_graph(f, needs).edges
        assert canonical(edges) == \
            canonical(reference_pairs._pair_relations(f.objects, needs))
        assert_slots_are_the_shared_objects(
            {pair: {rel: [value] for rel, value in values.items()}
             for pair, values in edges.items()})


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


RIDE_NEEDS = {("person", "horse"): {"topology", "direction", "distance"}}


def test_needs_naming_a_label_no_track_carries():
    """A label pair whose label no track carries gets no edge; the other
    label pairs are filled as usual."""
    frames = [frame(0, 0, [obj(1, "person", (0, 0, 2, 2)),
                           obj(2, "bike", (1, 1, 2, 2))])]
    needs = relation_needs({("person", "horse"): {"topology"},
                            ("horse", "person"): {"direction"},
                            ("person", "bike"): {"distance"}})
    tag = aggregate(window_of(frames), needs)
    assert {p for p in tag.edges if p[0] != p[1]} == {(1, 2)}
    # centroids (1, 1) and (2, 2)
    assert tag.edges[(1, 2)] == {"distance": [math.hypot(1.0, 1.0)]}
    assert pair_series({}, 0, needs) == {}


def test_a_window_of_one_frame():
    frames = [frame(0, 0, [obj(1, "person", (0, 0, 4, 4)),
                           obj(2, "horse", (1, 1, 2, 2)),
                           obj(3, "horse", (9, 1, 1, 1))])]
    tag = aggregate(window_of(frames), RIDE_NEEDS)
    assert tag.edges[(1, 2)]["topology"] == [{S.INTERSECT, S.CONTAINS}]
    assert tag.edges[(1, 2)]["topology"][0] is TOPOLOGY_SETS[3]
    assert tag.edges[(1, 2)]["direction"] == [None]
    assert tag.edges[(1, 3)]["direction"] == [DirectionClass.LEFT]
    assert tag.edges[(1, 3)]["topology"][0] is TOPOLOGY_SETS[0]
    assert canonical(tag.edges) == canonical({
        **{p: s for p, s in tag.edges.items() if p[0] == p[1]},
        **reference_pairs.pair_edges([frames[0].objects], relation_needs(RIDE_NEEDS))})


def test_an_empty_window_with_needs():
    """No track: no node and no pair edge, under label pairs and ALL_PAIRS."""
    window = window_of([frame(0, 0, [])])
    for needs in (RIDE_NEEDS, {"topology", "direction"}):
        tag = aggregate(window, needs)
        assert tag.nodes == {} and tag.edges == {}
        assert pair_series({}, 1, relation_needs(needs)) == {}


def test_a_label_group_of_one_track_has_no_self_pair():
    """A (person, person) need over one person gives no pair; over two
    persons each ordered pair once, and the lone horse stays unpaired."""
    needs = {("person", "person"): {"topology", "direction"}}
    one = [frame(0, 0, [obj(1, "person", (0, 0, 2, 2)), obj(2, "horse", (0, 0, 2, 2))])]
    assert {p for p in aggregate(window_of(one), needs).edges if p[0] != p[1]} == set()
    two = [frame(0, 0, [obj(1, "person", (0, 0, 2, 2)), obj(3, "person", (0, 4, 2, 2)),
                        obj(2, "horse", (0, 0, 2, 2))])]
    tag = aggregate(window_of(two), needs)
    assert [p for p in tag.edges if p[0] != p[1]] == [(1, 3), (3, 1)]
    assert tag.edges[(1, 3)]["direction"] == [DirectionClass.ABOVE]
    assert tag.edges[(3, 1)]["direction"] == [DirectionClass.BELOW]
    # ALL_PAIRS: one track alone has no pair either
    assert pair_series({1: ("person", one[0].objects[:1])}, 1,
                       relation_needs({"topology"})) == {}
