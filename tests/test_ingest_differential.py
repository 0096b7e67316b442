"""Differential test of ``parse_frame`` against the reference parser.

Records come from the built-in scenarios and are mutated the ways a
detector or a broken writer could get them wrong: swapped types, huge
magnitudes, dropped keys, non-positive sizes, non-object objects,
duplicate tracks and negative frame indices.  Both parsers must accept
the same records, reject the rest with the same error type, and parse an
accepted record to the same values.
"""

import copy
import json
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest
from vekg import synth
from vekg.errors import MalformedRecord, NonMonotonicTime, SchemaViolation
from vekg.ingest import parse_frame, serialize_frame

ERRORS = (MalformedRecord, SchemaViolation, NonMonotonicTime)
HUGE = "<1e400>"   # written into the JSON text as the literal 1e400


def _seed_records():
    """A few frames with objects from every built-in scenario, decoded."""
    records = []
    for sc in synth.builtin_scenarios():
        frames = [f for f in islice(synth.generate_frames(sc), 0, 90, 15) if f.objects]
        records += [json.loads(serialize_frame(f)) for f in frames[:3]]
    return records


SEEDS = _seed_records()
FRAME_KEYS = ("frame", "ts_ms", "objects")
OBJECT_KEYS = ("track", "label", "conf", "bbox", "attrs", "keypoints", "features")
VALUES = (st.sampled_from([True, False, None, "7", "", [], {}, [1, 2], {"a": 1},
                           0, -1, 0.5, 1, 2.0, 1.5, 10 ** 400, -10 ** 400, HUGE])
          | st.integers(-3, 3) | st.floats()).map(copy.deepcopy)   # values get mutated
NUMBERS = st.sampled_from([0, -0.0, -1, -5.5, 1e-320, 1e308, True, "3", None, HUGE,
                           10 ** 400]) | st.floats()


def _objects(record):
    objs = record.get("objects")
    return [o for o in objs if type(o) is dict] if type(objs) is list else []


def set_frame_field(draw, record):
    record[draw(st.sampled_from(FRAME_KEYS))] = draw(VALUES)


def set_object_field(draw, record):
    objs = _objects(record)
    if objs:
        draw(st.sampled_from(objs))[draw(st.sampled_from(OBJECT_KEYS))] = draw(VALUES)


def drop_key(draw, record):
    target = draw(st.sampled_from([record] + _objects(record)))
    if target:
        del target[draw(st.sampled_from(sorted(target)))]


def set_number(draw, record):
    """A bbox value, a keypoint coordinate or a feature becomes a bad number."""
    lists = []
    for o in _objects(record):
        lists += [v for v in (o.get("bbox"), o.get("features")) if type(v) is list]
        if type(o.get("keypoints")) is dict:
            lists += [v for v in o["keypoints"].values() if type(v) is list]
    lists = [v for v in lists if v]
    if lists:
        values = draw(st.sampled_from(lists))
        values[draw(st.integers(0, len(values) - 1))] = draw(NUMBERS)


def shrink_box(draw, record):
    boxes = [o["bbox"] for o in _objects(record) if type(o.get("bbox")) is list
             and len(o["bbox"]) == 4]
    if boxes:
        draw(st.sampled_from(boxes))[draw(st.sampled_from([2, 3]))] = draw(
            st.sampled_from([0, 0.0, -0.0, -1, -20.5]))


def non_dict_object(draw, record):
    objs = record.get("objects")
    if type(objs) is list and objs:
        objs[draw(st.integers(0, len(objs) - 1))] = draw(VALUES)


def duplicate_track(draw, record):
    objs = _objects(record)
    if objs:
        draw(st.sampled_from(objs))["track"] = draw(st.sampled_from(objs)).get("track")


def negative_frame(draw, record):
    record["frame"] = draw(st.integers(-3, -1))


def add_optional(draw, record):
    """An optional field present but falsy, empty or wrongly shaped."""
    objs = _objects(record)
    if objs:
        draw(st.sampled_from(objs))[draw(st.sampled_from(["attrs", "keypoints", "features"]))] = \
            draw(st.sampled_from([None, 0, False, "", [], {}, "x", [1, "a"], {"k": [1]},
                                  {"k": [1, True]}, {"k": [HUGE, 2]}, {"k": 3}]).map(copy.deepcopy))


MUTATIONS = (set_frame_field, set_object_field, drop_key, set_number, shrink_box,
             non_dict_object, duplicate_track, negative_frame, add_optional)


@st.composite
def mutated(draw):
    record = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        draw(st.sampled_from(MUTATIONS))(draw, record)
    text = json.dumps(record).replace(json.dumps(HUGE), "1e400")
    frame, ts = record.get("frame"), record.get("ts_ms")
    if type(frame) is int and type(ts) is int and draw(st.booleans()):
        prev = (frame - draw(st.integers(0, 2)), ts - draw(st.integers(0, 2)))
    else:
        prev = draw(st.none() | st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return text, prev


def shape(frame):
    """A parsed frame as plain values, for records of either parser."""
    return (frame.frame_index, frame.timestamp, tuple(
        (o.track_id, o.label, o.confidence, (o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h),
         o.attributes, o.keypoints) for o in frame.objects))


def outcome(parse, text, prev):
    try:
        return "accepted", shape(parse(text, prev))
    except ERRORS as exc:
        return "rejected", type(exc)


def assert_agree(text, prev=None):
    expected = outcome(reference_ingest.parse_frame, text, prev)
    assert outcome(parse_frame, text, prev) == expected
    return expected[0]


@settings(max_examples=500, deadline=None)
@given(mutated())
def test_parse_frame_agrees_with_reference(case):
    assert_agree(*case)


def test_seed_records_are_accepted():
    assert len(SEEDS) >= 40
    assert {assert_agree(json.dumps(r)) for r in SEEDS} == {"accepted"}


def _obj(**fields):
    o = {"track": 1, "label": "car", "conf": 0.5, "bbox": [0, 0, 5, 5]}
    o.update(fields)
    return o


def _record(*objects, frame=3, ts=100):
    return json.dumps({"frame": frame, "ts_ms": ts, "objects": list(objects)})


# named cases for the verdicts that the mutations above reach
REGRESSIONS = {
    "attrs_null": (_record(_obj(attrs=None)), None, "rejected"),
    "attrs_number_values": (_record(_obj(attrs={"n": 3, "b": True})), None, "accepted"),
    "keypoints_null": (_record(_obj(keypoints=None)), None, "accepted"),
    "keypoints_empty": (_record(_obj(keypoints={})), None, "accepted"),
    "keypoints_zero": (_record(_obj(keypoints=0)), None, "accepted"),
    "keypoints_list": (_record(_obj(keypoints=[1, 2])), None, "rejected"),
    "keypoint_bool": (_record(_obj(keypoints={"nose": [1, True]})), None, "rejected"),
    "keypoint_1e400": ('{"frame":3,"ts_ms":100,"objects":[{"track":1,"label":"car",'
                       '"conf":0.5,"bbox":[0,0,5,5],"keypoints":{"nose":[1e400,2]}}]}',
                       None, "rejected"),
    "keypoint_extra_coordinate": (_record(_obj(keypoints={"nose": [1, 2, "z"]})),
                                  None, "accepted"),
    "features_false": (_record(_obj(features=False)), None, "accepted"),
    "features_string": (_record(_obj(features="abc")), None, "rejected"),
    "features_bool": (_record(_obj(features=[0.5, True])), None, "rejected"),
    "features_huge_int": (_record(_obj(features=[10 ** 400])), None, "accepted"),
    "bbox_true": (_record(_obj(bbox=[True, 0, 5, 5])), None, "rejected"),
    "bbox_1e400": ('{"frame":3,"ts_ms":100,"objects":[{"track":1,"label":"car",'
                   '"conf":0.5,"bbox":[0,0,1e400,5]}]}', None, "rejected"),
    "bbox_huge_int": (_record(_obj(bbox=[0, 0, 10 ** 400, 5])), None, "rejected"),
    "bbox_nan": ('{"frame":3,"ts_ms":100,"objects":[{"track":1,"label":"car",'
                 '"conf":0.5,"bbox":[NaN,0,5,5]}]}', None, "rejected"),
    # a float is taken as it is and an int converts; anything else is refused
    "bbox_four_floats": (_record(_obj(bbox=[0.5, 1.25, 5.0, 7.5])), None, "accepted"),
    "bbox_four_ints": (_record(_obj(bbox=[0, -3, 5, 7])), None, "accepted"),
    "bbox_floats_and_ints": (_record(_obj(bbox=[0.5, 3, 5.0, 7])), None, "accepted"),
    "bbox_floats_holding_a_bool": (_record(_obj(bbox=[0.5, 1.5, True, 7.5])),
                                   None, "rejected"),
    "label_string": (_record(_obj(label="person")), None, "accepted"),
    # the optional keys are read only past the four required ones
    "unknown_fifth_key": (_record(_obj(color="red")), None, "accepted"),
    "optional_keys_empty": (_record(_obj(keypoints={}, features=[], attrs={})),
                            None, "accepted"),
    "unknown_key_then_bad_attrs": (_record(_obj(color="red", attrs=[1])),
                                   None, "rejected"),
    "bbox_zero_height": (_record(_obj(bbox=[0, 0, 5, 0])), None, "rejected"),
    "bbox_negative_zero_width": (_record(_obj(bbox=[0, 0, -0.0, 5])), None, "rejected"),
    "bbox_subnormal_width": (_record(_obj(bbox=[0, 0, 1e-320, 5])), None, "accepted"),
    "bbox_five_values": (_record(_obj(bbox=[0, 0, 5, 5, 5])), None, "rejected"),
    "conf_true": (_record(_obj(conf=True)), None, "rejected"),
    "conf_int_one": (_record(_obj(conf=1)), None, "accepted"),
    "conf_huge_int": (_record(_obj(conf=10 ** 400)), None, "rejected"),
    "track_float": (_record(_obj(track=1.0)), None, "rejected"),
    "track_bool": (_record(_obj(track=True)), None, "rejected"),
    "label_number": (_record(_obj(label=7)), None, "accepted"),
    "label_null": (_record(_obj(label=None)), None, "accepted"),
    "label_missing": (_record({"track": 1, "conf": 0.5, "bbox": [0, 0, 5, 5]}),
                      None, "rejected"),
    "object_not_dict": (_record([1, 2]), None, "rejected"),
    "objects_not_list": ('{"frame":3,"ts_ms":100,"objects":{}}', None, "rejected"),
    "frame_true": (_record(frame=True), None, "rejected"),
    "frame_negative": (_record(frame=-1), None, "rejected"),
    "duplicate_track": (_record(_obj(), _obj(bbox=[9, 9, 5, 5])), None, "rejected"),
    # NonMonotonicTime is checked before the negative index and the duplicate
    "negative_frame_not_after_prev": (_record(frame=-1, ts=100), (0, 0), "rejected"),
    "duplicate_track_not_after_prev": (_record(_obj(), _obj(), ts=5), (0, 10), "rejected"),
    "frame_not_after_prev": (_record(frame=3, ts=100), (3, 50), "rejected"),
    "record_not_object": ("[1, 2]", None, "rejected"),
    "not_json": ("{'frame': 1}", None, "rejected"),
}


@pytest.mark.parametrize("text, prev, verdict", REGRESSIONS.values(), ids=REGRESSIONS)
def test_regression_case(text, prev, verdict):
    assert assert_agree(text, prev) == verdict
