"""Stream parsing, validation, and round-trip tests."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vekg.errors import (MalformedRecord, NonMonotonicTime, SchemaViolation,
                         SourceUnavailable, VekgError)
from vekg.geometry import BoundingBox
from vekg.ingest import (FrameDetections, ObjectNode, StreamHeader, open_stream,
                         parse_frame, parse_header, serialize_frame,
                         serialize_header, write_stream)

HEADER = '{"format":"vekg-detections","version":1,"resolution":[1920,1080]}'


def line(frame=0, ts=0, objects=None):
    if objects is None:
        objects = [{"track": 7, "label": "person", "conf": 0.9,
                    "bbox": [10, 10, 40, 100]}]
    return json.dumps({"frame": frame, "ts_ms": ts, "objects": objects})


class TestParseFrame:
    def test_single_person(self):
        f = parse_frame(line())
        assert len(f.objects) == 1
        o = f.objects[0]
        assert o.track_id == 7 and o.label == "person"
        assert (o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h) == (10, 10, 40, 100)

    def test_zero_width_rejected(self):
        bad = line(objects=[{"track": 1, "label": "car", "conf": 0.5,
                             "bbox": [0, 0, 0, 10]}])
        with pytest.raises(SchemaViolation):
            parse_frame(bad)

    def test_equal_timestamps_rejected(self):
        parse_frame(line(frame=0, ts=100))
        with pytest.raises(NonMonotonicTime):
            parse_frame(line(frame=1, ts=100), prev=(0, 100))

    def test_frame_index_must_advance(self):
        with pytest.raises(NonMonotonicTime):
            parse_frame(line(frame=3, ts=200), prev=(3, 100))

    def test_not_json(self):
        with pytest.raises(MalformedRecord):
            parse_frame("not json at all")

    def test_missing_field(self):
        with pytest.raises(SchemaViolation):
            parse_frame('{"frame": 0, "objects": []}')

    def test_confidence_range(self):
        bad = line(objects=[{"track": 1, "label": "car", "conf": 1.5,
                             "bbox": [0, 0, 5, 5]}])
        with pytest.raises(SchemaViolation):
            parse_frame(bad)

    def test_duplicate_track_ids(self):
        objs = [{"track": 1, "label": "car", "conf": 0.5, "bbox": [0, 0, 5, 5]},
                {"track": 1, "label": "car", "conf": 0.5, "bbox": [9, 9, 5, 5]}]
        with pytest.raises(SchemaViolation):
            parse_frame(line(objects=objs))

    def test_unknown_attrs_preserved(self):
        objs = [{"track": 1, "label": "car", "conf": 0.5, "bbox": [0, 0, 5, 5],
                 "attrs": {"color": "red", "custom_key": "kept"}}]
        f = parse_frame(line(objects=objs))
        assert f.objects[0].attributes["custom_key"] == "kept"

    def test_keypoints_parsed(self):
        objs = [{"track": 1, "label": "person", "conf": 0.5,
                 "bbox": [0, 0, 5, 5],
                 "keypoints": {"right_wrist": [52.0, 61.5]}}]
        f = parse_frame(line(objects=objs))
        assert f.objects[0].keypoints["right_wrist"] == (52.0, 61.5)

    def test_roundtrip(self):
        objs = [{"track": 2, "label": "car", "conf": 0.75,
                 "bbox": [1.5, 2.5, 30, 20], "attrs": {"color": "blue"},
                 "keypoints": {"nose": [3.0, 4.0]}, "features": [0.1, 0.2]}]
        f = parse_frame(line(frame=4, ts=133, objects=objs))
        assert parse_frame(serialize_frame(f)) == f


class TestHeader:
    def test_roundtrip(self):
        h = StreamHeader(resolution=(640, 480))
        assert parse_header(serialize_header(h)) == h

    def test_bad_header(self):
        with pytest.raises(MalformedRecord):
            parse_header('{"something": "else"}')

    @pytest.mark.parametrize("version", [0, 2, 99, -1])
    def test_other_version_rejected(self, version):
        with pytest.raises(SchemaViolation, match=f"version {version}"):
            parse_header('{"format":"vekg-detections","version":%d,'
                         '"resolution":[640,480]}' % version)

    @pytest.mark.parametrize("version", ['"1"', "1.0", "true", "null"])
    def test_version_must_be_an_integer(self, version):
        with pytest.raises(SchemaViolation, match="integer"):
            parse_header('{"format":"vekg-detections","version":%s,'
                         '"resolution":[640,480]}' % version)

    def test_missing_version_loads_as_version_1(self):
        h = parse_header('{"format":"vekg-detections","resolution":[640,480]}')
        assert h == StreamHeader(resolution=(640, 480), version=1)


class TestOpenStream:
    def test_three_frames(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(HEADER + "\n" + line(0, 0) + "\n"
                     + line(1, 33) + "\n" + line(2, 66) + "\n")
        frames = list(open_stream(str(p)))
        assert [f.timestamp for f in frames] == [0, 33, 66]

    def test_empty_body(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(HEADER + "\n")
        assert list(open_stream(str(p))) == []

    def test_blank_lines_before_header(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text("\n \n" + HEADER + "\n" + line(0, 0) + "\n")
        reader = open_stream(str(p))
        assert [f.timestamp for f in reader] == [0]
        assert reader.header is not None

    def test_first_non_blank_line_must_be_header(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text("\n" + line(0, 0) + "\n" + line(1, 33) + "\n")
        with pytest.raises(MalformedRecord, match="stream header"):
            open_stream(str(p))

    def test_only_blank_lines(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text("\n\n")
        reader = open_stream(str(p))
        assert list(reader) == []
        assert reader.header is None

    def test_bad_header_raises_on_open(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('{"format":"other"}\n' + line(0, 0) + "\n")
        with pytest.raises(MalformedRecord):
            open_stream(str(p))

    def test_bad_line_reports_position(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(HEADER + "\n" + line(0, 0) + "\n" + "garbage\n")
        reader = open_stream(str(p))
        it = iter(reader)
        assert next(it).frame_index == 0
        with pytest.raises(MalformedRecord, match="line 3"):
            next(it)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SourceUnavailable):
            list(open_stream(str(tmp_path / "nope.jsonl")))

    def test_timestamps_strictly_increase(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text(HEADER + "\n" + line(0, 10) + "\n" + line(1, 5) + "\n")
        with pytest.raises(NonMonotonicTime):
            list(open_stream(str(p)))

    def test_write_stream_roundtrip(self, tmp_path):
        frames = [parse_frame(line(i, i * 33)) for i in range(3)]
        p = tmp_path / "out.jsonl"
        write_stream(str(p), StreamHeader(resolution=(1920, 1080)), frames)
        reader = open_stream(str(p))
        assert list(reader) == frames
        assert reader.header.resolution == (1920, 1080)


# arbitrary JSON values, and records shaped like frames and objects whose
# field values are arbitrary JSON
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=10 ** 300, max_value=10 ** 400) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)
NUMBER = st.integers(-5, 50) | st.floats(-5, 50)
OBJECT = st.fixed_dictionaries(
    {"track": JSON | st.integers(0, 9), "label": JSON, "conf": JSON | NUMBER,
     "bbox": JSON | st.lists(NUMBER, min_size=4, max_size=4)},
    optional={"attrs": JSON, "keypoints": JSON
              | st.dictionaries(st.sampled_from(["nose", "right_wrist"]), JSON),
              "features": JSON | st.lists(JSON, max_size=3)})
FRAME = st.fixed_dictionaries(
    {"frame": JSON | st.integers(-2, 9), "ts_ms": JSON | st.integers(-2, 9),
     "objects": JSON | st.lists(OBJECT | JSON, max_size=3)})


@settings(max_examples=400, deadline=None)
@given(st.one_of(JSON.map(json.dumps), FRAME.map(json.dumps), st.text(max_size=20)))
def test_parse_frame_raises_only_engine_errors(record):
    try:
        parse_frame(record, prev=(0, 0))
    except VekgError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({"format": st.just("vekg-detections"),
                              "resolution": JSON | st.lists(JSON, max_size=3)},
                             optional={"version": JSON}).map(json.dumps))
def test_parse_header_raises_only_engine_errors(record):
    try:
        parse_header(record)
    except VekgError:
        pass


class TestRecords:
    """The slotted records: value semantics and the public constructors'
    checks, which parse_frame makes inline and skips."""

    def test_slots_and_no_dict(self):
        f = parse_frame(line())
        for record in (f, f.objects[0], f.objects[0].bbox):
            assert record.__slots__
            assert not hasattr(record, "__dict__")

    def test_equal_boxes_compare_and_hash_equal(self):
        a, b = BoundingBox(1, 2.5, 3, 4), BoundingBox(1.0, 2.5, 3.0, 4.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != BoundingBox(1, 2.5, 3, 5)
        assert a != (1, 2.5, 3, 4)

    def test_box_keyword_construction_and_derived_values(self):
        b = BoundingBox(x=10, y=20, w=30, h=40)
        assert (b.x2, b.y2, b.centroid, b.area) == (40, 60, (25.0, 40.0), 1200)
        assert repr(b) == "BoundingBox(x=10, y=20, w=30, h=40)"

    @pytest.mark.parametrize("box", [
        (math.nan, 0, 1, 1), (0, math.inf, 1, 1), (0, 0, -math.inf, 1),
        (0, 0, 1, math.nan), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, -1, 1),
        (0, 0, 1, -0.5)])
    def test_public_box_constructor_validates(self, box):
        with pytest.raises(ValueError):
            BoundingBox(*box)

    def test_object_and_frame_are_unhashable(self):
        f = parse_frame(line())
        for record in (f, f.objects[0]):
            with pytest.raises(TypeError):
                hash(record)

    def test_object_equality_and_repr(self):
        a = ObjectNode(track_id=1, label="car", confidence=0.5,
                       bbox=BoundingBox(0, 0, 5, 5))
        b = ObjectNode(1, "car", 0.5, BoundingBox(0, 0, 5, 5), {}, None)
        assert a == b and a.attributes == {}
        assert a != ObjectNode(2, "car", 0.5, BoundingBox(0, 0, 5, 5))
        assert repr(a).startswith("ObjectNode(track_id=1, label='car', confidence=0.5, "
                                  "bbox=BoundingBox(")

    def test_parsed_records_equal_constructed_ones(self):
        f = parse_frame(line(frame=2, ts=40))
        assert f == FrameDetections(frame_index=2, timestamp=40, objects=(
            ObjectNode(track_id=7, label="person", confidence=0.9,
                       bbox=BoundingBox(10.0, 10.0, 40.0, 100.0)),))

    @pytest.mark.parametrize("conf", [1.5, -0.1, math.nan])
    def test_public_object_constructor_checks_confidence(self, conf):
        with pytest.raises(SchemaViolation):
            ObjectNode(track_id=1, label="car", confidence=conf,
                       bbox=BoundingBox(0, 0, 5, 5))

    @pytest.mark.parametrize("point", [(math.inf, 1.0), (1.0, math.nan)])
    def test_public_object_constructor_checks_keypoints(self, point):
        with pytest.raises(SchemaViolation):
            ObjectNode(track_id=1, label="person", confidence=0.5,
                       bbox=BoundingBox(0, 0, 5, 5), keypoints={"nose": point})

    def test_public_frame_constructor_checks_index_and_tracks(self):
        o = ObjectNode(track_id=1, label="car", confidence=0.5, bbox=BoundingBox(0, 0, 5, 5))
        with pytest.raises(SchemaViolation):
            FrameDetections(frame_index=-1, timestamp=0, objects=())
        with pytest.raises(SchemaViolation, match="duplicate track_id 1"):
            FrameDetections(frame_index=0, timestamp=0, objects=(o, o))
