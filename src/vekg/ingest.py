"""Parsing and validation of detection-stream records.

The stream is line-delimited JSON: a header object first, then one
frame object per line.  Blank lines are skipped, also before the header.

    {"format": "vekg-detections", "version": 1, "resolution": [1920, 1080]}
    {"frame": 0, "ts_ms": 0, "objects": [{"track": 7, "label": "person",
     "conf": 0.9, "bbox": [10, 10, 40, 100], "attrs": {"color": "red"},
     "keypoints": {"right_wrist": [52.0, 61.5]}}]}

Coordinates are pixels in the declared resolution.  Timestamps are
integer milliseconds since stream start and must strictly increase.

``parse_frame`` is the one parser: a single validating pass over the
decoded line reads each field once, checks its exact JSON type there,
makes the records' own checks in the same loop, and fills the records
(``BoundingBox``, ``ObjectNode``, ``FrameDetections``, slotted
dataclasses) without running their constructors again.  The
constructors' ``__post_init__`` keeps those checks for every other
caller.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .errors import MalformedRecord, NonMonotonicTime, SchemaViolation, SourceUnavailable
from .geometry import BoundingBox

STREAM_FORMAT = "vekg-detections"
STREAM_VERSION = 1


@dataclass(slots=True)
class ObjectNode:
    """One detected object instance in one frame, as a slotted dataclass.

    The constructor raises SchemaViolation unless the confidence lies in
    [0, 1] and every keypoint is finite; ``attributes=None`` stores ``{}``.
    """

    track_id: int
    label: str
    confidence: float
    bbox: BoundingBox
    attributes: Optional[Dict[str, str]] = None
    keypoints: Optional[Dict[str, Tuple[float, float]]] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise SchemaViolation(f"confidence {self.confidence} outside [0, 1] "
                                  f"for track {self.track_id}")
        if self.keypoints is not None:
            for name, (x, y) in self.keypoints.items():
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise SchemaViolation(f"non-finite keypoint {name!r}")
        if self.attributes is None:
            self.attributes = {}


@dataclass(slots=True)
class FrameDetections:
    """All detections of one frame, with its stream timestamp, as a
    slotted dataclass.

    The constructor raises SchemaViolation on a negative frame index or a
    track that appears twice.
    """

    frame_index: int
    timestamp: int
    objects: Tuple[ObjectNode, ...]

    def __post_init__(self):
        if self.frame_index < 0:
            raise SchemaViolation("frame_index must be non-negative")
        _check_tracks(self.frame_index, self.objects,
                      {o.track_id for o in self.objects})


def _check_tracks(frame_index: int, objects, tracks: set) -> None:
    """Raise unless ``tracks``, the set of the objects' track ids, has one
    id per object."""
    if len(tracks) < len(objects):
        seen = set()
        for o in objects:
            if o.track_id in seen:
                raise SchemaViolation(
                    f"duplicate track_id {o.track_id} in frame {frame_index}")
            seen.add(o.track_id)


@dataclass(frozen=True)
class StreamHeader:
    resolution: Tuple[int, int]
    version: int = STREAM_VERSION


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
        raise MalformedRecord(f"{what}: {exc}") from exc


_NUMBER = (int, float)   # exact types: JSON true/false parse to bool, a subclass of int
_INF = math.inf
_new = object.__new__    # a record without its constructor, whose checks parse_frame makes


def parse_frame(record: str,
                prev: Optional[Tuple[int, int]] = None) -> FrameDetections:
    """Parse one stream line into a validated FrameDetections.

    ``prev`` is the (frame_index, timestamp) of the previous frame, used
    to enforce strict monotonicity.

    One pass over the decoded record: each field is read once and its
    exact type checked where it is read, together with the checks the
    records' constructors make (finite values, ``w, h > 0``, confidence
    in [0, 1], one object per track), so the records are built without
    running those constructors again.  A number that is already a float
    and a label that is already a string are stored as they are, and the
    optional keys are looked up only in an object that has a key beyond
    the four required ones.
    """
    raw = _loads(record, "not valid JSON")
    if type(raw) is not dict:
        raise MalformedRecord("frame record must be a JSON object")
    try:
        frame_index = raw["frame"]
        ts = raw["ts_ms"]
        raw_objects = raw["objects"]
    except KeyError as exc:
        raise SchemaViolation(f"missing required field {exc}") from None
    if type(frame_index) is not int or type(ts) is not int:
        raise SchemaViolation(
            f"frame and ts_ms must be integers, got {frame_index!r} and {ts!r}")
    if type(raw_objects) is not list:
        raise SchemaViolation("objects must be a list")
    objects = []
    tracks = set()
    try:
        for o in raw_objects:
            if type(o) is not dict:
                raise SchemaViolation("each object must be a JSON object")
            try:
                track = o["track"]
                label = o["label"]
                conf = o["conf"]
                bbox = o["bbox"]
            except KeyError as exc:
                raise SchemaViolation(f"missing required field {exc}") from None
            if type(track) is not int:
                raise SchemaViolation(f"track must be an integer, got {track!r}")
            # a float value is taken as it is; an int converts, a bool is refused
            if type(conf) is not float:
                if type(conf) is not int:
                    raise SchemaViolation(f"conf must be a number, got {conf!r}")
                conf = float(conf)
            if not 0.0 <= conf <= 1.0:
                raise SchemaViolation(f"confidence {conf} outside [0, 1] for track {track}")
            if type(bbox) is not list or len(bbox) != 4:
                raise SchemaViolation("bbox must be a [x, y, w, h] list")
            x, y, w, h = bbox
            if type(x) is not float:
                if type(x) is not int:
                    raise SchemaViolation(f"bbox must be four numbers, got {bbox!r}")
                x = float(x)
            if type(y) is not float:
                if type(y) is not int:
                    raise SchemaViolation(f"bbox must be four numbers, got {bbox!r}")
                y = float(y)
            if type(w) is not float:
                if type(w) is not int:
                    raise SchemaViolation(f"bbox must be four numbers, got {bbox!r}")
                w = float(w)
            if type(h) is not float:
                if type(h) is not int:
                    raise SchemaViolation(f"bbox must be four numbers, got {bbox!r}")
                h = float(h)
            if not (-_INF < x < _INF and -_INF < y < _INF
                    and 0.0 < w < _INF and 0.0 < h < _INF):
                raise SchemaViolation(
                    f"bbox must be finite with positive width and height, got {bbox!r}")
            keypoints = None
            attrs = {}
            if len(o) > 4:   # some key beyond track, label, conf and bbox
                raw_keypoints = o.get("keypoints")
                if raw_keypoints:
                    keypoints = _parse_keypoints(raw_keypoints)
                # checked, then ignored: no rule reads appearance features
                features = o.get("features")
                if features and not (type(features) is list
                                     and all(type(v) in _NUMBER for v in features)):
                    raise SchemaViolation("features must be a list of numbers")
                if "attrs" in o:
                    attrs = o["attrs"]
                    if type(attrs) is not dict:
                        raise SchemaViolation("attrs must be an object")
                    attrs = {k: str(v) for k, v in attrs.items()}
            tracks.add(track)
            box = _new(BoundingBox)
            box.x = x
            box.y = y
            box.w = w
            box.h = h
            node = _new(ObjectNode)
            node.track_id = track
            node.label = label if type(label) is str else str(label)
            node.confidence = conf
            node.bbox = box
            node.attributes = attrs
            node.keypoints = keypoints
            objects.append(node)
    except OverflowError as exc:   # float() of an integer beyond double range
        raise SchemaViolation(f"number out of range: {exc}") from exc
    if prev is not None:
        prev_index, prev_ts = prev
        if ts <= prev_ts:
            raise NonMonotonicTime(
                f"timestamp {ts} not after previous {prev_ts}")
        if frame_index <= prev_index:
            raise NonMonotonicTime(
                f"frame index {frame_index} not after previous {prev_index}")
    # after the time checks: a record out of order is a NonMonotonicTime even
    # when it also has a negative index or a repeated track
    if frame_index < 0:
        raise SchemaViolation("frame_index must be non-negative")
    _check_tracks(frame_index, objects, tracks)
    frame = _new(FrameDetections)
    frame.frame_index = frame_index
    frame.timestamp = ts
    frame.objects = tuple(objects)
    return frame


def _parse_keypoints(raw) -> Dict[str, Tuple[float, float]]:
    """``{name: (x, y)}`` from a non-empty keypoints object; every
    coordinate a finite number."""
    if type(raw) is not dict:
        raise SchemaViolation("keypoints must be an object of name -> [x, y]")
    keypoints = {}
    for name, v in raw.items():
        if not (type(v) is list and len(v) >= 2
                and type(v[0]) in _NUMBER and type(v[1]) in _NUMBER):
            raise SchemaViolation(
                f"keypoint {name!r} must be an [x, y] list of numbers")
        x = float(v[0])
        y = float(v[1])
        if not (-_INF < x < _INF and -_INF < y < _INF):
            raise SchemaViolation(f"non-finite keypoint {name!r}")
        keypoints[name] = (x, y)
    return keypoints


def serialize_frame(frame: FrameDetections) -> str:
    """Inverse of parse_frame; one line, no trailing newline."""
    objs = []
    for o in frame.objects:
        d = {
            "track": o.track_id,
            "label": o.label,
            "conf": o.confidence,
            "bbox": [o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h],
        }
        if o.attributes:
            d["attrs"] = o.attributes
        if o.keypoints:
            d["keypoints"] = {k: [v[0], v[1]] for k, v in o.keypoints.items()}
        objs.append(d)
    return json.dumps({"frame": frame.frame_index, "ts_ms": frame.timestamp,
                       "objects": objs}, separators=(",", ":"))


def serialize_header(header: StreamHeader) -> str:
    return json.dumps({"format": STREAM_FORMAT, "version": header.version,
                       "resolution": list(header.resolution)},
                      separators=(",", ":"))


def parse_header(line: str) -> StreamHeader:
    raw = _loads(line, "bad header")
    if not isinstance(raw, dict) or raw.get("format") != STREAM_FORMAT:
        raise MalformedRecord("first non-blank line must be a stream header")
    res = raw.get("resolution")
    if not (isinstance(res, list) and len(res) == 2
            and type(res[0]) is int and type(res[1]) is int):
        raise SchemaViolation("resolution must be two integers [width, height]")
    version = raw.get("version", STREAM_VERSION)
    if type(version) is not int:
        raise SchemaViolation("version must be an integer")
    if version != STREAM_VERSION:
        raise SchemaViolation(f"stream version {version} is not {STREAM_VERSION}")
    return StreamHeader(resolution=(res[0], res[1]), version=version)


class StreamReader:
    """Single-pass iterator over a detection-stream source.

    The constructor opens the source and reads its header, the first
    non-blank line, so a missing file or a bad header raises before any
    frame is asked for; a source with no non-blank line has no header and
    no frames.  Per-line errors are re-raised with the 1-based line number
    attached; frames parsed before the bad line have already been yielded.
    The source is closed at the end of the stream, on an error, or by
    ``close``; stdin is never closed.
    """

    def __init__(self, source):
        self.source = source
        self._frames = self._read()
        self.header: Optional[StreamHeader] = next(self._frames)

    def __iter__(self) -> Iterator[FrameDetections]:
        return self._frames

    def close(self) -> None:
        self._frames.close()

    def _read(self):
        """Yield the header (None if there is none), then each frame."""
        if self.source == "-":
            source = contextlib.nullcontext(sys.stdin)   # never close stdin
        else:
            try:
                source = open(self.source, "r", encoding="utf-8")
            except OSError as exc:
                raise SourceUnavailable(f"cannot open {self.source}: {exc}") from exc
        with source as fh:
            try:
                lines = enumerate(fh, start=1)
                header = None
                for _, line in lines:
                    line = line.strip()
                    if line:
                        header = parse_header(line)
                        break
                yield header
                prev = None
                for line_no, line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        frame = parse_frame(line, prev=prev)
                    except (MalformedRecord, SchemaViolation, NonMonotonicTime) as exc:
                        raise type(exc)(f"line {line_no}: {exc}") from exc
                    prev = (frame.frame_index, frame.timestamp)
                    yield frame
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"stream is not UTF-8 text: {exc}") from exc


def open_stream(source) -> StreamReader:
    """Open a detection stream from a file path or "-" for stdin, and read
    its header."""
    return StreamReader(source)


def write_stream(path, header: StreamHeader, frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_header(header) + "\n")
        for frame in frames:
            fh.write(serialize_frame(frame) + "\n")
