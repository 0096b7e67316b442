"""Parsing and validation of detection-stream records.

The stream is line-delimited JSON: a header object first, then one
frame object per line.

    {"format": "vekg-detections", "version": 1, "resolution": [1920, 1080]}
    {"frame": 0, "ts_ms": 0, "objects": [{"track": 7, "label": "person",
     "conf": 0.9, "bbox": [10, 10, 40, 100], "attrs": {"color": "red"},
     "keypoints": {"right_wrist": [52.0, 61.5]}}]}

Coordinates are pixels in the declared resolution.  Timestamps are
integer milliseconds since stream start and must strictly increase.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from .errors import MalformedRecord, NonMonotonicTime, SchemaViolation, SourceUnavailable
from .geometry import BoundingBox

STREAM_FORMAT = "vekg-detections"
STREAM_VERSION = 1

@dataclass(frozen=True)
class ObjectNode:
    """One detected object instance in one frame."""

    track_id: int
    label: str
    confidence: float
    bbox: BoundingBox
    attributes: Dict[str, str] = field(default_factory=dict)
    keypoints: Optional[Dict[str, Tuple[float, float]]] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise SchemaViolation(
                f"confidence {self.confidence} outside [0, 1] for track {self.track_id}")
        if self.keypoints is not None:
            for name, (x, y) in self.keypoints.items():
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise SchemaViolation(f"non-finite keypoint {name!r}")


@dataclass(frozen=True)
class FrameDetections:
    """All detections of one frame, with its stream timestamp."""

    frame_index: int
    timestamp: int
    objects: Tuple[ObjectNode, ...]

    def __post_init__(self):
        if self.frame_index < 0:
            raise SchemaViolation("frame_index must be non-negative")
        seen = set()
        for o in self.objects:
            if o.track_id in seen:
                raise SchemaViolation(f"duplicate track_id {o.track_id} in frame {self.frame_index}")
            seen.add(o.track_id)


@dataclass(frozen=True)
class StreamHeader:
    resolution: Tuple[int, int]
    version: int = STREAM_VERSION


def _require(obj: dict, key: str, line_no: Optional[int] = None):
    if key not in obj:
        where = f" (line {line_no})" if line_no is not None else ""
        raise SchemaViolation(f"missing required field {key!r}{where}")
    return obj[key]


def _parse_object(raw: dict) -> ObjectNode:
    if not isinstance(raw, dict):
        raise SchemaViolation("each object must be a JSON object")
    bbox = _require(raw, "bbox")
    if not (isinstance(bbox, list) and len(bbox) == 4):
        raise SchemaViolation("bbox must be a [x, y, w, h] list")
    x, y, w, h = bbox
    # exact type tests: JSON true/false parse to bool, a subclass of int
    if (type(x) not in (int, float) or type(y) not in (int, float)
            or type(w) not in (int, float) or type(h) not in (int, float)):
        raise SchemaViolation(f"bbox must be four numbers, got {bbox!r}")
    try:
        box = BoundingBox(float(x), float(y), float(w), float(h))
    except (ValueError, OverflowError) as exc:
        raise SchemaViolation(str(exc)) from exc
    keypoints = None
    raw_kp = raw.get("keypoints")
    if raw_kp:
        if not isinstance(raw_kp, dict):
            raise SchemaViolation("keypoints must be an object of name -> [x, y]")
        keypoints = {}
        for k, v in raw_kp.items():
            # exact type tests, as for features: no bools, no strings
            if not (type(v) is list and len(v) >= 2
                    and type(v[0]) in (int, float)
                    and type(v[1]) in (int, float)):
                raise SchemaViolation(
                    f"keypoint {k!r} must be an [x, y] list of numbers")
            try:
                keypoints[str(k)] = (float(v[0]), float(v[1]))
            except OverflowError as exc:
                raise SchemaViolation(f"bad keypoint {k!r}: {exc}") from exc
    # checked, then ignored: no rule reads appearance features
    raw_features = raw.get("features")
    if raw_features and not (isinstance(raw_features, list)
                             and all(type(v) in (int, float) for v in raw_features)):
        raise SchemaViolation("features must be a list of numbers")
    track = _require(raw, "track")
    conf = _require(raw, "conf")
    # exact type tests: JSON true/false parse to bool, a subclass of int
    if type(track) is not int:
        raise SchemaViolation(f"track must be an integer, got {track!r}")
    if type(conf) not in (int, float):
        raise SchemaViolation(f"conf must be a number, got {conf!r}")
    try:
        conf = float(conf)
    except OverflowError as exc:
        raise SchemaViolation(f"bad conf: {exc}") from exc
    attrs = raw.get("attrs", {})
    if not isinstance(attrs, dict):
        raise SchemaViolation("attrs must be an object")
    return ObjectNode(
        track_id=track,
        label=str(_require(raw, "label")),
        confidence=conf,
        bbox=box,
        attributes={str(k): str(v) for k, v in attrs.items()},
        keypoints=keypoints,
    )


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
        raise MalformedRecord(f"{what}: {exc}") from exc


def parse_frame(record: str,
                prev: Optional[Tuple[int, int]] = None) -> FrameDetections:
    """Parse one stream line into a validated FrameDetections.

    ``prev`` is the (frame_index, timestamp) of the previous frame, used
    to enforce strict monotonicity.
    """
    raw = _loads(record, "not valid JSON")
    if not isinstance(raw, dict):
        raise MalformedRecord("frame record must be a JSON object")
    frame_index = _require(raw, "frame")
    ts = _require(raw, "ts_ms")
    # exact type tests: JSON true/false parse to bool, a subclass of int
    if type(frame_index) is not int or type(ts) is not int:
        raise SchemaViolation(
            f"frame and ts_ms must be integers, got {frame_index!r} and {ts!r}")
    raw_objects = _require(raw, "objects")
    if not isinstance(raw_objects, list):
        raise SchemaViolation("objects must be a list")
    objects = tuple(_parse_object(o) for o in raw_objects)
    if prev is not None:
        prev_index, prev_ts = prev
        if ts <= prev_ts:
            raise NonMonotonicTime(
                f"timestamp {ts} not after previous {prev_ts}")
        if frame_index <= prev_index:
            raise NonMonotonicTime(
                f"frame index {frame_index} not after previous {prev_index}")
    return FrameDetections(frame_index=frame_index, timestamp=ts, objects=objects)


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
        raise MalformedRecord("first line must be a stream header")
    res = _require(raw, "resolution")
    if not (isinstance(res, list) and len(res) == 2
            and type(res[0]) is int and type(res[1]) is int):
        raise SchemaViolation("resolution must be two integers [width, height]")
    version = raw.get("version", STREAM_VERSION)
    if type(version) is not int:
        raise SchemaViolation("version must be an integer")
    return StreamHeader(resolution=(res[0], res[1]), version=version)


class StreamReader:
    """Single-producer iterator over a detection-stream source.

    Per-line errors are re-raised with the 1-based line number attached;
    frames parsed before the bad line have already been yielded.
    """

    def __init__(self, source):
        self.source = source
        self.header: Optional[StreamHeader] = None

    def __iter__(self) -> Iterator[FrameDetections]:
        if self.source == "-":
            source = contextlib.nullcontext(sys.stdin)   # never close stdin
        else:
            try:
                source = open(self.source, "r", encoding="utf-8")
            except OSError as exc:
                raise SourceUnavailable(f"cannot open {self.source}: {exc}") from exc
        with source as fh:
            try:
                yield from self._read(fh)
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"stream is not UTF-8 text: {exc}") from exc

    def _read(self, fh) -> Iterator[FrameDetections]:
        prev = None
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line_no == 1:
                self.header = parse_header(line)
                continue
            try:
                frame = parse_frame(line, prev=prev)
            except (MalformedRecord, SchemaViolation, NonMonotonicTime) as exc:
                raise type(exc)(f"line {line_no}: {exc}") from exc
            prev = (frame.frame_index, frame.timestamp)
            yield frame


def open_stream(source) -> StreamReader:
    """Open a detection stream from a file path or "-" for stdin."""
    return StreamReader(source)


def write_stream(path, header: StreamHeader, frames) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_header(header) + "\n")
        for frame in frames:
            fh.write(serialize_frame(frame) + "\n")
