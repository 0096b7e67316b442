"""Reference frame parser: the per-field frozen-dataclass parser that
``vekg.ingest.parse_frame`` replaced, kept verbatim as the oracle of the
differential ingest test.  Its records are its own; only the error types
are shared with vekg.  Not used by the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from vekg.errors import MalformedRecord, NonMonotonicTime, SchemaViolation


@dataclass(frozen=True)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise ValueError("bounding box coordinates must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError("bounding box must have positive width and height")


@dataclass(frozen=True)
class ObjectNode:
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
