"""Ground-truth files, accuracy scoring and per-window latency decomposition."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import InvalidTruth
from .rules import MatchNotification
from .temporal import Interval


@dataclass(frozen=True)
class GroundTruthEvent:
    kind: str
    interval: Interval
    participants: Tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {"kind": self.kind, "start_ms": self.interval.start,
                "end_ms": self.interval.end,
                "participants": list(self.participants)}


def load_truth(path) -> List[GroundTruthEvent]:
    """Read a ground-truth file: one JSON event per line, with a string
    ``kind``, integer ``start_ms`` < ``end_ms`` and integer participants."""
    events = []
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                raw = json.loads(line)
                kind, start, end = raw["kind"], raw["start_ms"], raw["end_ms"]
                participants = raw.get("participants", [])
                if not (isinstance(kind, str) and type(start) is int
                        and type(end) is int and isinstance(participants, list)
                        and all(type(p) is int for p in participants)):
                    raise ValueError("an event needs a string kind, integer "
                                     "start_ms and end_ms, integer participants")
                events.append(GroundTruthEvent(kind=kind,
                                               interval=Interval(start, end),
                                               participants=tuple(participants)))
    except UnicodeDecodeError as exc:   # its repr holds the whole undecoded chunk
        raise InvalidTruth(f"truth file {path} is not UTF-8 text: {exc}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InvalidTruth(f"bad truth file {path}, line {line_no}: {exc!r}") from exc
    return events


@dataclass(frozen=True)
class AccuracyReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_score: float

    def as_dict(self) -> dict:
        return dict(vars(self))   # the fields, in declaration order


@dataclass(frozen=True)
class LatencyReport:
    vekg_construction_ms: float
    tag_construction_ms: float
    tag_search_ms: float

    @property
    def total_ms(self) -> float:
        return (self.vekg_construction_ms + self.tag_construction_ms
                + self.tag_search_ms)

    def as_dict(self) -> dict:
        # the fields, in declaration order, then their sum
        return {**vars(self), "total_ms": self.total_ms}


def temporal_iou(a: Interval, b: Interval) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start)
    return inter / union


def score(notifications: Sequence[MatchNotification],
          ground_truth: Sequence[GroundTruthEvent],
          iou_time_threshold: float = 0.3) -> AccuracyReport:
    """Greedy one-to-one matching by same kind and temporal IoU."""
    if not 0.0 < iou_time_threshold <= 1.0:
        raise ValueError("iou_time_threshold must be in (0, 1]")
    unmatched = list(range(len(ground_truth)))
    tp = 0
    for note in sorted(notifications, key=lambda n: (n.interval.start, n.rule_id)):
        best = None
        for j in unmatched:
            truth = ground_truth[j]
            if truth.kind != note.kind.value:
                continue
            v = temporal_iou(note.interval, truth.interval)
            if v >= iou_time_threshold and (best is None or v > best[1]):
                best = (j, v)
        if best is not None:
            unmatched.remove(best[0])
            tp += 1
    fp = len(notifications) - tp
    fn = len(unmatched)
    return from_counts(tp, fp, fn)


def from_counts(tp: int, fp: int, fn: int) -> AccuracyReport:
    """Precision/recall/F directly from counts."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = (2 * precision * recall / (precision + recall)
         if precision + recall > 0 else 0.0)
    return AccuracyReport(tp=tp, fp=fp, fn=fn, precision=precision,
                          recall=recall, f_score=f)
