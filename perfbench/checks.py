"""Output checkers that owe nothing to the program's own code.

They read the generated stream and the run's output files with plain
``json`` and work out what the output must be with the benchmark's own
arithmetic.  Nothing here imports ``vekg``.

Each checker returns one error list per *operation*: per window for
street and crowd, one for the whole clip for clips.  An empty list means
the operation's output is correct.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

MIN_F_NOISY = 0.8
IOU_THRESHOLD = 0.3

# (ts_ms, [(track, label, x, y, w, h), ...]) per frame
Frame = Tuple[int, List[tuple]]


def read_stream(path: str) -> List[Frame]:
    frames = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()   # header
        for line in fh:
            rec = json.loads(line)
            frames.append((rec["ts_ms"], [(o["track"], o["label"], *o["bbox"])
                                          for o in rec["objects"]]))
    return frames


def read_jsonl(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Windows:
    """Tumbling windows aligned to the first timestamp, as the README states."""

    def __init__(self, frames: Sequence[Frame], window_ms: int):
        self.window_ms = window_ms
        self.t0 = frames[0][0]
        self.bounds: List[Tuple[int, int]] = []
        self.frames: List[List[Frame]] = []
        # frame ordinal that closes each window: the first frame at or past
        # its end, or len(frames) for the end of the stream
        self.closing: List[int] = []
        for i, (ts, objs) in enumerate(frames):
            k = self.index(ts)
            while len(self.frames) <= k:
                start = self.t0 + len(self.frames) * window_ms
                if self.frames:
                    self.closing.append(i)
                self.bounds.append((start, start + window_ms))
                self.frames.append([])
            self.frames[k].append((ts, objs))
        self.closing.append(len(frames))

    def __len__(self) -> int:
        return len(self.frames)

    def index(self, ts: int) -> int:
        return (ts - self.t0) // self.window_ms

    def structure(self, k: int) -> Dict[str, int]:
        counts = [len(objs) for _, objs in self.frames[k]]
        tracks = {o[0] for _, objs in self.frames[k] for o in objs}
        return {"vekg_nodes": sum(counts), "tag_nodes": len(tracks),
                "vekg_edges": sum(n * (n - 1) for n in counts),
                "tag_edges": len(tracks) ** 2}


def check_metric_lines(windows: Windows, records: List[dict]) -> List[List[str]]:
    """Window bounds and node/edge counts of every per-window metrics line."""
    lines = [r for r in records if "window" in r]
    errors: List[List[str]] = [[] for _ in range(len(windows))]
    if len(lines) != len(windows):
        for err in errors:
            err.append(f"{len(lines)} metrics lines for {len(windows)} windows")
    for k, rec in enumerate(lines[:len(windows)]):
        start, end = windows.bounds[k]
        if (rec.get("window"), rec.get("start_ms"), rec.get("end_ms")) != (k, start, end):
            errors[k].append(f"window {k}: bounds {rec.get('start_ms')}..{rec.get('end_ms')}"
                             f" for {start}..{end}")
        got = rec.get("reduction", {})
        for key, want in windows.structure(k).items():
            if got.get(key) != want:
                errors[k].append(f"window {k}: {key}={got.get(key)}, expected {want}")
    return errors


def notes_by_window(windows: Windows, notes: List[dict]) -> List[List[dict]]:
    """Notifications grouped by the window holding their start; a note
    starting outside every window is filed under the last one."""
    out: List[List[dict]] = [[] for _ in range(len(windows))]
    for note in notes:
        k = windows.index(note.get("start_ms", windows.t0))
        out[min(max(k, 0), len(windows) - 1)].append(note)
    return out


# --- street: high_volume_traffic ---------------------------------------

def _rectangle(polygon) -> Tuple[float, float, float, float]:
    xs = [float(p[0]) for p in polygon]
    ys = [float(p[1]) for p in polygon]
    if len(polygon) != 4 or len(set(xs)) != 2 or len(set(ys)) != 2:
        raise ValueError("traffic check needs an axis-aligned rectangle region")
    return min(xs), min(ys), max(xs), max(ys)


def expected_traffic(windows: Windows, rule: dict, k: int) -> List[dict]:
    """The window's notification: the per-frame mean count of the rule's
    labels whose box centre lies strictly inside the region, when above
    the threshold.  The kind counts cars unless the rule names labels."""
    x0, y0, x1, y1 = _rectangle(rule["params"]["region"])
    threshold = float(rule["params"]["count_threshold"])
    labels = set(rule.get("labels") or ("car",))
    frames = windows.frames[k]
    if not frames:
        return []
    total = 0
    seen = set()
    for _, objs in frames:
        for track, label, x, y, w, h in objs:
            cx, cy = x + w / 2.0, y + h / 2.0
            if label in labels and x0 < cx < x1 and y0 < cy < y1:
                total += 1
                seen.add(track)
    mean = total / len(frames)
    if mean <= threshold:
        return []
    start, end = windows.bounds[k]
    return [{"rule_id": rule["id"], "kind": "high_volume_traffic",
             "start_ms": start, "end_ms": end, "participants": sorted(seen),
             "evidence": {"mean_count": round(mean, 3), "threshold": threshold}}]


def check_street(windows: Windows, rule: dict, notes: List[dict],
                 records: List[dict]) -> List[List[str]]:
    errors = check_metric_lines(windows, records)
    for k, got in enumerate(notes_by_window(windows, notes)):
        want = expected_traffic(windows, rule, k)
        if got != want:
            errors[k].append(f"window {k}: notifications {got}, expected {want}")
    return errors


# --- crowd: planted rides -----------------------------------------------

def check_crowd(windows: Windows, planted: Dict[Tuple[int, int], str],
                riding, notes: List[dict], records: List[dict]) -> List[List[str]]:
    """Every planted pair is reported in each window in which it rides the
    whole window; no other pair, and no other kind, is ever reported."""
    errors = check_metric_lines(windows, records)
    for k, got in enumerate(notes_by_window(windows, notes)):
        start, end = windows.bounds[k]
        reported = set()
        for note in got:
            pair = tuple(note.get("participants", ()))
            if planted.get(pair) != note.get("kind"):
                errors[k].append(f"window {k}: unplanted {note.get('kind')} {list(pair)}")
            elif not start <= note["start_ms"] < note["end_ms"] <= end:
                errors[k].append(f"window {k}: {pair} interval outside the window")
            else:
                reported.add(pair)
        for pair in planted:
            if (pair, k) in riding and pair not in reported:
                errors[k].append(f"window {k}: planted ride {list(pair)} not reported")
    return errors


# --- clips: greedy one-to-one scoring -----------------------------------

def greedy_match(notes: List[dict], truth: List[dict],
                 threshold: float = IOU_THRESHOLD) -> List[Tuple[dict, dict]]:
    """Matched (notification, truth event) pairs: notifications in start
    order each take the unmatched truth event of the same kind with the
    highest temporal IoU >= threshold."""
    unmatched = list(range(len(truth)))
    matches = []
    for note in sorted(notes, key=lambda n: (n["start_ms"], n["rule_id"])):
        best = None
        for j in unmatched:
            ev = truth[j]
            if ev["kind"] != note["kind"]:
                continue
            inter = min(note["end_ms"], ev["end_ms"]) - max(note["start_ms"], ev["start_ms"])
            if inter <= 0:
                continue
            union = max(note["end_ms"], ev["end_ms"]) - min(note["start_ms"], ev["start_ms"])
            iou = inter / union
            if iou >= threshold and (best is None or iou > best[1]):
                best = (j, iou)
        if best is not None:
            unmatched.remove(best[0])
            matches.append((note, truth[best[0]]))
    return matches


def greedy_counts(notes: List[dict], truth: List[dict]) -> Tuple[int, int, int]:
    """(tp, fp, fn) of the greedy one-to-one match."""
    tp = len(greedy_match(notes, truth))
    return tp, len(notes) - tp, len(truth) - tp


def f_score(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def check_clip(windows: Windows, role: str, truth: List[dict], notes: List[dict],
               records: List[dict]) -> List[List[str]]:
    """One operation: clean positives score F = 1, negatives notify nothing,
    noisy positives score F >= 0.8, and the counts equal the program's
    accuracy line.  A matched notification names the truth event's actors."""
    errors = [e for errs in check_metric_lines(windows, records) for e in errs]
    matches = greedy_match(notes, truth)
    for note, ev in matches:
        if sorted(note["participants"]) != sorted(ev["participants"]):
            errors.append(f"{note['kind']} at {note['start_ms']}: participants "
                          f"{note['participants']}, expected {ev['participants']}")
    tp = len(matches)
    fp, fn = len(notes) - tp, len(truth) - tp
    f = f_score(tp, fp, fn)
    if role == "clean" and f != 1.0:
        errors.append(f"clean positive F={f:.3f}")
    if role == "negative" and notes:
        errors.append(f"negative clip notified {len(notes)} time(s)")
    if role == "noisy" and f < MIN_F_NOISY:
        errors.append(f"noisy positive F={f:.3f} < {MIN_F_NOISY}")
    acc = [r["accuracy"] for r in records if "accuracy" in r]
    if len(acc) != 1:
        errors.append(f"{len(acc)} accuracy lines")
    elif (acc[0].get("tp"), acc[0].get("fp"), acc[0].get("fn")) != (tp, fp, fn):
        errors.append(f"accuracy line {acc[0]} disagrees with tp={tp} fp={fp} fn={fn}")
    return [errors]
