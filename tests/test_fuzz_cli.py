"""Fuzzing the whole CLI: ``vekg run`` on random streams and rules.

Five slices.  Random streams meet random ``high_volume_traffic`` and
``jaywalking`` rules: regions are simple shapes placed at scales and
offsets up to +-1e300, or random vertex lists (mostly rejected), and
boxes sit on the region's grid or anywhere up to 1e308, with integers
above 2**53 and sizes whose centroid overflows to inf; now and then one
box gets a nan, an inf or a non-positive width.  And random streams meet
every other rule kind: tracks walk, stop and turn horizontal, or jump
anywhere up to +-1.7e308, switch labels mid-track, carry random
attributes and a random subset of the six arm keypoints, near the box or
up to +-1.7e308, under valid random params (a zero or null ``penalty``,
zero frame counts, slots up to 1e300).  And random rule files meet a
fixed stream: wrong types, nested values, unknown keys, shared (aliased)
rules, and negative, huge and non-finite numbers, in every place a rule
file holds a value; there the run exits 0, 1 or 2 with a short stderr.
And a valid stream is mutated as a broken file or pipe would: bad JSON,
invalid UTF-8 bytes, frames reordered or repeated, timestamp gaps up to
2**64, integers past the 4,300-digit conversion limit, and blank lines
before the header; ``vekg run`` and ``vekg validate`` read it alike.  And
random ``--truth`` files meet a fixed stream whose rules fire: events
with odd kinds, huge or equal endpoints and wrong types, missing or
extra keys, any JSON at all, and lines of bad JSON, bad UTF-8, a
byte-order mark or deep nesting; a file that loads is scored in full,
and one that does not exits 2 before any output exists.

Whatever the input, the run exits 0 or 2, never 3 ("internal error"):
no numpy warning may escape a kernel, since pytest turns warnings into
errors and ``main`` reports any stray exception as exit 3.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vekg.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from vekg.rules import KINDS, REQUIRED

HEADER = {"format": "vekg-detections", "version": 1, "resolution": [1920, 1080]}
LABELS = ["car", "person", "bike"]
SHAPES = [((0, 0), (24, 0), (24, 16), (0, 16)),                # rectangle
          ((0, 0), (24, 0), (24, 24), (12, 8), (0, 24)),       # concave arrow
          ((0, 0), (24, 12), (4, 20))]                         # slanted triangle

SCALE = st.sampled_from([1, 0.5, -50, 2 ** 53 + 1, 1e300, -1e300]) | st.floats(1e-3, 1e300)
OFFSET = st.sampled_from([0, 0.5, 2 ** 60, 1e300, -1e300])
UNIT = st.integers(-2, 26)
WILD_XY = (st.floats(-1e308, 1e308) | st.integers(2 ** 53, 2 ** 64)
           | st.sampled_from([1e308, 1.7e308, -1.7e308, 5e-324]))
WILD_WH = st.floats(0, 1.7e308, exclude_min=True) | st.integers(2 ** 53, 2 ** 64)
BAD_WIDTH = st.sampled_from([float("nan"), float("inf"), 0, -5])
VERTEX = st.tuples(UNIT | st.floats(-1e300, 1e300), UNIT | st.floats(-1e300, 1e300))


def run_exits_0_or_2(lines, rules, nframes):
    """Run ``vekg run`` on the stream ``lines`` under ``rules``: it exits 0
    or 2, and a clean run writes at most two metrics lines per frame (a
    frame's window and the run of empty windows before it)."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "s.jsonl")
        rules_path = os.path.join(tmp, "r.yaml")
        out = os.path.join(tmp, "o.jsonl")
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(rules_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"rules": rules}, fh)
        rc = main(["--quiet", "run", "--input", stream, "--rules", rules_path,
                   "--out", out])
        assert rc in (EXIT_OK, EXIT_INPUT)
        if rc == EXIT_OK:
            with open(out + ".metrics.jsonl", encoding="utf-8") as fh:
                assert len(fh.readlines()) <= 2 * nframes


@st.composite
def region_runs(draw):
    """(stream lines, rule configs, frame count) of one fuzzed run."""
    scale, offset = draw(SCALE), draw(OFFSET)

    def place(u):
        return u * scale + offset

    def box():
        if draw(st.integers(0, 3)):   # on the region's grid
            x, y, w, h = draw(st.tuples(UNIT, UNIT, st.integers(1, 6), st.integers(1, 6)))
            return [place(x), place(y), w * abs(scale), h * abs(scale)]
        return list(draw(st.tuples(WILD_XY, WILD_XY, WILD_WH, WILD_WH)))

    lines, ts = [json.dumps(HEADER)], 0
    nframes = draw(st.integers(0, 40))
    tracks = draw(st.lists(st.tuples(st.integers(1, 9), st.sampled_from(LABELS)),
                           max_size=5, unique_by=lambda t: t[0]))
    for i in range(nframes):
        ts += draw(st.integers(1, 900))
        objects = [{"track": track, "label": label, "conf": 0.9, "bbox": box()}
                   for track, label in tracks if draw(st.integers(0, 4))]
        lines.append({"frame": i, "ts_ms": ts, "objects": objects})
    bad = draw(st.none() | BAD_WIDTH)
    if bad is not None and nframes and lines[-1]["objects"]:
        lines[-1]["objects"][0]["bbox"][2] = bad
    lines[1:] = [json.dumps(frame) for frame in lines[1:]]

    window_ms = draw(st.integers(1, 3000))
    rules = []
    for k in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)):
            region = [[place(x), place(y)] for x, y in draw(st.sampled_from(SHAPES))]
        else:
            region = [list(v) for v in draw(st.lists(VERTEX, min_size=3, max_size=6))]
        kind = draw(st.sampled_from(["high_volume_traffic", "jaywalking"]))
        params = {"region": region}
        if kind == "high_volume_traffic":
            params["count_threshold"] = draw(st.floats(0, 6))
        else:
            params["min_frames"] = draw(st.integers(1, 4))
            params["max_gap_frames"] = draw(st.integers(0, 4))
        rules.append({"id": f"r{k}", "kind": kind, "window_ms": window_ms,
                      "labels": draw(st.lists(st.sampled_from(LABELS), min_size=1,
                                              max_size=2, unique=True)),
                      "params": params})
    return lines, rules, nframes


@settings(max_examples=100, deadline=None)
@given(region_runs())
def test_run_exits_0_or_2_on_random_region_input(run):
    run_exits_0_or_2(*run)


# --- every other rule kind ---

ACTORS = ["person", "person", "person", "horse", "bike", "car"]
SPEED = st.floats(0, 20) | st.sampled_from([0, 1e300])
FRAMES = st.integers(0, 12)


def kind_params(draw, kind):
    """Valid random params of ``kind``."""
    if kind == "fall_detection":
        return {"no_motion_speed_px": draw(SPEED), "still_frames": draw(FRAMES),
                "gap_frames": draw(st.integers(0, 50)),
                "min_aspect_jump": draw(st.floats(0, 3) | st.just(1e300)),
                "penalty": draw(st.sampled_from([0, None]) | st.floats(0, 1e300))}
    if kind in ("horse_ride", "bike_ride"):
        return {"min_speed_px": draw(SPEED), "min_frames": draw(FRAMES),
                "max_gap_frames": draw(st.integers(0, 8))}
    if kind in ("handshake", "punch"):
        params = {"trend_epsilon": draw(st.floats(-1, 1) | st.just(1e300)),
                  "min_phase_frames": draw(st.integers(0, 8))}
        if kind == "punch":
            params["contact_px"] = draw(st.floats(0, 1e300))
        return params
    if kind == "parking_slot_status":
        scale = draw(st.sampled_from([1, 1e300]) | st.floats(1e-3, 1e300))
        slot = st.tuples(st.integers(0, 200), st.integers(0, 200),
                         st.integers(1, 80), st.integers(1, 80))
        return {"slots": [[v * scale for v in s]
                          for s in draw(st.lists(slot, min_size=1, max_size=3))],
                "overlap_threshold": draw(st.floats(0, 1)),
                "max_gap_frames": draw(st.integers(0, 8)),
                "min_frames": draw(FRAMES)}
    return {"attribute": draw(st.sampled_from(["color", "make", 5])),
            "value": draw(st.sampled_from(["red", "RED", "blue", 7]))}


def huge(rnd):
    return rnd.choice([rnd.uniform(-1, 1) * 1.7e308, 1.7e308, -1.7e308,
                       5e-324, rnd.randint(2 ** 53, 2 ** 64)])


def arms(box, reach, side):
    """The six arm keypoints of a person in ``box`` whose wrists stretch
    ``reach`` px out to one side, at about shoulder height."""
    x, y, w, _ = box
    points = {}
    for end, sign in (("right", 1), ("left", -1)):
        sx = x + w / 2 - sign * w / 4
        points.update({f"{end}_shoulder": [sx, y + 10], f"{end}_hip": [sx, y + 60],
                       f"{end}_wrist": [sx + side * (5 + reach), y + 40 - reach / 2]})
    return points


def random_stream(rnd, nframes):
    """A stream's lines.  Each track walks and may stop and turn
    horizontal (a fall), or rides the track before it; its wrists reach
    out and back, peaking at a frame shared by all tracks.  A track may
    switch label once; a frame drops it, or puts it anywhere."""
    peak = rnd.randint(0, nframes)
    # (label, label after the switch, switch frame, path, share of frames
    # whose box and keypoints go anywhere)
    tracks = []
    for _ in range(rnd.randint(0, 4)):
        x, y = rnd.randint(0, 300), rnd.randint(0, 300)
        vx, vy = rnd.randint(-15, 15), rnd.randint(-15, 15)
        w, h = rnd.randint(5, 60), rnd.randint(5, 120)
        fall = rnd.randint(0, nframes + 1)   # then still and horizontal
        path = [[x + vx * min(i, fall), y + vy * min(i, fall)]
                + ([h, w] if i >= fall else [w, h]) for i in range(nframes)]
        if tracks and rnd.random() < 0.5:   # ride the track before: above it
            path = [[bx, by - bh / 2, bw, bh] for bx, by, bw, bh in tracks[-1][3]]
        tracks.append((rnd.choice(ACTORS), rnd.choice(ACTORS),
                       rnd.randint(0, nframes + 1), path,
                       rnd.choice([0, 0, 0.05, 0.3])))
    side, step = [rnd.choice([-1, 1]) for _ in tracks], rnd.randint(1, 4)
    lines, ts = [json.dumps(HEADER)], 0
    for i in range(nframes):
        ts += rnd.randint(1, 120)
        objects = []
        for track, (label, later, switch, path, wild) in enumerate(tracks):
            if rnd.random() < 0.15:
                continue
            box = path[i] if rnd.random() >= wild else \
                [huge(rnd), huge(rnd), rnd.uniform(1e-300, 1.7e308),
                 rnd.uniform(1e-300, 1.7e308)]
            o = {"track": track + 1, "label": later if i >= switch else label,
                 "conf": 0.9, "bbox": box}
            if rnd.random() < 0.5:
                o["attrs"] = {key: rnd.choice(["red", "Red", "blue", "", 5, None])
                              for key in rnd.sample(["color", "make"], rnd.randint(0, 2))}
            if rnd.random() < 0.8:
                reach = step * max(0, min(i, 2 * peak - i))
                o["keypoints"] = {
                    name: xy if rnd.random() >= wild else [huge(rnd), huge(rnd)]
                    for name, xy in arms(path[i], reach, side[track]).items()
                    if rnd.random() >= wild}
            objects.append(o)
        lines.append(json.dumps({"frame": i, "ts_ms": ts, "objects": objects}))
    return lines


@st.composite
def rule_runs(draw):
    """(stream lines, rule configs, frame count) of one fuzzed run."""
    nframes = draw(st.integers(0, 40))
    lines = random_stream(draw(st.randoms(use_true_random=True)), nframes)
    window_ms = draw(st.integers(1, 5000))
    rules = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["fall_detection", "horse_ride", "bike_ride",
                                     "handshake", "punch", "parking_slot_status",
                                     "attribute_query"]))
        rule = {"id": f"r{k}", "kind": kind, "window_ms": window_ms,
                "params": kind_params(draw, kind)}
        if draw(st.booleans()):   # else the kind's default labels
            pair = kind in ("horse_ride", "bike_ride")
            rule["labels"] = draw(st.lists(st.sampled_from(ACTORS), unique=True,
                                           min_size=2 if pair else 1,
                                           max_size=2 if pair else 3))
        rules.append(rule)
    return lines, rules, nframes


@settings(max_examples=400, deadline=None)
@given(rule_runs())
def test_run_exits_0_or_2_on_random_input_for_every_other_kind(run):
    run_exits_0_or_2(*run)


# --- random rule files ---

# what a rule file may hold where a number is read: negative, huge,
# non-finite or fractional numbers, and numeric strings
ODD_NUMBER = st.sampled_from([-1, -5, 0.5, -0.0, 2 ** 63, -2 ** 63, 10 ** 30,
                              1e300, -1e300, 1.7e308, float("inf"), float("-inf"),
                              float("nan"), "12", "-3", "1e400", "nan"]) | st.floats()
SCALAR = (st.none() | st.booleans() | ODD_NUMBER | st.integers() | st.text(max_size=8)
          | st.sampled_from(["person", "", "x" * 3000]))
JUNK = st.recursive(SCALAR, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3)),
    max_leaves=6)
BIG = st.sampled_from([0, 1e-300, 1e300, 1.7e308]) | st.floats(0, 1e300)
SCALE = st.sampled_from([1, 2 ** 60, 1e300])
PARAM_NAMES = sorted({name for spec in KINDS.values() for name in spec.params})


def one_in(draw, n):
    """True about once in ``n`` draws (hypothesis favours the ends of a
    range, so test a value from its middle)."""
    return draw(st.integers(0, n - 1)) == n // 2


def shaped(draw, name):
    """A well-formed value of the param ``name``, up to huge sizes."""
    if name == "region":
        scale = draw(SCALE)
        return [[x * scale, y * scale] for x, y in draw(st.sampled_from(SHAPES))]
    if name == "slots":
        scale = draw(SCALE)
        return [[v * scale for v in slot] for slot in
                draw(st.lists(st.sampled_from([[100, 100, 40, 20], [0, 40, 90, 90]]),
                              min_size=1, max_size=2))]
    if name in ("attribute", "value"):
        return draw(st.sampled_from(["color", "red", 5]))
    if name == "penalty":
        return draw(st.none() | BIG)
    if name.endswith("frames"):
        return draw(st.integers(0, 60) | st.sampled_from([2 ** 63, 10 ** 30]))
    if name == "overlap_threshold":
        return draw(st.floats(0, 1))
    if name == "trend_epsilon":
        return draw(st.floats(-1, 1) | BIG)
    return draw(BIG)


@st.composite
def rule_configs(draw, key, window_ms):
    """One well-formed rule of a random kind, then up to two faults: a
    value of another type or an odd number, a missing or unknown key, or a
    param of another kind."""
    kind = draw(st.sampled_from(list(KINDS)))
    params = KINDS[kind].params
    rule = {"id": key, "kind": kind.value, "window_ms": window_ms,
            "params": {name: shaped(draw, name) for name in params
                       if draw(st.booleans()) or params[name][1] is REQUIRED}}
    if draw(st.booleans()):
        rule["labels"] = list(draw(st.sampled_from(
            [KINDS[kind].labels, ["person", "horse"], ["car"]])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = draw(st.integers(0, 4))
        if fault == 0:
            rule[draw(st.sampled_from(sorted(rule)))] = draw(SCALAR | JUNK)
        elif fault == 1 and isinstance(rule.get("params"), dict):
            name = draw(st.sampled_from(PARAM_NAMES))
            rule["params"][name] = draw(ODD_NUMBER | JUNK)
        elif fault == 2:
            del rule[draw(st.sampled_from(sorted(rule)))]
        elif fault == 3 and isinstance(rule.get("params"), dict) and rule["params"]:
            del rule["params"][draw(st.sampled_from(sorted(rule["params"])))]
        else:
            rule[draw(st.text(max_size=6))] = draw(JUNK)
    return rule


@st.composite
def rule_files(draw):
    """A rules document: a list of rules, bare or under ``rules``, now and
    then with a rule repeated as a YAML alias, a stray entry, the list
    nested in a list, or anything at all."""
    window_ms = draw(st.sampled_from([400, 1000]) | st.integers(1, 10 ** 30))
    rules = [draw(rule_configs(f"r{k}", window_ms))
             for k in range(draw(st.integers(1, 3)))]
    if one_in(draw, 6):
        rules.append(rules[-1])   # safe_dump writes it as an alias
    if one_in(draw, 16):
        rules.append(draw(JUNK))
    if one_in(draw, 16):
        rules = [rules]
    if one_in(draw, 16):
        return draw(JUNK | st.fixed_dictionaries({"rules": JUNK}))
    return {"rules": rules} if draw(st.booleans()) else rules


def rule_stream_frame(i):
    """Frame ``i`` of the stream the random rule files run on: two persons
    reach for each other, one rides a horse, and a red car stands still."""
    reach = 4 * min(i, 12 - i)
    left, right, rider = [10, 10, 30, 80], [60, 10, 30, 80], [200 + 5 * i, 0, 30, 80]
    return {"frame": i, "ts_ms": 40 * i, "objects": [
        {"track": 1, "label": "person", "conf": 0.9, "bbox": left,
         "keypoints": arms(left, reach, 1)},
        {"track": 2, "label": "person", "conf": 0.9, "bbox": right,
         "keypoints": arms(right, reach, -1)},
        {"track": 3, "label": "person", "conf": 0.9, "bbox": rider},
        {"track": 4, "label": "horse", "conf": 0.9, "bbox": [190 + 5 * i, 50, 80, 60]},
        {"track": 5, "label": "car", "conf": 0.9, "bbox": [100, 100, 40, 20],
         "attrs": {"color": "red"}}]}


RULE_STREAM = [json.dumps(HEADER)] + [json.dumps(rule_stream_frame(i)) for i in range(13)]


@settings(max_examples=300, deadline=None)
@given(rule_files())
def test_run_never_exits_3_on_a_random_rule_file(doc):
    """Exit 0 (the file was valid), 1 or 2; stderr holds at most 1 KB more
    than the rule file itself."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "s.jsonl")
        rules_path = os.path.join(tmp, "r.yaml")
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write("\n".join(RULE_STREAM) + "\n")
        text = yaml.safe_dump(doc)
        with open(rules_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["--quiet", "run", "--input", stream, "--rules", rules_path,
                       "--out", os.path.join(tmp, "o.jsonl")])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_INPUT), err.getvalue()[-2000:]
    assert len(err.getvalue()) <= 1000 + len(text), err.getvalue()[:2000]


# --- mutated streams ---

MUTATION_RULES = [
    {"id": "ride", "kind": "horse_ride", "window_ms": 200,
     "params": {"min_frames": 2, "min_speed_px": 1}},
    {"id": "fall", "kind": "fall_detection", "window_ms": 200},
    {"id": "cars", "kind": "high_volume_traffic", "window_ms": 200,
     "params": {"region": [[0, 0], [400, 0], [400, 400], [0, 400]],
                "count_threshold": 1}},
]
GAPS = st.sampled_from([2 ** 31, 2 ** 53, 2 ** 53 + 1, 2 ** 62, 2 ** 63 - 1, 2 ** 63,
                        2 ** 64]) | st.integers(0, 2 ** 63)
HUGE_INT = "1" + "0" * 4300   # one digit past the limit of int(str)
BAD_JSON = [b"{", b"[]", b"null", b'{"frame": ', b"}{", b'{"frame": 1, "ts_ms": 1}x']
BAD_UTF8 = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80"]
BLANK = [b"", b"   ", b"\t\r"]


def frame_record(line: bytes):
    """The frame record on ``line``, or None if an earlier mutation broke
    it (or it is the header or blank)."""
    try:
        record = json.loads(line)
    except ValueError:   # bad JSON, and bad UTF-8 (UnicodeDecodeError)
        return None
    if isinstance(record, dict) and type(record.get("ts_ms")) is int:
        return record
    return None


@st.composite
def mutations(draw, lines):
    """One mutation of the stream ``lines`` (bytes, header first)."""
    lines = list(lines)
    kind = draw(st.sampled_from(["json", "utf8", "reorder", "repeat", "gap",
                                 "bigint", "blank"]))
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "json":
        line = lines[k]
        cut = draw(st.integers(0, len(line)))
        lines[k] = draw(st.sampled_from(BAD_JSON + [line[:cut]]))
    elif kind == "utf8":
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(BAD_UTF8)) + lines[k][at:]
    elif kind == "reorder":
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[k])
    elif kind == "gap":
        gap = draw(GAPS)
        for j in range(k, len(lines)):
            record = frame_record(lines[j])
            if record is not None:
                record["ts_ms"] += gap
                lines[j] = json.dumps(record).encode()
    elif kind == "bigint":
        record = frame_record(lines[k])
        if record is not None:
            place = draw(st.sampled_from(["ts_ms", "frame", "track", "bbox", "conf"]))
            if place in ("ts_ms", "frame"):
                record[place] = "HUGE"
            elif record["objects"]:
                o = record["objects"][0]
                if place == "bbox":
                    o["bbox"][draw(st.integers(0, 3))] = "HUGE"
                else:
                    o[place] = "HUGE"
            lines[k] = json.dumps(record).replace('"HUGE"', HUGE_INT).encode()
    else:
        lines[:0] = draw(st.lists(st.sampled_from(BLANK), min_size=1, max_size=3))
    return lines


@st.composite
def mutated_streams(draw):
    lines = [line.encode() for line in RULE_STREAM]
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(mutations(lines))
    return b"\n".join(lines) + b"\n"


def run_and_validate(data: bytes):
    """Exit codes of ``vekg run`` and ``vekg validate`` on the stream
    ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "s.jsonl")
        rules_path = os.path.join(tmp, "r.yaml")
        with open(stream, "wb") as fh:
            fh.write(data)
        with open(rules_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"rules": MUTATION_RULES}, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            ran = main(["--quiet", "run", "--input", stream, "--rules", rules_path,
                        "--out", os.path.join(tmp, "o.jsonl")])
            validated = main(["validate", stream])
    return ran, validated


@settings(max_examples=150, deadline=None)
@given(mutated_streams())
def test_run_and_validate_exit_0_or_2_on_a_mutated_stream(data):
    """Both exit 0 or 2, never 3, and they agree on whether the stream
    is valid."""
    ran, validated = run_and_validate(data)
    assert ran in (EXIT_OK, EXIT_INPUT)
    assert ran == validated


def shifted(lines, k, gap):
    """``lines`` with line ``k`` and those after it ``gap`` ms later."""
    out = lines[:k]
    for line in lines[k:]:
        record = json.loads(line)
        out.append(json.dumps(dict(record, ts_ms=record["ts_ms"] + gap)))
    return out


NAMED_MUTATIONS = {
    "blank lines before the header": (["", "  ", "\t"] + RULE_STREAM, EXIT_OK),
    "a 2**64 ms gap": (shifted(RULE_STREAM, 5, 2 ** 64), EXIT_OK),
    "a 2**63 ms gap then the same again": (
        shifted(shifted(RULE_STREAM, 4, 2 ** 63), 9, 2 ** 63), EXIT_OK),
    "a repeated frame": (RULE_STREAM[:4] + RULE_STREAM[3:], EXIT_INPUT),
    "two frames swapped": (RULE_STREAM[:3] + RULE_STREAM[4:2:-1] + RULE_STREAM[5:],
                           EXIT_INPUT),
    "a truncated last line": (RULE_STREAM[:-1] + [RULE_STREAM[-1][:40]], EXIT_INPUT),
    "a 4,301-digit ts_ms": (RULE_STREAM[:2] + [RULE_STREAM[2].replace(
        '"ts_ms": 40', '"ts_ms": ' + HUGE_INT)] + RULE_STREAM[3:], EXIT_INPUT),
}


@pytest.mark.parametrize("name", sorted(NAMED_MUTATIONS))
def test_named_stream_mutations(name):
    lines, expected = NAMED_MUTATIONS[name]
    assert run_and_validate("\n".join(lines).encode() + b"\n") == (expected, expected)


def test_invalid_utf8_exits_2():
    data = "\n".join(RULE_STREAM).encode()
    for at in (5, len(RULE_STREAM[0]) + 20, len(data) - 3):
        mutated = data[:at] + b"\xff" + data[at:]
        assert run_and_validate(mutated) == (EXIT_INPUT, EXIT_INPUT)


# --- random truth files ---

TRUTH_RULES = [
    {"id": "ride", "kind": "horse_ride", "window_ms": 1000,
     "params": {"min_frames": 2, "min_speed_px": 1}},
    {"id": "red", "kind": "attribute_query", "window_ms": 1000,
     "params": {"attribute": "color", "value": "red"}},
    {"id": "shake", "kind": "handshake", "window_ms": 1000,
     "params": {"min_phase_frames": 2}},
]   # on RULE_STREAM: one ride, one red car and two handshake sides fire
TRUTH_KINDS = st.sampled_from(["horse_ride", "attribute_query", "handshake",
                               "punch", "", "HANDSHAKE"]) | st.text(max_size=6)
MS = (st.integers(-2, 600) | st.sampled_from([2 ** 53 + 1, 2 ** 63, -2 ** 63, 10 ** 400,
                                              -10 ** 400]) | st.integers())
ODD_MS = st.sampled_from([0.5, 40.0, True, None, "40", [40], float("nan"),
                          float("inf")])


@st.composite
def truth_events(draw):
    """One ground-truth record: a well-formed event, now and then with a
    field of another type, a field dropped or a key added, or any JSON."""
    if one_in(draw, 10):
        return draw(JUNK)
    start = draw(MS)
    event = {"kind": draw(TRUTH_KINDS), "start_ms": start,
             "end_ms": draw(st.sampled_from([start + 1, start + 480, start]) | MS),
             "participants": draw(st.lists(st.integers(0, 6) | st.just(2 ** 70),
                                           max_size=3))}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        fault = draw(st.integers(0, 2))
        key = draw(st.sampled_from(sorted(event)))
        if fault == 0:
            event[key] = draw(ODD_MS | SCALAR | JUNK)
        elif fault == 1:
            del event[key]
        else:
            event[draw(st.text(max_size=6))] = draw(JUNK)
    return event


HUGE_START = b'{"kind": "punch", "start_ms": 1' + b"0" * 4400 + b"}"   # past int()'s limit
ODD_LINES = [b"", b"  \t", b"{", b"null", b"[]", b"\xff\xfe", b"\xef\xbb\xbf{}",
             b"[" * 50_000, HUGE_START, b'{"kind": "punch", "start_ms": NaN, "end_ms": Infinity}']


@st.composite
def truth_files(draw):
    """(file bytes, events a valid file holds): JSON lines of random
    events, and now and then a line no JSON reader or event check takes."""
    events = draw(st.lists(truth_events(), max_size=6))
    lines = [json.dumps(e).encode() for e in events]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b"", b"\r\n"]))


def run_with_truth(data: bytes):
    """``vekg run --truth`` on RULE_STREAM under TRUTH_RULES: exit code,
    the accuracy record (None unless it exited 0), and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "s.jsonl")
        rules_path = os.path.join(tmp, "r.yaml")
        truth = os.path.join(tmp, "t.jsonl")
        out = os.path.join(tmp, "o.jsonl")
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write("\n".join(RULE_STREAM) + "\n")
        with open(rules_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"rules": TRUTH_RULES}, fh)
        with open(truth, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["--quiet", "run", "--input", stream, "--rules", rules_path,
                       "--out", out, "--truth", truth])
        if rc != EXIT_OK:
            assert not os.path.exists(out), "a bad truth file is refused before output"
            return rc, None, err.getvalue()
        with open(out + ".metrics.jsonl", encoding="utf-8") as fh:
            return rc, json.loads(fh.readlines()[-1])["accuracy"], err.getvalue()


@settings(max_examples=200, deadline=None)
@given(truth_files())
def test_run_exits_0_or_2_on_a_random_truth_file(data):
    """Exit 0 or 2 with a short stderr; a file that loads is scored as one
    event per non-blank line, against the run's four notifications."""
    rc, accuracy, err = run_with_truth(data)
    assert rc in (EXIT_OK, EXIT_INPUT), err[-2000:]
    assert len(err) <= 1000, err[:2000]
    if rc == EXIT_OK:
        events = sum(1 for line in data.splitlines() if line.strip())
        assert accuracy["tp"] + accuracy["fp"] == 4
        assert accuracy["tp"] + accuracy["fn"] == events


TRUTH_EVENT = '{"kind": "horse_ride", "start_ms": 40, "end_ms": 520, "participants": [3, 4]}'
NAMED_TRUTH_FILES = {
    "an empty file": (b"", EXIT_OK),
    "blank lines only": (b"\n  \n\t\r\n", EXIT_OK),
    "the planted ride": (TRUTH_EVENT.encode() + b"\n", EXIT_OK),
    "an interval of +-10**400 ms": (json.dumps(
        {"kind": "horse_ride", "start_ms": -10 ** 400, "end_ms": 10 ** 400}).encode(),
        EXIT_OK),
    "start_ms equal to end_ms": (b'{"kind": "punch", "start_ms": 5, "end_ms": 5}', EXIT_INPUT),
    "a float start_ms": (b'{"kind": "punch", "start_ms": 5.0, "end_ms": 9}', EXIT_INPUT),
    "a bool participant": (b'{"kind": "punch", "start_ms": 5, "end_ms": 9, '
                           b'"participants": [true]}', EXIT_INPUT),
    "a line that is a list": (b"[1, 2]", EXIT_INPUT),
    "a byte-order mark": (b"\xef\xbb\xbf" + TRUTH_EVENT.encode(), EXIT_INPUT),
    "invalid UTF-8": (TRUTH_EVENT.encode() + b"\n\xff\n", EXIT_INPUT),
    "50,000 nested lists": (b"[" * 50_000, EXIT_INPUT),
    # the error once quoted the UnicodeDecodeError's repr: every byte of
    # the chunk being decoded, 20 KB of stderr here
    "invalid UTF-8 after 20 KB": ((TRUTH_EVENT + "\n").encode() * 250 + b"\xff",
                                  EXIT_INPUT),
    "a 4,401-digit start_ms": (HUGE_START, EXIT_INPUT),
}


@pytest.mark.parametrize("name", sorted(NAMED_TRUTH_FILES))
def test_named_truth_files(name):
    data, expected = NAMED_TRUTH_FILES[name]
    rc, _, err = run_with_truth(data)
    assert rc == expected
    assert len(err) <= 1000, err[:2000]
