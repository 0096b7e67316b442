"""Fuzzing the whole CLI: ``vekg run`` on random streams and rules.

Two slices.  Random streams meet random ``high_volume_traffic`` and
``jaywalking`` rules: regions are simple shapes placed at scales and
offsets up to +-1e300, or random vertex lists (mostly rejected), and
boxes sit on the region's grid or anywhere up to 1e308, with integers
above 2**53 and sizes whose centroid overflows to inf; now and then one
box gets a nan, an inf or a non-positive width.  And random streams meet
every other rule kind: tracks walk, stop and turn horizontal, or jump
anywhere up to +-1.7e308, switch labels mid-track, carry random
attributes and a random subset of the six arm keypoints, near the box or
up to +-1.7e308, under valid random params (a zero or null ``penalty``,
zero frame counts, slots up to 1e300).

Whatever the input, the run exits 0 or 2, never 3 ("internal error"):
no numpy warning may escape a kernel, since pytest turns warnings into
errors and ``main`` reports any stray exception as exit 3.
"""

import json
import os
import tempfile

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vekg.cli import EXIT_INPUT, EXIT_OK, main

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
