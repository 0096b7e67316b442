"""Fuzzing the whole CLI: ``vekg run`` on random streams and region rules.

Random streams meet random ``high_volume_traffic`` and ``jaywalking``
rules.  Regions are simple shapes placed at scales and offsets up to
+-1e300, or random vertex lists (mostly rejected).  Boxes sit on the
region's grid or anywhere up to 1e308, with integers above 2**53 and
sizes whose centroid overflows to inf; now and then one box gets a nan,
an inf or a non-positive width.  Whatever the input, the run exits 0 or
2, never 3 ("internal error"): no numpy warning may escape the region
kernel, since pytest turns warnings into errors and ``main`` reports any
stray exception as exit 3.
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
    lines, rules, nframes = run
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
        if rc == EXIT_OK:   # a frame's window and the empty run before it
            with open(out + ".metrics.jsonl", encoding="utf-8") as fh:
                assert len(fh.readlines()) <= 2 * nframes
