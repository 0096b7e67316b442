"""Whole-run metamorphic tests: ``vekg run`` checked against itself.

Each built-in scenario except ``street_10min`` (whose 18,000 frames would
add seconds without a new rule kind), clean and with acceptance 8's noise,
is generated and run through ``cli.main`` with its own rules and truth
file, and then run again on a changed copy of its stream:

- With the objects inside each frame shuffled, no byte of the
  notifications and no field of the metrics lines outside ``latency``
  may change.
- With every ``ts_ms`` shifted by one constant and every ``frame`` by
  another (and the truth file's times by the first), each notification's
  interval and each metrics record's ``start_ms``/``end_ms`` shift by the
  first constant, and nothing else changes.
- With the tracks renumbered by the increasing map ``t -> 5t + 3`` (in
  the stream and the truth file), the notifications are the same, in
  the same order, once their participants are mapped, and the metrics
  lines outside ``latency`` do not change.  With the decreasing map
  ``t -> 10000 - t`` the set of notifications is the same once mapped;
  only their order, and the order within participants, may differ.

The positive handshake, punch, horse-ride and parking scenarios are
also run through ``python -m vekg.cli`` under ``PYTHONHASHSEED`` 0 to 3,
four processes at a time: the notifications must be byte-identical, and
the metrics lines identical outside ``latency``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vekg
from vekg import synth
from vekg.cli import EXIT_OK, main

NOISE = (2.0, 0.05, 7)   # jitter px, dropout, seed (as in acceptance 8)
STREAMS = [(sc.name, noise) for sc in synth.builtin_scenarios()
           if sc.name != "street_10min" for noise in (None, NOISE)]
TS_SHIFT = 123_456_789
FRAME_SHIFT = 1_000


@pytest.fixture(scope="module", params=STREAMS,
                ids=[f"{name}-{'noisy' if noise else 'clean'}" for name, noise in STREAMS])
def stream(request, tmp_path_factory):
    """One generated scenario, clean or noisy: ``(run, frames, truth,
    base)``.  ``run(tag, frames, truth)`` runs the scenario's rules over
    the frame records ``frames`` with the truth records ``truth``, and
    returns the notification lines and the metrics records without their
    ``latency``; ``base`` is that of the stream as generated."""
    name, noise = request.param
    sc = synth.get_scenario(name)
    if noise is not None:
        sc = sc.with_noise(*noise)
    tmp = tmp_path_factory.mktemp(sc.name)
    synth.generate(sc, tmp / "s.jsonl", tmp / "t.jsonl")
    header, *lines = (tmp / "s.jsonl").read_text(encoding="utf-8").splitlines()
    frames = [json.loads(line) for line in lines]
    truth = [json.loads(line) for line in
             (tmp / "t.jsonl").read_text(encoding="utf-8").splitlines()]
    rules = tmp / "r.yaml"
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}),
                     encoding="utf-8")

    def run(tag, frames, truth):
        stream, truth_path, out = (tmp / f"{tag}.jsonl", tmp / f"{tag}.truth.jsonl",
                                   tmp / f"{tag}.out.jsonl")
        stream.write_text("\n".join([header] + [json.dumps(f) for f in frames]) + "\n",
                          encoding="utf-8")
        truth_path.write_text("".join(json.dumps(t) + "\n" for t in truth),
                              encoding="utf-8")
        assert main(["--quiet", "run", "--input", str(stream), "--rules", str(rules),
                     "--truth", str(truth_path), "--out", str(out)]) == EXIT_OK
        notes = out.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in
                   (tmp / f"{tag}.out.jsonl.metrics.jsonl").read_text(
                       encoding="utf-8").splitlines()]
        for record in records:
            record.pop("latency", None)
        return notes, records

    return run, frames, truth, run("base", frames, truth)


def test_shuffling_objects_within_frames_changes_nothing(stream):
    run, frames, truth, base = stream
    rng = random.Random(7)
    shuffled = []
    for f in frames:
        objects = list(f["objects"])
        rng.shuffle(objects)
        shuffled.append({**f, "objects": objects})
    if any(len(f["objects"]) > 1 for f in frames):
        assert shuffled != frames
    assert run("shuffled", shuffled, truth) == base


def test_shifting_time_and_frame_numbers_shifts_only_intervals(stream):
    run, frames, truth, (notes, records) = stream
    shifted = [{**f, "frame": f["frame"] + FRAME_SHIFT, "ts_ms": f["ts_ms"] + TS_SHIFT}
               for f in frames]
    shifted_truth = [{**t, "start_ms": t["start_ms"] + TS_SHIFT,
                      "end_ms": t["end_ms"] + TS_SHIFT} for t in truth]
    moved_notes, moved_records = run("shifted", shifted, shifted_truth)
    moved_notes = [json.loads(line) for line in moved_notes]
    for moved in moved_notes + moved_records:
        if "start_ms" in moved:   # not the accuracy record
            moved["start_ms"] -= TS_SHIFT
            moved["end_ms"] -= TS_SHIFT
    assert moved_notes == [json.loads(line) for line in notes]
    assert moved_records == records


def renumbered(frames, truth, new_id):
    return ([{**f, "objects": [{**o, "track": new_id(o["track"])} for o in f["objects"]]}
             for f in frames],
            [{**t, "participants": [new_id(p) for p in t["participants"]]} for t in truth])


def mapped(notes, new_id):
    out = []
    for line in notes:
        note = json.loads(line)
        note["participants"] = [new_id(p) for p in note["participants"]]
        out.append(note)
    return out


def test_renumbering_tracks_increasingly_maps_only_participants(stream):
    run, frames, truth, (notes, records) = stream
    new_id = lambda t: 5 * t + 3
    got_notes, got_records = run("increasing", *renumbered(frames, truth, new_id))
    assert [json.loads(line) for line in got_notes] == mapped(notes, new_id)
    assert got_records == records


def test_renumbering_tracks_decreasingly_keeps_the_set_of_notifications(stream):
    run, frames, truth, (notes, records) = stream
    new_id = lambda t: 10_000 - t
    got_notes, got_records = run("decreasing", *renumbered(frames, truth, new_id))

    def canonical(notes):
        return sorted(json.dumps({**n, "participants": sorted(n["participants"])},
                                 sort_keys=True) for n in notes)

    assert canonical(json.loads(line) for line in got_notes) == \
        canonical(mapped(notes, new_id))
    assert got_records == records


HASH_SEED_SCENARIOS = ["handshake_positive", "punch_positive", "horse_ride_positive",
                       "parking_positive"]


@pytest.mark.parametrize("name", HASH_SEED_SCENARIOS)
def test_hash_seed_changes_no_output(name, tmp_path):
    sc = synth.get_scenario(name)
    stream, truth, rules = tmp_path / "s.jsonl", tmp_path / "t.jsonl", tmp_path / "r.yaml"
    synth.generate(sc, stream, truth)
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}),
                     encoding="utf-8")
    src = str(Path(vekg.__file__).resolve().parents[1])
    runs = []
    outputs = []
    try:
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"seed{seed}.jsonl"
            runs.append((out, subprocess.Popen(
                [sys.executable, "-m", "vekg.cli", "--quiet", "run", "--input", str(stream),
                 "--rules", str(rules), "--truth", str(truth), "--out", str(out)], env=env)))
        for out, proc in runs:
            assert proc.wait(timeout=60) == EXIT_OK
            records = [json.loads(line) for line in
                       Path(f"{out}.metrics.jsonl").read_text(encoding="utf-8").splitlines()]
            for record in records:
                record.pop("latency", None)
            outputs.append((out.read_bytes(), records))
    finally:
        for _, proc in runs:
            proc.kill()
            proc.wait()
    assert outputs[0][0]
    assert all(output == outputs[0] for output in outputs[1:])
