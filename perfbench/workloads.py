"""Inputs of the three workloads, generated through ``vekg.synth`` from a seed.

Each workload is one *round*: a list of ``Clip`` inputs, each replayed into
its own ``vekg run`` process.  The program only ever sees the generated
files; the seed stays with the benchmark.

- street: the built-in ``street_10min`` script (5 parked cars, 2 walkers,
  one high_volume_traffic rule) at 10 s windows, with seeded jitter and
  dropout.  18,000 frames, 60 windows.
- crowd: a dense scene built here from ``synth.ActorScript``: planted
  rider/mount pairs in lanes across the top of the frame and walkers in a
  band below them, with jitter and dropout; ride, handshake and punch rules
  at 1 s windows.
- clips: the 18 built-in ``*_positive``/``*_negative`` scenarios plus a
  noisy variant of each positive at a fixed seed, each with its own rule
  file and truth file; the seed only shuffles their order in the round.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import yaml

from vekg import synth

WORKLOADS = ("street", "crowd", "clips")

RULE_KINDS = ("fall_detection", "horse_ride", "bike_ride", "handshake",
              "punch", "high_volume_traffic", "parking_slot_status",
              "jaywalking", "attribute_query")

CLIP_NAMES = ("fall", "horse_ride", "bike_ride", "handshake", "punch",
              "traffic", "parking", "jaywalk", "attribute")
CLIP_NOISE = (2.0, 0.05, 7)   # jitter px, dropout, seed of the noisy positives

STREET_WINDOW_MS = 10_000
STREET_NOISE = (1.0, 0.02)

CROWD_WINDOW_MS = 1_000
CROWD_FPS = 30
CROWD_NOISE = (2.0, 0.05)
RIDE_PX_PER_MS = 0.36            # 12 px per frame at 30 fps
LANES = 4                        # rider/mount lanes, two pairs per lane
LANE_PITCH = 140                 # a pair spans 130 px: rider 90 over mount 80
WALK_BAND = (600, 900)           # walkers' top edge; lanes end at y = 570


@dataclass
class Clip:
    """One ``vekg run`` invocation: its input files and what to expect."""

    name: str
    stream: str
    rules: str
    window_ms: int
    truth: Optional[str] = None
    role: str = ""                      # clips: clean / negative / noisy
    rule_configs: Tuple[dict, ...] = ()
    # crowd: planted (rider, mount) -> ride kind, and the windows each rides
    planted: Dict[Tuple[int, int], str] = field(default_factory=dict)
    riding: Set[Tuple[Tuple[int, int], int]] = field(default_factory=set)


def _write_rules(path: str, configs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"rules": [dict(c) for c in configs]}, fh)


def _emit(sc: synth.Scenario, outdir: str, name: str, window_ms: int,
          configs, with_truth: bool, **extra) -> Clip:
    os.makedirs(outdir, exist_ok=True)
    stream = os.path.join(outdir, f"{name}.jsonl")
    truth = os.path.join(outdir, f"{name}.truth.jsonl")
    rules = os.path.join(outdir, f"{name}.rules.yaml")
    synth.generate(sc, stream, truth)
    _write_rules(rules, configs)
    return Clip(name=name, stream=stream, rules=rules, window_ms=window_ms,
                truth=truth if with_truth else None,
                rule_configs=tuple(configs), **extra)


def street(outdir: str, seed: int, scenario: str = "street_10min") -> List[Clip]:
    sc = synth.get_scenario(scenario).with_noise(*STREET_NOISE, seed)
    configs = [dict(r, window_ms=STREET_WINDOW_MS) for r in sc.rule_configs]
    return [_emit(sc, outdir, "street", STREET_WINDOW_MS, configs, False)]


def _lane_pair(k: int, windows: int, rng: random.Random):
    """Rider and mount scripts of pair k and the windows in which it rides.

    The pair rides at 12 px/frame for whole windows and rests between
    them; direction flips on each ride so it stays inside its half-lane.
    """
    lane, half = divmod(k, 2)
    y = 20 + LANE_PITCH * lane
    x = 20 + 960 * half + rng.randint(0, 80)
    step = RIDE_PX_PER_MS * CROWD_WINDOW_MS
    direction = 1
    keys = [(0, x)]
    rides = set()
    for j in range(windows):
        if rng.random() < 0.75:
            rides.add(j)
            x += direction * step
            direction = -direction
        keys.append(((j + 1) * CROWD_WINDOW_MS, x))
    mount_label = "horse" if k % 2 == 0 else "bike"
    rider = synth.ActorScript(
        track_id=100 + k, label="person",
        bbox_keys=tuple((t, mx + 25, y, 50, 90) for t, mx in keys))
    mount = synth.ActorScript(
        track_id=200 + k, label=mount_label,
        bbox_keys=tuple((t, mx, y + 50, 100, 80) for t, mx in keys))
    return rider, mount, f"{mount_label}_ride", rides


def _walker(i: int, duration_ms: int, rng: random.Random) -> synth.ActorScript:
    """Walker i wanders the band below the lanes along a seeded path.  A
    third of the walkers enter late and a third leave early, on a fixed
    schedule, so every seed has the same number of objects per frame."""
    keys = []
    t = 0
    while True:
        keys.append((t, rng.uniform(0, 1880), rng.uniform(*WALK_BAND), 40, 100))
        if t >= duration_ms:
            break
        t = min(duration_ms, t + rng.randint(1500, 4000))
    enter = duration_ms // 4 if i % 3 == 1 else 0
    leave = 3 * duration_ms // 4 if i % 3 == 2 else None
    return synth.ActorScript(track_id=300 + i, label="person", bbox_keys=tuple(keys),
                             enter_ms=enter, exit_ms=leave)


def crowd(outdir: str, seed: int, duration_ms: int = 20_000,
          walkers: int = 14) -> List[Clip]:
    rng = random.Random(seed)
    windows = duration_ms // CROWD_WINDOW_MS
    actors = []
    planted: Dict[Tuple[int, int], str] = {}
    riding: Set[Tuple[Tuple[int, int], int]] = set()
    for k in range(2 * LANES):
        rider, mount, kind, rides = _lane_pair(k, windows, rng)
        actors += [rider, mount]
        pair = (rider.track_id, mount.track_id)
        planted[pair] = kind
        riding |= {(pair, j) for j in rides}
    actors += [_walker(i, duration_ms, rng) for i in range(walkers)]
    configs = [{"id": kind, "kind": kind, "window_ms": CROWD_WINDOW_MS}
               for kind in ("horse_ride", "bike_ride", "handshake", "punch")]
    sc = synth.Scenario(name="crowd", duration_ms=duration_ms, fps=CROWD_FPS,
                        resolution=synth.RES, actors=tuple(actors),
                        rule_configs=tuple(configs), window_ms=CROWD_WINDOW_MS,
                        noise_sigma_px=CROWD_NOISE[0],
                        dropout_prob=CROWD_NOISE[1], seed=seed)
    return [_emit(sc, outdir, "crowd", CROWD_WINDOW_MS, configs, False,
                  planted=planted, riding=riding)]


def clips(outdir: str, seed: int, names=CLIP_NAMES) -> List[Clip]:
    out = []
    for name in names:
        for role in ("clean", "negative", "noisy"):
            suffix = "negative" if role == "negative" else "positive"
            sc = synth.get_scenario(f"{name}_{suffix}")
            if role == "noisy":
                sc = sc.with_noise(*CLIP_NOISE)
            out.append(_emit(sc, outdir, f"{name}_{role}", sc.window_ms,
                             sc.rule_configs, True, role=role))
    random.Random(seed).shuffle(out)
    return out


def build(workload: str, outdir: str, seed: int) -> List[Clip]:
    return {"street": street, "crowd": crowd, "clips": clips}[workload](outdir, seed)


def make_up(clip: Clip) -> dict:
    """Frames, objects per frame, tracks and windows of one generated input."""
    import checks
    frames = checks.read_stream(clip.stream)
    objects = sum(len(objs) for _, objs in frames)
    return {"input": clip.name, "frames": len(frames),
            "objects_per_frame": round(objects / len(frames), 2),
            "tracks": len({o[0] for _, objs in frames for o in objs}),
            "windows": len(checks.Windows(frames, clip.window_ms))}


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED [OUTDIR]
    import json
    import sys
    name, seed = sys.argv[1], int(sys.argv[2])
    outdir = sys.argv[3] if len(sys.argv) > 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "out", "inputs", f"{name}-{seed}")
    for clip in build(name, outdir, seed):
        print(json.dumps(make_up(clip)))
