"""Deterministic scripted detection streams with planted ground truth.

Actor trajectories are piecewise-linear keyframe scripts sampled at the
scenario frame rate.  Noise is seeded uniform position jitter plus
per-actor-per-frame dropout, which exercises the aggregated graph's
don't-care slots.  The same seed always produces byte-identical output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidScenario
from .geometry import BoundingBox
from .ingest import FrameDetections, ObjectNode, StreamHeader, write_stream
from .metrics import GroundTruthEvent
from .temporal import Interval

BBoxKey = Tuple[int, float, float, float, float]   # (ms, x, y, w, h)
PointKey = Tuple[int, float, float]                # (ms, x, y)


@dataclass(frozen=True)
class ActorScript:
    track_id: int
    label: str
    bbox_keys: Tuple[BBoxKey, ...]
    attrs: Dict[str, str] = field(default_factory=dict)
    keypoint_keys: Dict[str, Tuple[PointKey, ...]] = field(default_factory=dict)
    enter_ms: int = 0
    exit_ms: Optional[int] = None   # None = until scenario end
    confidence: float = 0.9


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_ms: int
    fps: int
    resolution: Tuple[int, int]
    actors: Tuple[ActorScript, ...]
    planted_events: Tuple[GroundTruthEvent, ...] = ()
    rule_configs: Tuple[dict, ...] = ()
    window_ms: int = 10_000
    noise_sigma_px: float = 0.0
    dropout_prob: float = 0.0
    seed: int = 0

    def with_noise(self, sigma_px: float, dropout: float,
                   seed: Optional[int] = None) -> "Scenario":
        return replace(self, noise_sigma_px=sigma_px, dropout_prob=dropout,
                       seed=self.seed if seed is None else seed)


def _interp(keys: Sequence[Tuple], t: int) -> Tuple[float, ...]:
    """Piecewise-linear sample of a keyframe track at time t (clamped)."""
    if t <= keys[0][0]:
        return keys[0][1:]
    if t >= keys[-1][0]:
        return keys[-1][1:]
    for i in range(len(keys) - 1):
        t0, t1 = keys[i][0], keys[i + 1][0]
        if t0 <= t <= t1:
            f = (t - t0) / (t1 - t0) if t1 > t0 else 0.0
            return tuple(a + f * (b - a)
                         for a, b in zip(keys[i][1:], keys[i + 1][1:]))
    return keys[-1][1:]


def _validate(scenario: Scenario) -> None:
    if scenario.duration_ms <= 0 or scenario.fps <= 0:
        raise InvalidScenario("duration and fps must be positive")
    if not 0.0 <= scenario.dropout_prob < 1.0:
        raise InvalidScenario("dropout probability must be in [0, 1)")
    # jitter is drawn from [-sigma, sigma], a span of 2 * sigma
    sigma = scenario.noise_sigma_px
    if not (sigma >= 0.0 and math.isfinite(2 * sigma)):
        raise InvalidScenario(
            f"noise amplitude must be >= 0 with 2 * amplitude finite, got {sigma}")
    seen = set()
    for actor in scenario.actors:
        if actor.track_id in seen:
            raise InvalidScenario(f"duplicate track id {actor.track_id}")
        seen.add(actor.track_id)
        if not actor.bbox_keys:
            raise InvalidScenario(f"actor {actor.track_id} has no bbox keys")
        for keys in (actor.bbox_keys, *actor.keypoint_keys.values()):
            times = [k[0] for k in keys]
            if times != sorted(times):
                raise InvalidScenario(
                    f"actor {actor.track_id}: keyframes not time-ordered")


def generate_frames(scenario: Scenario) -> Iterator[FrameDetections]:
    """Sample the scenario's scripts into an ordered frame stream."""
    _validate(scenario)
    rng = random.Random(scenario.seed)
    sigma = scenario.noise_sigma_px
    nframes = int(scenario.duration_ms * scenario.fps / 1000)
    for i in range(nframes):
        ts = round(i * 1000 / scenario.fps)
        objs: List[ObjectNode] = []
        for actor in scenario.actors:
            exit_ms = scenario.duration_ms if actor.exit_ms is None else actor.exit_ms
            if not actor.enter_ms <= ts < exit_ms:
                continue
            if scenario.dropout_prob > 0 and rng.random() < scenario.dropout_prob:
                continue
            x, y, w, h = _interp(actor.bbox_keys, ts)
            if sigma > 0:
                x += rng.uniform(-sigma, sigma)
                y += rng.uniform(-sigma, sigma)
            keypoints = None
            if actor.keypoint_keys:
                keypoints = {}
                for name in actor.keypoint_keys:
                    kx, ky = _interp(actor.keypoint_keys[name], ts)
                    if sigma > 0:
                        kx += rng.uniform(-sigma, sigma)
                        ky += rng.uniform(-sigma, sigma)
                    keypoints[name] = (kx, ky)
            objs.append(ObjectNode(track_id=actor.track_id, label=actor.label,
                                   confidence=actor.confidence,
                                   bbox=BoundingBox(x, y, w, h),
                                   attributes=dict(actor.attrs),
                                   keypoints=keypoints))
        yield FrameDetections(frame_index=i, timestamp=ts, objects=tuple(objs))


def generate(scenario: Scenario, stream_path, truth_path) -> None:
    """Write the detection stream and its ground-truth file; a bad
    scenario raises before either file is opened."""
    _validate(scenario)
    header = StreamHeader(resolution=scenario.resolution)
    write_stream(stream_path, header, generate_frames(scenario))
    with open(truth_path, "w", encoding="utf-8") as fh:
        for ev in scenario.planted_events:
            fh.write(json.dumps(ev.as_dict(), separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# built-in scenarios: one positive and one negative per rule kind, plus
# street scenes for reduction and search benchmarks
# ----------------------------------------------------------------------

RES = (1920, 1080)
W = 10_000   # default window length, ms
_WINDOWS = 4   # windows in each rule kind's scenarios
_DUR = _WINDOWS * W


def _truth(kind: str, start: int, end: int, *participants: int) -> GroundTruthEvent:
    return GroundTruthEvent(kind=kind, interval=Interval(start, end),
                            participants=tuple(participants))


def _per_window(kind: str, start: int, end: int,
                *participants: int) -> List[GroundTruthEvent]:
    """One planted event in each window, ``start`` to ``end`` ms into it."""
    return [_truth(kind, base + start, base + end, *participants)
            for base in range(0, _DUR, W)]


def _pair(name: str, rule: dict, positive: Sequence[ActorScript],
          events: Sequence[GroundTruthEvent],
          negative: Sequence[ActorScript]) -> List[Scenario]:
    """A rule kind's positive scenario, with its planted ``events``, and
    its negative one: four windows of ``W`` ms at 30 fps under ``rule``."""
    rule = dict(rule, window_ms=W)
    return [Scenario(name=f"{name}_{suffix}", duration_ms=_DUR, fps=30,
                     resolution=RES, actors=tuple(actors),
                     planted_events=tuple(truth), rule_configs=(rule,),
                     window_ms=W)
            for suffix, actors, truth in (("positive", positive, events),
                                          ("negative", negative, ()))]


def _fall_person(fall: bool) -> ActorScript:
    keys: List[BBoxKey] = []
    for base in range(0, _DUR, W):
        if fall:
            keys += [
                (base, 200, 400, 45, 110),
                (base + 3000, 1280, 400, 45, 110),      # walking right
                (base + 3034, 1280, 465, 110, 45),      # sharp fall
                (base + W - 34, 1280, 465, 110, 45),    # lying still
            ]
        else:
            keys += [(base, 200, 400, 45, 110),
                     (base + W - 34, 1280, 400, 45, 110)]
    return ActorScript(track_id=1, label="person", bbox_keys=tuple(keys))


def _fall_scenarios() -> List[Scenario]:
    return _pair("fall", {"id": "fall", "kind": "fall_detection"},
                 (_fall_person(fall=True),),
                 _per_window("fall_detection", 3000, W, 1),
                 (_fall_person(fall=False),))


def _ride_scenarios(kind: str, mount: str) -> List[Scenario]:
    speed = 0.36   # px per ms (12 px/frame at 30 fps)

    def moving(track: int, label: str, x: float, y: float, w: float,
               h: float) -> ActorScript:
        return ActorScript(track_id=track, label=label, bbox_keys=(
            (0, x, y, w, h), (_DUR, x + speed * _DUR, y, w, h)))

    if kind == "horse_ride":
        # person beside (left of) the mount, overlapping, both moving
        negative = (moving(1, "person", 100, 350, 50, 90),
                    moving(2, mount, 130, 355, 100, 80))
    else:
        # person above the mount but nothing moves
        negative = (
            ActorScript(track_id=1, label="person",
                        bbox_keys=((0, 100, 300, 50, 90),)),
            ActorScript(track_id=2, label=mount,
                        bbox_keys=((0, 75, 350, 100, 80),)),
        )
    return _pair(kind, {"id": kind, "kind": kind},
                 (moving(1, "person", 100, 300, 50, 90),
                  moving(2, mount, 75, 350, 100, 80)),
                 _per_window(kind, 0, W, 1, 2), negative)


def _static_points(**points) -> Dict[str, Tuple[PointKey, ...]]:
    return {name: ((0, x, y),) for name, (x, y) in points.items()}


def _shake_wrists(windows: int, idle: Tuple[float, float],
                  ext: Tuple[float, float],
                  raise_at=2000, peak_at=5000, back_at=8000) -> Tuple[PointKey, ...]:
    keys: List[PointKey] = []
    for base in range(0, windows * W, W):
        keys += [(base + raise_at, *idle), (base + peak_at, *ext),
                 (base + back_at, *idle)]
    return tuple(keys)


def _person_a(windows: int, wrist_ext: Tuple[float, float],
              peak=5000) -> ActorScript:
    kp = _static_points(
        right_shoulder=(800, 400), right_hip=(805, 520),
        left_shoulder=(780, 400), left_hip=(778, 520), left_wrist=(770, 512),
    )
    kp["right_wrist"] = _shake_wrists(windows, (812, 512), wrist_ext,
                                      peak_at=peak)
    return ActorScript(track_id=1, label="person",
                       bbox_keys=((0, 760, 380, 100, 260),),
                       keypoint_keys=kp)


def _person_b(windows: int, wrist_ext: Optional[Tuple[float, float]]) -> ActorScript:
    kp = _static_points(
        right_shoulder=(1100, 400), right_hip=(1095, 520),
        left_shoulder=(1120, 400), left_hip=(1122, 520), left_wrist=(1130, 512),
    )
    if wrist_ext is None:
        kp["right_wrist"] = ((0, 1088, 512),)
    else:
        kp["right_wrist"] = _shake_wrists(windows, (1088, 512), wrist_ext)
    return ActorScript(track_id=2, label="person",
                       bbox_keys=((0, 1060, 380, 100, 260),),
                       keypoint_keys=kp)


def _handshake_scenarios() -> List[Scenario]:
    return _pair("handshake", {"id": "shake", "kind": "handshake"},
                 (_person_a(_WINDOWS, (940, 412)), _person_b(_WINDOWS, (960, 412))),
                 _per_window("handshake", 2000, 8000, 1, 2),
                 (_person_a(_WINDOWS, (812, 512)), _person_b(_WINDOWS, None)))


def _punch_scenarios() -> List[Scenario]:
    # the attacker's wrist reaches the victim's right shoulder; a handshake
    # must not fire the punch rule: wrists meet mid-way, far from either
    # shoulder
    return _pair("punch", {"id": "punch", "kind": "punch"},
                 (_person_a(_WINDOWS, (1095, 402), peak=4000),
                  _person_b(_WINDOWS, None)),
                 _per_window("punch", 2000, 8000, 1, 2),
                 (_person_a(_WINDOWS, (940, 412)), _person_b(_WINDOWS, (960, 412))))


ROAD_REGION = [[300, 300], [1600, 300], [1600, 800], [300, 800]]


def _traffic_scenarios() -> List[Scenario]:
    def car(track: int, y: float) -> ActorScript:
        return ActorScript(track_id=track, label="car", bbox_keys=(
            (0, 400, y, 90, 50), (_DUR, 1350, y, 90, 50)))

    return _pair("traffic",
                 {"id": "traffic", "kind": "high_volume_traffic",
                  "params": {"region": ROAD_REGION, "count_threshold": 5}},
                 [car(t, 330 + 65 * (t - 1)) for t in range(1, 7)],
                 _per_window("high_volume_traffic", 0, W, *range(1, 7)),
                 [car(t, 330 + 65 * (t - 1)) for t in range(1, 4)]
                 + [car(t, 900) for t in range(4, 7)])   # outside the region


PARKING_SLOTS = [[200, 600, 120, 80], [400, 600, 120, 80]]


def _parking_scenarios() -> List[Scenario]:
    # car1 pulls up vertically before leaving so it never sweeps slot 1
    car1 = ActorScript(track_id=1, label="car", bbox_keys=(
        (0, -400, 610, 100, 70), (5000, 210, 610, 100, 70),
        (35000, 210, 610, 100, 70), (36000, 210, 450, 100, 70),
        (40000, 1500, 450, 100, 70)))
    car2 = ActorScript(track_id=2, label="car", bbox_keys=(
        (12000, 1200, 605, 100, 70), (15000, 410, 605, 100, 70),
        (25000, 410, 605, 100, 70), (30000, 1400, 605, 100, 70)),
        enter_ms=12000, exit_ms=30000)
    kind = "parking_slot_status"
    return _pair("parking",
                 {"id": "parking", "kind": kind,
                  "params": {"slots": PARKING_SLOTS, "overlap_threshold": 0.5}},
                 (car1, car2),
                 # boundaries are the exact overlap-threshold crossings
                 (_truth(kind, 4660, W, 1), _truth(kind, W, 2 * W, 1),
                  _truth(kind, 2 * W, 3 * W, 1), _truth(kind, 3 * W, 35200, 1),
                  _truth(kind, 14843, 2 * W, 2), _truth(kind, 2 * W, 25210, 2)),
                 # parked beside the slots, overlap well below threshold
                 (ActorScript(track_id=1, label="car",
                              bbox_keys=((0, 290, 610, 100, 70),)),))


CROSSING_REGION = [[600, 400], [1300, 400], [1300, 700], [600, 700]]


def _jaywalk_scenarios() -> List[Scenario]:
    # centroid = x + 20; crosses x=600 at base+2650, x=1300 at base+6150
    keys: List[BBoxKey] = []
    for base in range(0, _DUR, W):
        keys += [(base + 1000, 250, 480, 40, 100),
                 (base + 8000, 1650, 480, 40, 100),
                 (base + 9000, 1650, 480, 40, 100),
                 (base + 9034, 250, 480, 40, 100)]   # off-screen reset jump
    walker = ActorScript(track_id=1, label="person", bbox_keys=tuple(keys))
    bystander = ActorScript(track_id=2, label="person", bbox_keys=(
        (0, 200, 850, 40, 100), (_DUR, 1500, 850, 40, 100)))
    car = ActorScript(track_id=3, label="car", bbox_keys=(
        (0, 350, 500, 90, 50), (_DUR, 1500, 500, 90, 50)))
    return _pair("jaywalk",
                 {"id": "jaywalk", "kind": "jaywalking",
                  "params": {"region": CROSSING_REGION}},
                 (walker, bystander), _per_window("jaywalking", 2650, 6150, 1),
                 (bystander, car))


def _attribute_scenarios() -> List[Scenario]:
    def red_car(k: int) -> ActorScript:
        base = k * W
        return ActorScript(track_id=k + 1, label="car",
                           bbox_keys=((base + 1000, 100, 200, 90, 50),
                                      (base + 9000, 800, 200, 90, 50)),
                           attrs={"color": "Red"},
                           enter_ms=base + 1000, exit_ms=base + 9000)

    blue_cars = tuple(
        ActorScript(track_id=10 + i, label="car",
                    bbox_keys=((0, 100 + 200 * i, 700, 90, 50),),
                    attrs={"color": "blue"})
        for i in range(2))
    return _pair("attribute",
                 {"id": "redcar", "kind": "attribute_query",
                  "params": {"attribute": "color", "value": "red"}},
                 tuple(red_car(k) for k in range(_WINDOWS)) + blue_cars,
                 [_truth("attribute_query", k * W + 1000, k * W + 9000, k + 1)
                  for k in range(_WINDOWS)],
                 blue_cars)


def _street_scenario(name: str, duration_ms: int) -> Scenario:
    """Mostly-stationary street scene: 5 parked cars plus 2 transient walkers."""
    cars = tuple(
        ActorScript(track_id=t, label="car",
                    bbox_keys=((0, 150 + 300 * (t - 1), 650, 110, 70),))
        for t in range(1, 6))
    mid = duration_ms // 2
    walkers = (
        ActorScript(track_id=10, label="person",
                    bbox_keys=((duration_ms // 6, 100, 400, 40, 100),
                               (mid, 1500, 400, 40, 100)),
                    enter_ms=duration_ms // 6, exit_ms=mid),
        ActorScript(track_id=11, label="person",
                    bbox_keys=((mid - duration_ms // 8, 1600, 450, 40, 100),
                               (duration_ms - duration_ms // 6, 200, 450, 40, 100)),
                    enter_ms=mid - duration_ms // 8,
                    exit_ms=duration_ms - duration_ms // 6),
    )
    rule = {"id": "traffic", "kind": "high_volume_traffic",
            "window_ms": duration_ms,
            "params": {"region": [[0, 300], [1920, 300], [1920, 900], [0, 900]],
                       "count_threshold": 4}}
    return Scenario(name=name, duration_ms=duration_ms, fps=30, resolution=RES,
                    actors=cars + walkers, rule_configs=(rule,),
                    window_ms=duration_ms)


def builtin_scenarios() -> List[Scenario]:
    """All built-in scenarios: a positive and a negative per rule kind,
    plus the street scenes used for reduction and search benchmarks."""
    return (_fall_scenarios() + _ride_scenarios("horse_ride", "horse")
            + _ride_scenarios("bike_ride", "bike") + _handshake_scenarios()
            + _punch_scenarios() + _traffic_scenarios() + _parking_scenarios()
            + _jaywalk_scenarios() + _attribute_scenarios()
            + [_street_scenario("street", 60_000),
               _street_scenario("street_10min", 600_000)])


def get_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise InvalidScenario(f"unknown scenario {name!r}")
