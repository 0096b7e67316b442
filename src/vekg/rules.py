"""The nine declarative event-pattern rules and the rule registry.

Stateful rules evaluate over an aggregated window graph (VekgTag);
the attribute query is stateless and fires once per matching track.
The Matcher runs the rules one after another on each window's tag and
sorts their notifications into one deterministic order.
"""

from __future__ import annotations

import logging
import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from . import geometry
from .errors import InvalidRegion, InvalidRuleConfig, NonPositiveLength
from .geometry import BoundingBox, Region, SpatialRelationClass, DirectionClass
from .graph import RelationNeeds, relation_needs
from .tag import POSITION, VekgTag, X, motion_series
from .temporal import Interval, Trend, pelt_changepoints, trend

log = logging.getLogger(__name__)


class RuleKind(Enum):
    FALL_DETECTION = "fall_detection"
    HORSE_RIDE = "horse_ride"
    BIKE_RIDE = "bike_ride"
    HANDSHAKE = "handshake"
    PUNCH = "punch"
    HIGH_VOLUME_TRAFFIC = "high_volume_traffic"
    PARKING_SLOT_STATUS = "parking_slot_status"
    JAYWALKING = "jaywalking"
    ATTRIBUTE_QUERY = "attribute_query"


@dataclass(frozen=True)
class EventRule:
    rule_id: str
    kind: RuleKind
    object_labels: Tuple[str, ...]
    window_ms: int
    params: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MatchNotification:
    rule_id: str
    kind: RuleKind
    interval: Interval       # stream time, milliseconds
    participants: Tuple[int, ...]
    evidence: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"rule_id": self.rule_id, "kind": self.kind.value,
                "start_ms": self.interval.start, "end_ms": self.interval.end,
                "participants": list(self.participants),
                "evidence": self.evidence}


# --- parameter parsers: raw config value -> value, or TypeError/ValueError ---

def _number(raw) -> float:
    if isinstance(raw, bool):   # YAML true/false, a subclass of int
        raise TypeError("must be a number, not true or false")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _integer(raw) -> int:
    if isinstance(raw, bool):
        raise TypeError("must be a whole number, not true or false")
    value = int(raw)   # int("12") loads; int(2.7) would truncate
    if not isinstance(raw, str) and value != raw:
        raise ValueError("must be a whole number")
    return value


def _count(raw) -> int:
    value = _integer(raw)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _penalty(raw) -> Optional[float]:
    if raw is None:
        return None   # selects the BIC default
    value = _number(raw)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _quote(raw) -> str:
    """``raw``'s repr, one level deep: YAML aliases let a short rule file
    hold a value whose repr or str is exponentially long."""
    short = reprlib.Repr()
    short.maxlevel = 1
    return short.repr(raw)


def _text(raw) -> str:
    if not isinstance(raw, (str, int, float)):
        raise TypeError("must be a string or a number")
    return str(raw)


def _region(raw) -> Region:
    return Region(tuple((_number(p[0]), _number(p[1])) for p in raw))


def _boxes(raw) -> List[BoundingBox]:
    if not isinstance(raw, list):
        raise TypeError("must be a list of [x, y, w, h] boxes")
    return [BoundingBox(*[_number(v) for v in box]) for box in raw]


REQUIRED = object()   # a param default: the rule file must give the param


class KindSpec(NamedTuple):
    """One rule kind: its default labels, ``{param: (parser, default or
    REQUIRED)}``, and the pair relations it reads on the edges between
    its two labels (a kind that reads any needs two different labels)."""
    labels: Tuple[str, ...]
    params: Dict[str, Tuple[Callable, object]]
    relations: FrozenSet[str] = frozenset()


_RIDE = {"min_speed_px": (_number, 2.0), "min_frames": (_count, 10),
         "max_gap_frames": (_count, 6)}
_ARM = {"trend_epsilon": (_number, 0.1), "min_phase_frames": (_count, 5)}
_RIDE_RELATIONS = frozenset({"topology", "direction"})

KINDS = {
    RuleKind.FALL_DETECTION: KindSpec(("person",), {
        "no_motion_speed_px": (_number, 6.0),   # the "no motion" speed threshold
        "still_frames": (_count, 8),
        "gap_frames": (_count, 45),
        "min_aspect_jump": (_number, 1.2),      # post/pre aspect-ratio mean factor
        "penalty": (_penalty, None),
    }),
    RuleKind.HORSE_RIDE: KindSpec(("person", "horse"), _RIDE, _RIDE_RELATIONS),
    RuleKind.BIKE_RIDE: KindSpec(("person", "bike"), _RIDE, _RIDE_RELATIONS),
    RuleKind.HANDSHAKE: KindSpec(("person",), _ARM),
    RuleKind.PUNCH: KindSpec(("person",), {**_ARM, "contact_px": (_number, 30.0)}),
    RuleKind.HIGH_VOLUME_TRAFFIC: KindSpec(("car",), {
        "region": (_region, REQUIRED), "count_threshold": (_number, REQUIRED)}),
    RuleKind.PARKING_SLOT_STATUS: KindSpec(("car",), {
        "slots": (_boxes, REQUIRED), "overlap_threshold": (_number, REQUIRED),
        "max_gap_frames": (_count, 6), "min_frames": (_count, 3)}),
    RuleKind.JAYWALKING: KindSpec(("person",), {
        "region": (_region, REQUIRED), "min_frames": (_count, 3),
        "max_gap_frames": (_count, 6)}),
    RuleKind.ATTRIBUTE_QUERY: KindSpec(("car",), {
        "attribute": (_text, REQUIRED), "value": (_text, REQUIRED)}),
}


@dataclass
class RuleSet:
    rules: Tuple[EventRule, ...]

    def relation_needs(self) -> RelationNeeds:
        """``{(rider_label, mount_label): relations}`` over the rules that
        read pair relations; rules on the same label pair merge."""
        needs: Dict[Tuple[str, str], FrozenSet[str]] = {}
        for r in self.rules:
            rels = KINDS[r.kind].relations
            if rels:
                needs[r.object_labels] = needs.get(r.object_labels, frozenset()) | rels
        return relation_needs(needs)

    def window_ms(self, override: Optional[int] = None) -> int:
        if override is not None:
            if override <= 0:
                raise NonPositiveLength(
                    f"window length must be positive, got {override}")
            return override
        if not self.rules:
            raise InvalidRuleConfig(
                "a rule set with no rules needs an explicit window length")
        lengths = {r.window_ms for r in self.rules}
        if len(lengths) > 1:
            raise InvalidRuleConfig(
                f"rules disagree on window length {_quote(sorted(lengths))}; "
                "pass an explicit override")
        return next(iter(lengths))


_RULE_KEYS = frozenset({"id", "kind", "window_ms", "params", "labels"})


def register_rules(configs: Sequence[dict]) -> RuleSet:
    """Validate declarative rule configs into a RuleSet."""
    rules = []
    seen_ids = set()
    for cfg in configs:
        if not isinstance(cfg, dict):
            raise InvalidRuleConfig(
                f"rule config must be a mapping, got {_quote(cfg)}")
        name = cfg.get("kind")
        try:
            kind = RuleKind(name if isinstance(name, str) else None)
        except ValueError as exc:
            raise InvalidRuleConfig(
                f"bad or missing rule kind: {_quote(name)}") from exc
        spec = KINDS[kind]
        rule_id = cfg.get("id")
        if rule_id is None or rule_id == "" or isinstance(rule_id, bool):
            raise InvalidRuleConfig(f"rule needs an id, not {_quote(rule_id)}")
        rule_id = _parse(_text, rule_id, "id", "?")
        if rule_id in seen_ids:
            raise InvalidRuleConfig(f"duplicate rule id {rule_id!r}")
        seen_ids.add(rule_id)
        unread = sorted(map(str, set(cfg) - _RULE_KEYS))
        if unread:
            raise InvalidRuleConfig(
                f"rule {rule_id}: unknown key(s) {unread}; a rule holds only "
                f"{sorted(_RULE_KEYS)}, and params go under 'params'")
        window_ms = _parse(_integer, cfg.get("window_ms", 10_000), "window_ms", rule_id)
        if window_ms <= 0:
            raise InvalidRuleConfig(f"rule {rule_id}: window_ms must be positive")
        given = cfg.get("params")
        if given is None:
            given = {}
        elif not isinstance(given, dict):
            raise InvalidRuleConfig(f"rule {rule_id}: params must be a mapping")
        unknown = sorted(map(str, set(given) - set(spec.params)))
        if unknown:
            raise InvalidRuleConfig(
                f"rule {rule_id}: {kind.value} has no param(s) {unknown}")
        params = {}
        for key, (parse, default) in spec.params.items():
            raw = given.get(key, default)
            if raw is REQUIRED or (raw is None and default is REQUIRED):
                raise InvalidRuleConfig(f"rule {rule_id}: missing param {key!r}")
            params[key] = _parse(parse, raw, key, rule_id)
        labels = cfg.get("labels", spec.labels)
        if not (isinstance(labels, (list, tuple)) and labels
                and all(isinstance(label, str) for label in labels)):
            raise InvalidRuleConfig(
                f"rule {rule_id}: labels must be a non-empty list of names")
        labels = tuple(labels)
        if spec.relations and (len(labels) != 2 or labels[0] == labels[1]):
            raise InvalidRuleConfig(
                f"rule {rule_id}: {kind.value} needs two different labels, "
                "rider and mount")
        rules.append(EventRule(rule_id=rule_id, kind=kind, object_labels=labels,
                               window_ms=window_ms, params=params))
    return RuleSet(rules=tuple(rules))


def _parse(parse: Callable, raw, key: str, rule_id: str):
    try:
        return parse(raw)
    except (TypeError, ValueError, LookupError, OverflowError,
            InvalidRegion) as exc:
        raise InvalidRuleConfig(
            f"rule {rule_id}: bad {key!r} = {_quote(raw)}: {exc}") from exc


# --- shared helpers ---

def _note(tag: VekgTag, rule: EventRule, i0: Optional[int], i1: Optional[int],
          participants: Tuple[int, ...], evidence: dict) -> MatchNotification:
    """The rule's notification over frame ordinals [i0, i1], in stream
    time: from frame i0's timestamp to one median frame period past frame
    i1, cut at the window's end.  ``i0 = i1 = None`` spans the window."""
    if i0 is None:
        interval = Interval(tag.start, tag.end)
    else:
        ts = tag.timestamps
        interval = Interval(ts[i0], min(ts[i1] + tag.frame_period, tag.end))
    return MatchNotification(rule_id=rule.rule_id, kind=rule.kind,
                             interval=interval, participants=participants,
                             evidence=evidence)


def _runs_with_gap(flags: Sequence, max_gap: int, min_len: int):
    """Maximal runs of True, bridging runs of None (unknown) up to max_gap.

    ``flags[i]`` is True / False / None.  A run ends on False, on an
    unknown gap longer than max_gap, or at the end of the sequence.
    Yields (start, last) inclusive frame ordinals; the run's length
    counts bridged frames.
    """
    start = None
    last_true = None
    for i, f in enumerate(flags):
        if f is True:
            if start is None:
                start = i
            last_true = i
        elif f is False or (f is None and start is not None
                            and i - last_true > max_gap):
            if start is not None and last_true - start + 1 >= min_len:
                yield (start, last_true)
            start = None
            last_true = None
    if start is not None and last_true - start + 1 >= min_len:
        yield (start, last_true)


def _tracks_with_label(tag: VekgTag, labels: Sequence[str]) -> List[int]:
    by_label = tag.tracks_by_label
    return sorted(t for label in set(labels) for t in by_label.get(label, ()))


def _region_flags(tag: VekgTag, tracks: Sequence[int],
                  region: Region) -> List[List[Optional[bool]]]:
    """Per track, per frame: is its centroid strictly inside ``region``
    (None where the track is absent)?  One ``inside_region`` call tests
    the present boxes of all the tracks over the window."""
    frames = [tag.nodes[track].frames for track in tracks]
    inside = iter(geometry.inside_region(
        [obj.bbox for objs in frames for obj in objs if obj is not None], region))
    return [[None if obj is None else next(inside) for obj in objs]
            for objs in frames]


def _still_spans(motion: Sequence, speed: float,
                 gap: int) -> List[Tuple[int, int]]:
    """Runs of frames moving at most ``speed``, bridging up to ``gap``
    moving, NaN or absent frames: (start, last) inclusive ordinals."""
    return list(_runs_with_gap(
        [v is not X and v <= speed or None for v in motion], gap, 1))


# --- evaluators ---

def eval_fall(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Abrupt aspect-ratio change followed by a no-motion span."""
    p = rule.params
    gap = p["gap_frames"]
    jump = p["min_aspect_jump"]
    out = []
    for track in _tracks_with_label(tag, rule.object_labels):
        positions = tag.edges[(track, track)][POSITION]
        # change-point detection on the gap-compressed ratio series, so a
        # dropped detection right at the transition cannot hide the jump
        idx = [i for i, b in enumerate(positions) if b is not X]
        seg = [positions[i].w / positions[i].h for i in idx]
        if len(seg) < 4:
            continue
        cps = pelt_changepoints(seg, penalty=p["penalty"])
        still = _still_spans(motion_series(tag, track),
                             p["no_motion_speed_px"], gap)
        bounds = [0] + cps + [len(seg)]
        for ci, cp in enumerate(cps):
            before = seg[bounds[ci]:cp]
            after = seg[cp:bounds[ci + 2]]
            # the ratio must jump up by a clear margin (person goes
            # horizontal); epsilon-level increases are detection noise.
            # jump * sum / n, not jump * mean: the two round and overflow
            # differently
            sum_before = sum(before)
            mean_after = sum(after) / len(after)
            if mean_after <= jump * sum_before / len(before):
                continue
            cp_abs = idx[cp]
            for s, e in still:
                if e - s + 1 >= p["still_frames"] and cp_abs <= s <= cp_abs + gap:
                    out.append(_note(tag, rule, cp_abs, e, (track,), {
                        "changepoint_frame": cp_abs,
                        "ratio_before": round(sum_before / len(before), 3),
                        "ratio_after": round(mean_after, 3),
                        "still_frames": e - s + 1}))
                    break
    return out


def _velocity(positions: Sequence, i: int, max_back: int = 6):
    """Centroid displacement vector from the nearest earlier present frame."""
    if positions[i] is X:
        return None
    for back in range(1, max_back + 1):
        j = i - back
        if j < 0:
            return None
        if positions[j] is not X:
            cx, cy = positions[i].centroid
            px, py = positions[j].centroid
            return ((cx - px) / back, (cy - py) / back)
    return None


# the interned topology sets that hold OVERLAP: a frozenset caches its own
# hash, so testing a slot against these hashes no Enum member
_OVERLAP_TOPOLOGIES = frozenset(
    s for s in geometry.TOPOLOGY_SETS if SpatialRelationClass.OVERLAP in s)
_ABOVE = DirectionClass.ABOVE   # bound once: Enum attribute lookups are slow


def eval_ride(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Rider overlapping and above a mount, both moving the same way; the
    rule's two labels name the rider and the mount.  A track's velocity at
    a frame is computed once per window, shared by the ride rules, and
    only where some pair of it overlaps and is above.
    """
    p = rule.params
    min_speed = p["min_speed_px"]
    rider_label, mount_label = rule.object_labels
    persons = _tracks_with_label(tag, (rider_label,))
    mounts = _tracks_with_label(tag, (mount_label,))
    velocities = tag.facts.setdefault("velocity", {})   # {track: {frame: velocity}}
    out = []
    for person in persons:
        ppos = tag.edges[(person, person)][POSITION]
        pvel = velocities.setdefault(person, {})
        for mount in mounts:
            edge = tag.edges[(person, mount)]
            topo, direc = edge["topology"], edge["direction"]
            if _ABOVE not in direc or _OVERLAP_TOPOLOGIES.isdisjoint(topo):
                continue   # no frame passes, so the flags hold no True
            above = [t in _OVERLAP_TOPOLOGIES and d is _ABOVE
                     for t, d in zip(topo, direc)]
            mpos = tag.edges[(mount, mount)][POSITION]
            mvel = velocities.setdefault(mount, {})
            flags: List[Optional[bool]] = []
            for i, ok in enumerate(above):
                if not ok:
                    flags.append(None if topo[i] is X else False)
                    continue
                if i not in pvel:
                    pvel[i] = _velocity(ppos, i)
                if i not in mvel:
                    mvel[i] = _velocity(mpos, i)
                vp, vm = pvel[i], mvel[i]
                if vp is None or vm is None:
                    flags.append(None)
                    continue
                sp = math.hypot(*vp)
                sm = math.hypot(*vm)
                dot = vp[0] * vm[0] + vp[1] * vm[1]
                flags.append(sp > min_speed and sm > min_speed and dot > 0)
            for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                       p["min_frames"]):
                out.append(_note(tag, rule, s, e, (person, mount),
                                 {"frames": e - s + 1}))
    return out


# keypoint segment endpoints for the arm-raise angle and wrist reach
_SIDE_KEYS = {
    "right": ("right_shoulder", "right_wrist", "right_hip"),
    "left": ("left_shoulder", "left_wrist", "left_hip"),
}


def _arm_series(tag: VekgTag, tracks: Sequence[int]) -> Dict[int, Dict[str, tuple]]:
    """Per track, ``{side: (wrist series, arm-angle series)}`` for each arm
    side whose shoulder, wrist and hip appear together in some frame, so
    arm presence is decided once per track and side.  The series are built
    once per window and shared by handshake and punch.

    The angle is between the arm (shoulder->wrist) and the body line
    (shoulder->hip): 0 with the arm hanging down, ~90 when horizontal.
    """
    arms: Dict[int, Dict[str, tuple]] = tag.facts.setdefault("arms", {})
    for track in tracks:
        if track in arms:
            continue
        kps = [obj.keypoints if obj is not None else None
               for obj in tag.nodes[track].frames]
        arms[track] = sides = {}
        for side, (shoulder, wrist, hip) in _SIDE_KEYS.items():
            whole = [kp and shoulder in kp and wrist in kp and hip in kp
                     for kp in kps]
            if not any(whole):
                continue
            wrists, angles = [], []
            for kp, arm in zip(kps, whole):
                wrists.append(kp[wrist] if kp and wrist in kp else X)
                angle = X
                if arm:
                    try:
                        angle = geometry.segment_angle((kp[shoulder], kp[wrist]),
                                                       (kp[shoulder], kp[hip]))
                    except geometry.ZeroLengthSegment:
                        pass
                angles.append(angle)
            sides[side] = (wrists, angles)
    return arms


def _two_phase(beta: list, theta_list: List[list], epsilon: float,
               min_phase: int) -> Optional[Tuple[int, int, int]]:
    """Find a raise/approach phase followed by a retract phase.

    Split at the wrist-distance minimum; both phases must show the
    required trends on every theta series and on beta.  Returns frame
    ordinals (start, split, end) or None.
    """
    valid = [i for i, v in enumerate(beta) if v is not X]
    if not valid or len(valid) < 2 * min_phase:
        return None
    i0, i1 = valid[0], valid[-1]
    m = min(valid, key=lambda i: beta[i])
    if m - i0 < min_phase or i1 - m < min_phase:
        return None
    p1 = Interval(i0, m + 1)
    p2 = Interval(m, i1 + 1)
    if trend(beta, p1, epsilon) is not Trend.DECREASING:
        return None
    if trend(beta, p2, epsilon) is not Trend.INCREASING:
        return None
    for theta in theta_list:
        if trend(theta, p1, epsilon) is not Trend.INCREASING:
            return None
        if trend(theta, p2, epsilon) is not Trend.DECREASING:
            return None
    return (i0, m, i1)


def eval_handshake(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Both arms raise while wrists converge, then the reverse.  Per side,
    only pairs armed on both are searched: C(n,2) - C(armed,2) skipped."""
    p = rule.params
    eps = p["trend_epsilon"]
    min_phase = p["min_phase_frames"]
    persons = _tracks_with_label(tag, rule.object_labels)
    arms = _arm_series(tag, persons)
    skipped = 0
    out = []
    for side in _SIDE_KEYS:
        armed = [(t, arms[t][side]) for t in persons if side in arms[t]]
        skipped += math.comb(len(persons), 2) - math.comb(len(armed), 2)
        for ai, (u, (wu, t1)) in enumerate(armed):
            for v, (wv, t2) in armed[ai + 1:]:
                beta = [geometry.point_distance(a, b)
                        if a is not X and b is not X else X
                        for a, b in zip(wu, wv)]
                hit = _two_phase(beta, [t1, t2], eps, min_phase)
                if hit is None:
                    continue
                i0, m, i1 = hit
                # acute-angle constraint over the matched span
                vals = [t for t in t1[i0:i1 + 1] + t2[i0:i1 + 1] if t is not X]
                if not vals or not all(0.0 < t < 90.0 for t in vals):
                    continue
                out.append(_note(tag, rule, i0, i1, (u, v), {
                    "side": side, "min_wrist_px": round(beta[m], 2)}))
    if skipped:
        log.info("handshake %s: skipped %d pair-side(s) missing keypoints",
                 rule.rule_id, skipped)
    return out


def eval_punch(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """One arm raises while the wrist closes on the other's shoulder.  Per
    side, only armed attackers are searched: (n - armed)(n - 1) skipped."""
    p = rule.params
    eps = p["trend_epsilon"]
    min_phase = p["min_phase_frames"]
    contact = p["contact_px"]
    persons = _tracks_with_label(tag, rule.object_labels)
    arms = _arm_series(tag, persons)
    shoulders: Dict[int, list] = {}   # victim -> [(right, left) per frame]
    skipped = 0
    out = []
    for side in _SIDE_KEYS:
        armed = [(t, arms[t][side]) for t in persons if side in arms[t]]
        skipped += (len(persons) - len(armed)) * (len(persons) - 1)
        for attacker, (wa, theta) in armed:
            for victim in persons:
                if victim == attacker:
                    continue
                if victim not in shoulders:
                    shoulders[victim] = [
                        (X, X) if obj is None or not obj.keypoints else
                        (obj.keypoints.get("right_shoulder", X),
                         obj.keypoints.get("left_shoulder", X))
                        for obj in tag.nodes[victim].frames]
                beta = []
                for w, (r, l) in zip(wa, shoulders[victim]):
                    if w is X or (r is X and l is X):
                        beta.append(X)
                        continue
                    ds = [geometry.point_distance(w, s)
                          for s in (r, l) if s is not X]
                    beta.append(min(ds))
                hit = _two_phase(beta, [theta], eps, min_phase)
                if hit is None:
                    continue
                i0, m, i1 = hit
                if beta[m] > contact:
                    continue   # never got near the shoulder: not a punch
                out.append(_note(tag, rule, i0, i1, (attacker, victim), {
                    "side": side, "min_reach_px": round(beta[m], 2)}))
    if skipped:
        log.info("punch %s: skipped %d pair-side(s) whose attacker lacks "
                 "keypoints", rule.rule_id, skipped)
    return out


def eval_traffic(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Average in-region object count over the window above a threshold."""
    p = rule.params
    region: Region = p["region"]
    threshold = p["count_threshold"]
    if tag.frame_count == 0:
        return []
    tracks = _tracks_with_label(tag, rule.object_labels)
    flags = _region_flags(tag, tracks, region)
    mean = sum(f.count(True) for f in flags) / tag.frame_count
    if mean <= threshold:
        return []
    seen = tuple(t for t, f in zip(tracks, flags) if True in f)
    return [_note(tag, rule, None, None, seen,
                  {"mean_count": round(mean, 3), "threshold": threshold})]


def eval_parking(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Per-slot occupancy spans from the overlap-ratio test."""
    p = rule.params
    slots: List[BoundingBox] = p["slots"]
    threshold = p["overlap_threshold"]
    tracks = _tracks_with_label(tag, rule.object_labels)
    out = []
    nframes = tag.frame_count
    for slot_idx, slot in enumerate(slots):
        flags: List[Optional[bool]] = []
        occupant: List[Optional[int]] = []
        cur: Optional[int] = None
        for i in range(nframes):
            best = None
            for track in tracks:
                obj = tag.nodes[track].frames[i]
                if obj is None:
                    continue
                ratio = geometry.overlap_ratio(slot, obj.bbox)
                if ratio > threshold and (best is None or ratio > best[1]):
                    best = (track, ratio)
            if best is not None:
                cur = best[0]
                flags.append(True)
                occupant.append(best[0])
            elif cur is not None and tag.nodes[cur].frames[i] is None:
                # previous occupant dropped out of this frame: unknown
                flags.append(None)
                occupant.append(None)
            else:
                cur = None
                flags.append(False)
                occupant.append(None)
        for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                   p["min_frames"]):
            occ = [t for t in occupant[s:e + 1] if t is not None]
            track = max(set(occ), key=occ.count)
            out.append(_note(tag, rule, s, e, (track,), {
                "slot": slot_idx, "occupancy": round((e - s + 1) / nframes, 3)}))
    return out


def eval_jaywalk(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Maximal spans of a person's centroid inside the configured region."""
    p = rule.params
    region: Region = p["region"]
    out = []
    tracks = _tracks_with_label(tag, rule.object_labels)
    for track, flags in zip(tracks, _region_flags(tag, tracks, region)):
        for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                   p["min_frames"]):
            out.append(_note(tag, rule, s, e, (track,), {"frames": e - s + 1}))
    return out


def eval_attribute(tag: VekgTag, rule: EventRule,
                   seen_tracks: Optional[Set[int]] = None) -> List[MatchNotification]:
    """Stateless attribute equality; one notification per matching track.

    ``seen_tracks`` carries already-notified tracks across windows so a
    track only fires on its first appearance.
    """
    key = rule.params["attribute"]
    value = rule.params["value"].lower()
    out = []
    for track in _tracks_with_label(tag, rule.object_labels):
        if seen_tracks is not None and track in seen_tracks:
            continue
        frames = tag.nodes[track].frames
        first = None
        last = None
        for i, obj in enumerate(frames):
            if obj is None:
                continue
            if obj.attributes.get(key, "").lower() == value:
                if first is None:
                    first = i
                last = i
        if first is None:
            continue
        if seen_tracks is not None:
            seen_tracks.add(track)
        out.append(_note(tag, rule, first, last, (track,), {key: value}))
    return out


_EVALUATORS = {
    RuleKind.FALL_DETECTION: eval_fall,
    RuleKind.HORSE_RIDE: eval_ride,
    RuleKind.BIKE_RIDE: eval_ride,
    RuleKind.HANDSHAKE: eval_handshake,
    RuleKind.PUNCH: eval_punch,
    RuleKind.HIGH_VOLUME_TRAFFIC: eval_traffic,
    RuleKind.PARKING_SLOT_STATUS: eval_parking,
    RuleKind.JAYWALKING: eval_jaywalk,
    RuleKind.ATTRIBUTE_QUERY: eval_attribute,
}

# the arguments a kind's evaluator takes beyond (tag, rule), made once per
# rule and Matcher: an attribute query's seen-set
_BOUND_ARGS = {
    RuleKind.ATTRIBUTE_QUERY: lambda: {"seen_tracks": set()},
}


class Matcher:
    """Applies a RuleSet window by window, in deterministic order."""

    def __init__(self, ruleset: RuleSet):
        self._searches = [
            partial(_EVALUATORS[r.kind], rule=r, **_BOUND_ARGS.get(r.kind, dict)())
            for r in ruleset.rules]

    def match(self, tag: VekgTag) -> List[MatchNotification]:
        notifications: List[MatchNotification] = []
        for search in self._searches:
            notifications += search(tag)
        notifications.sort(key=lambda n: (n.interval.start, n.rule_id,
                                          n.interval.end, n.participants))
        return notifications
