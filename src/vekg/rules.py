"""The nine declarative event-pattern rules and the rule registry.

Stateful rules evaluate over an aggregated window graph (VekgTag);
the attribute query is stateless and fires once per matching track.
Evaluators are pure: distinct rules may score the same tag in
parallel, notifications are merged deterministically afterwards.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import geometry
from .errors import InvalidRuleConfig
from .geometry import BoundingBox, Region, SpatialRelationClass, DirectionClass
from .graph import RelationNeeds, relation_needs
from .tag import POSITION, VekgTag, X, edge_series, motion_series
from .temporal import Interval, Trend, no_motion_span, pelt_changepoints, trend

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


# --- parameter defaults per rule kind ---

DEFAULTS = {
    RuleKind.FALL_DETECTION: {
        "no_motion_speed_px": 6.0,   # the "no motion" speed threshold
        "still_frames": 8,
        "gap_frames": 45,
        "min_aspect_jump": 1.2,      # post/pre aspect-ratio mean factor
        "penalty": None,             # None -> BIC default
    },
    RuleKind.HORSE_RIDE: {
        "min_speed_px": 2.0, "min_frames": 10, "max_gap_frames": 6,
    },
    RuleKind.BIKE_RIDE: {
        "min_speed_px": 2.0, "min_frames": 10, "max_gap_frames": 6,
    },
    RuleKind.HANDSHAKE: {
        "trend_epsilon": 0.1, "min_phase_frames": 5, "gap_frames": 5,
    },
    RuleKind.PUNCH: {
        "trend_epsilon": 0.1, "min_phase_frames": 5, "gap_frames": 5,
        "contact_px": 30.0,
    },
    RuleKind.HIGH_VOLUME_TRAFFIC: {},
    RuleKind.PARKING_SLOT_STATUS: {"max_gap_frames": 6, "min_frames": 3},
    RuleKind.JAYWALKING: {"min_frames": 3, "max_gap_frames": 6},
    RuleKind.ATTRIBUTE_QUERY: {},
}

REQUIRED_PARAMS = {
    RuleKind.HIGH_VOLUME_TRAFFIC: ("region", "count_threshold"),
    RuleKind.PARKING_SLOT_STATUS: ("slots", "overlap_threshold"),
    RuleKind.JAYWALKING: ("region",),
    RuleKind.ATTRIBUTE_QUERY: ("attribute", "value"),
}

# required params that are numbers; numeric defaults give their own type
REQUIRED_NUMERIC = {"count_threshold": float, "overlap_threshold": float}

DEFAULT_LABELS = {
    RuleKind.FALL_DETECTION: ("person",),
    RuleKind.HORSE_RIDE: ("person", "horse"),
    RuleKind.BIKE_RIDE: ("person", "bike"),
    RuleKind.HANDSHAKE: ("person",),
    RuleKind.PUNCH: ("person",),
    RuleKind.HIGH_VOLUME_TRAFFIC: ("car",),
    RuleKind.PARKING_SLOT_STATUS: ("car",),
    RuleKind.JAYWALKING: ("person",),
    RuleKind.ATTRIBUTE_QUERY: ("car",),
}

# pair relations each kind reads on its (rider, mount) label pair's edges
RELATION_NEEDS = {
    RuleKind.HORSE_RIDE: frozenset({"topology", "direction"}),
    RuleKind.BIKE_RIDE: frozenset({"topology", "direction"}),
}


@dataclass
class RuleSet:
    rules: Tuple[EventRule, ...]

    def relation_needs(self) -> RelationNeeds:
        """``{(rider_label, mount_label): relations}`` over the rules that
        read pair relations; rules on the same label pair merge."""
        needs: Dict[Tuple[str, str], FrozenSet[str]] = {}
        for r in self.rules:
            if r.kind in RELATION_NEEDS:
                key = r.object_labels
                needs[key] = needs.get(key, frozenset()) | RELATION_NEEDS[r.kind]
        return relation_needs(needs)

    def window_ms(self, override: Optional[int] = None) -> int:
        if override is not None:
            return override
        if not self.rules:
            raise InvalidRuleConfig(
                "a rule set with no rules needs an explicit window length")
        lengths = {r.window_ms for r in self.rules}
        if len(lengths) > 1:
            raise InvalidRuleConfig(
                f"rules disagree on window length {sorted(lengths)}; "
                "pass an explicit override")
        return next(iter(lengths))


def register_rules(configs: Sequence[dict]) -> RuleSet:
    """Validate declarative rule configs into a RuleSet."""
    rules = []
    seen_ids = set()
    for cfg in configs:
        if not isinstance(cfg, dict):
            raise InvalidRuleConfig(f"rule config must be a mapping, got {cfg!r}")
        try:
            kind = RuleKind(cfg["kind"])
        except (KeyError, ValueError, TypeError) as exc:
            raise InvalidRuleConfig(f"bad or missing rule kind: {cfg.get('kind')!r}") from exc
        rule_id = str(cfg.get("id") or cfg.get("rule_id") or "")
        if not rule_id:
            raise InvalidRuleConfig("rule needs an id")
        if rule_id in seen_ids:
            raise InvalidRuleConfig(f"duplicate rule id {rule_id!r}")
        seen_ids.add(rule_id)
        window_ms = _as_number(cfg.get("window_ms", 10_000), int, "window_ms", rule_id)
        if window_ms <= 0:
            raise InvalidRuleConfig(f"rule {rule_id}: window_ms must be positive")
        given = cfg.get("params") or {}
        if not isinstance(given, dict):
            raise InvalidRuleConfig(f"rule {rule_id}: params must be a mapping")
        params = dict(DEFAULTS[kind])
        params.update(given)
        for key, default in DEFAULTS[kind].items():
            if default is None and params[key] is None:
                continue   # penalty: None selects the BIC default
            params[key] = _as_number(params[key], int if isinstance(default, int)
                                     else float, key, rule_id)
        if params.get("penalty") is not None and not params["penalty"] >= 0:
            raise InvalidRuleConfig(f"rule {rule_id}: penalty must be >= 0")
        for key in REQUIRED_PARAMS.get(kind, ()):
            if params.get(key) is None:
                raise InvalidRuleConfig(f"rule {rule_id}: missing param {key!r}")
            if key in REQUIRED_NUMERIC:
                params[key] = _as_number(params[key], REQUIRED_NUMERIC[key],
                                         key, rule_id)
        if "region" in params:
            params["region"] = _as_region(params["region"], rule_id)
        if "slots" in params:
            if not isinstance(params["slots"], list):
                raise InvalidRuleConfig(f"rule {rule_id}: slots must be a list of boxes")
            params["slots"] = [_as_box(s, rule_id) for s in params["slots"]]
        labels = cfg.get("labels") or DEFAULT_LABELS[kind]
        if not (isinstance(labels, (list, tuple))
                and all(isinstance(label, str) for label in labels)):
            raise InvalidRuleConfig(f"rule {rule_id}: labels must be a list of names")
        labels = tuple(labels)
        if kind in (RuleKind.HORSE_RIDE, RuleKind.BIKE_RIDE) \
                and (len(labels) != 2 or labels[0] == labels[1]):
            raise InvalidRuleConfig(
                f"rule {rule_id}: a ride needs two different labels, rider and mount")
        rules.append(EventRule(rule_id=rule_id, kind=kind, object_labels=labels,
                               window_ms=window_ms, params=params))
    return RuleSet(rules=tuple(rules))


def _as_number(raw, cast, key: str, rule_id: str):
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidRuleConfig(
            f"rule {rule_id}: param {key!r} must be a number, got {raw!r}") from exc


def _as_region(raw, rule_id: str) -> Region:
    if isinstance(raw, Region):
        return raw
    try:
        return Region(tuple((float(p[0]), float(p[1])) for p in raw))
    except Exception as exc:
        raise InvalidRuleConfig(f"rule {rule_id}: bad region: {exc}") from exc


def _as_box(raw, rule_id: str) -> BoundingBox:
    if isinstance(raw, BoundingBox):
        return raw
    try:
        return BoundingBox(*[float(v) for v in raw])
    except Exception as exc:
        raise InvalidRuleConfig(f"rule {rule_id}: bad box: {exc}") from exc


# --- shared helpers ---

def _frame_period(tag: VekgTag) -> int:
    ts = tag.timestamps
    if len(ts) >= 2:
        diffs = sorted(ts[i + 1] - ts[i] for i in range(len(ts) - 1))
        return diffs[len(diffs) // 2]
    return 1


def _interval_ms(tag: VekgTag, i0: int, i1: int) -> Interval:
    """Stream-time interval covering frame ordinals [i0, i1]."""
    period = _frame_period(tag)
    return Interval(tag.timestamps[i0],
                    min(tag.timestamps[i1] + period, tag.end))


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
    labelset = set(labels)
    return sorted(t for t, n in tag.nodes.items() if n.label in labelset)


# --- evaluators ---

def eval_fall(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Abrupt aspect-ratio change followed by a no-motion span."""
    p = rule.params
    gap = p["gap_frames"]
    jump = p["min_aspect_jump"]
    out = []
    for track in _tracks_with_label(tag, rule.object_labels):
        positions = tag.edges[(track, track)][POSITION]
        ratio = [b.w / b.h if b is not X else X for b in positions]
        # change-point detection on the gap-compressed ratio series, so a
        # dropped detection right at the transition cannot hide the jump
        idx = [i for i, v in enumerate(ratio) if v is not X]
        seg = [float(ratio[i]) for i in idx]
        if len(seg) < 4:
            continue
        cps = pelt_changepoints(seg, penalty=p.get("penalty"))
        motion = motion_series(tag, track)
        still = _merge_spans(
            no_motion_span(motion, p["no_motion_speed_px"], 1), gap)
        bounds = [0] + cps + [len(seg)]
        for ci, cp in enumerate(cps):
            before = seg[bounds[ci]:cp]
            after = seg[cp:bounds[ci + 2]]
            # the ratio must jump up by a clear margin (person goes
            # horizontal); epsilon-level increases are detection noise
            if sum(after) / len(after) <= jump * sum(before) / len(before):
                continue
            cp_abs = idx[cp]
            span = next((s for s in still
                         if s.length >= p["still_frames"]
                         and cp_abs <= s.start <= cp_abs + gap),
                        None)
            if span is None:
                continue
            out.append(MatchNotification(
                rule_id=rule.rule_id, kind=rule.kind,
                interval=_interval_ms(tag, cp_abs, span.end - 1),
                participants=(track,),
                evidence={"changepoint_frame": cp_abs,
                          "ratio_before": round(sum(before) / len(before), 3),
                          "ratio_after": round(sum(after) / len(after), 3),
                          "still_frames": span.length}))
    return out


def _merge_spans(spans, max_gap: int):
    """Join consecutive intervals separated by at most max_gap slots."""
    merged = []
    for s in spans:
        if merged and s.start - merged[-1].end <= max_gap:
            merged[-1] = Interval(merged[-1].start, s.end)
        else:
            merged.append(s)
    return merged


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


def eval_ride(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Rider overlapping and above a mount, both moving the same way; the
    rule's two labels name the rider and the mount."""
    p = rule.params
    min_speed = p["min_speed_px"]
    rider_label, mount_label = rule.object_labels
    persons = _tracks_with_label(tag, (rider_label,))
    mounts = _tracks_with_label(tag, (mount_label,))
    out = []
    for person in persons:
        ppos = tag.edges[(person, person)][POSITION]
        for mount in mounts:
            mpos = tag.edges[(mount, mount)][POSITION]
            topo = edge_series(tag, person, mount, "topology")
            direc = edge_series(tag, person, mount, "direction")
            flags: List[Optional[bool]] = []
            for i in range(tag.frame_count):
                if topo[i] is X:
                    flags.append(None)
                    continue
                if topo[i] not in _OVERLAP_TOPOLOGIES \
                        or direc[i] is not DirectionClass.ABOVE:
                    flags.append(False)
                    continue
                vp = _velocity(ppos, i)
                vm = _velocity(mpos, i)
                if vp is None or vm is None:
                    flags.append(None)
                    continue
                sp = (vp[0] ** 2 + vp[1] ** 2) ** 0.5
                sm = (vm[0] ** 2 + vm[1] ** 2) ** 0.5
                dot = vp[0] * vm[0] + vp[1] * vm[1]
                flags.append(sp > min_speed and sm > min_speed and dot > 0)
            for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                       p["min_frames"]):
                out.append(MatchNotification(
                    rule_id=rule.rule_id, kind=rule.kind,
                    interval=_interval_ms(tag, s, e),
                    participants=(person, mount),
                    evidence={"frames": e - s + 1}))
    return out


# keypoint segment endpoints for the arm-raise angle and wrist reach
_SIDE_KEYS = {
    "right": ("right_shoulder", "right_wrist", "right_hip"),
    "left": ("left_shoulder", "left_wrist", "left_hip"),
}


def _arm_angle(obj, side: str):
    """Angle between the arm (shoulder->wrist) and the body line
    (shoulder->hip); 0 with the arm hanging down, ~90 when horizontal."""
    shoulder, wrist, hip = _SIDE_KEYS[side]
    kp = obj.keypoints or {}
    if shoulder not in kp or wrist not in kp or hip not in kp:
        return None
    try:
        return geometry.segment_angle((kp[shoulder], kp[wrist]),
                                      (kp[shoulder], kp[hip]))
    except geometry.ZeroLengthSegment:
        return None


def _keypoint_series(tag: VekgTag, track: int, name: str) -> list:
    frames = tag.nodes[track].frames
    out = []
    for obj in frames:
        if obj is None or not obj.keypoints or name not in obj.keypoints:
            out.append(X)
        else:
            out.append(obj.keypoints[name])
    return out


def _angle_series(tag: VekgTag, track: int, side: str) -> list:
    out = []
    for obj in tag.nodes[track].frames:
        if obj is None:
            out.append(X)
            continue
        ang = _arm_angle(obj, side)
        out.append(X if ang is None else ang)
    return out


def _has_side_keypoints(tag: VekgTag, track: int, side: str) -> bool:
    names = _SIDE_KEYS[side]
    return any(obj is not None and obj.keypoints
               and all(n in obj.keypoints for n in names)
               for obj in tag.nodes[track].frames)


def _sides_with_keypoints(tag: VekgTag, tracks: Sequence[int]) -> Dict[int, Set[str]]:
    """Per track, the arm sides whose keypoints appear in some frame."""
    return {t: {side for side in _SIDE_KEYS if _has_side_keypoints(tag, t, side)}
            for t in tracks}


def _two_phase(beta: list, theta_list: List[list], epsilon: float,
               min_phase: int) -> Optional[Tuple[int, int, int]]:
    """Find a raise/approach phase followed by a retract phase.

    Split at the wrist-distance minimum; both phases must show the
    required trends on every theta series and on beta.  Returns frame
    ordinals (start, split, end) or None.
    """
    valid = [i for i, v in enumerate(beta) if v is not X]
    if len(valid) < 2 * min_phase:
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
    """Both arms raise while wrists converge, then the reverse."""
    p = rule.params
    eps = p["trend_epsilon"]
    min_phase = p["min_phase_frames"]
    persons = _tracks_with_label(tag, rule.object_labels)
    sides = _sides_with_keypoints(tag, persons)
    skipped = 0
    out = []
    for ai in range(len(persons)):
        for bi in range(ai + 1, len(persons)):
            u, v = persons[ai], persons[bi]
            for side in ("right", "left"):
                if side not in sides[u] or side not in sides[v]:
                    skipped += 1
                    continue
                wrist = _SIDE_KEYS[side][1]
                wu = _keypoint_series(tag, u, wrist)
                wv = _keypoint_series(tag, v, wrist)
                beta = [geometry.point_distance(a, b)
                        if a is not X and b is not X else X
                        for a, b in zip(wu, wv)]
                t1 = _angle_series(tag, u, side)
                t2 = _angle_series(tag, v, side)
                hit = _two_phase(beta, [t1, t2], eps, min_phase)
                if hit is None:
                    continue
                i0, m, i1 = hit
                # acute-angle constraint over the matched span
                vals = [t for t in t1[i0:i1 + 1] + t2[i0:i1 + 1] if t is not X]
                if not vals or not all(0.0 < t < 90.0 for t in vals):
                    continue
                out.append(MatchNotification(
                    rule_id=rule.rule_id, kind=rule.kind,
                    interval=_interval_ms(tag, i0, i1),
                    participants=(u, v),
                    evidence={"side": side, "min_wrist_px": round(beta[m], 2)}))
    if skipped:
        log.info("handshake %s: skipped %d pair-side(s) missing keypoints",
                 rule.rule_id, skipped)
    return out


def eval_punch(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """One arm raises while the wrist closes on the other's shoulder."""
    p = rule.params
    eps = p["trend_epsilon"]
    min_phase = p["min_phase_frames"]
    contact = p["contact_px"]
    persons = _tracks_with_label(tag, rule.object_labels)
    sides = _sides_with_keypoints(tag, persons)
    skipped = 0
    out = []
    for attacker in persons:
        for victim in persons:
            if attacker == victim:
                continue
            for side in ("right", "left"):
                if side not in sides[attacker]:
                    skipped += 1
                    continue
                wrist = _SIDE_KEYS[side][1]
                wa = _keypoint_series(tag, attacker, wrist)
                rs = _keypoint_series(tag, victim, "right_shoulder")
                ls = _keypoint_series(tag, victim, "left_shoulder")
                beta = []
                for w, r, l in zip(wa, rs, ls):
                    if w is X or (r is X and l is X):
                        beta.append(X)
                        continue
                    ds = [geometry.point_distance(w, s)
                          for s in (r, l) if s is not X]
                    beta.append(min(ds))
                theta = _angle_series(tag, attacker, side)
                hit = _two_phase(beta, [theta], eps, min_phase)
                if hit is None:
                    continue
                i0, m, i1 = hit
                if beta[m] > contact:
                    continue   # never got near the shoulder: not a punch
                out.append(MatchNotification(
                    rule_id=rule.rule_id, kind=rule.kind,
                    interval=_interval_ms(tag, i0, i1),
                    participants=(attacker, victim),
                    evidence={"side": side, "min_reach_px": round(beta[m], 2)}))
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
    total = 0
    seen: Set[int] = set()
    for track in tracks:
        for obj in tag.nodes[track].frames:
            if obj is not None and geometry.inside_region(obj.bbox, region):
                total += 1
                seen.add(track)
    mean = total / tag.frame_count
    if mean <= threshold:
        return []
    return [MatchNotification(
        rule_id=rule.rule_id, kind=rule.kind,
        interval=Interval(tag.start, tag.end),
        participants=tuple(sorted(seen)),
        evidence={"mean_count": round(mean, 3), "threshold": threshold})]


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
            out.append(MatchNotification(
                rule_id=rule.rule_id, kind=rule.kind,
                interval=_interval_ms(tag, s, e),
                participants=(track,),
                evidence={"slot": slot_idx,
                          "occupancy": round((e - s + 1) / nframes, 3)}))
    return out


def eval_jaywalk(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Maximal spans of a person's centroid inside the configured region."""
    p = rule.params
    region: Region = p["region"]
    out = []
    for track in _tracks_with_label(tag, rule.object_labels):
        flags: List[Optional[bool]] = []
        for obj in tag.nodes[track].frames:
            if obj is None:
                flags.append(None)
            else:
                flags.append(geometry.inside_region(obj.bbox, region))
        for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                   p["min_frames"]):
            out.append(MatchNotification(
                rule_id=rule.rule_id, kind=rule.kind,
                interval=_interval_ms(tag, s, e),
                participants=(track,),
                evidence={"frames": e - s + 1}))
    return out


def eval_attribute(tag: VekgTag, rule: EventRule,
                   seen_tracks: Optional[Set[int]] = None) -> List[MatchNotification]:
    """Stateless attribute equality; one notification per matching track.

    ``seen_tracks`` carries already-notified tracks across windows so a
    track only fires on its first appearance.
    """
    key = str(rule.params["attribute"])
    value = str(rule.params["value"]).lower()
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
        out.append(MatchNotification(
            rule_id=rule.rule_id, kind=rule.kind,
            interval=_interval_ms(tag, first, last),
            participants=(track,),
            evidence={key: value}))
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
