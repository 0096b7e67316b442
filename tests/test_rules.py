"""Rule evaluator and registry tests."""

import logging
import random
from dataclasses import replace

import pytest

from conftest import frame, obj, window_of
from vekg.errors import InvalidRuleConfig
from vekg.rules import (Matcher, RuleKind, _tracks_with_label, _two_phase,
                        eval_attribute, eval_fall, eval_handshake, eval_jaywalk,
                        eval_parking, eval_punch, eval_ride, eval_traffic,
                        register_rules)
from vekg.tag import X, aggregate
from vekg.windowing import time_window
from vekg.graph import stream_graphs
from vekg.pipeline import run_pipeline
from vekg import geometry, rules, synth


def one_rule(kind, params=None, labels=None, window_ms=10_000):
    cfg = {"id": "r", "kind": kind, "window_ms": window_ms}
    if params:
        cfg["params"] = params
    if labels:
        cfg["labels"] = labels
    return register_rules([cfg]).rules[0]


def tag_of(frames, relations=()):
    ts = [f.timestamp for f in frames]
    win = window_of(frames, relations, start=ts[0], end=ts[-1] + 34)
    return aggregate(win, relations)


class TestRegistry:
    def test_unknown_kind(self):
        with pytest.raises(InvalidRuleConfig):
            register_rules([{"id": "x", "kind": "teleportation"}])

    def test_missing_id(self):
        with pytest.raises(InvalidRuleConfig):
            register_rules([{"kind": "fall_detection"}])

    @pytest.mark.parametrize("raw, rule_id", [(0, "0"), (0.0, "0.0"), (1, "1"),
                                              ("0", "0"), ("a", "a")])
    def test_id_read_as_text(self, raw, rule_id):
        rule = register_rules([{"id": raw, "kind": "fall_detection"}]).rules[0]
        assert rule.rule_id == rule_id

    def test_duplicate_id(self):
        with pytest.raises(InvalidRuleConfig):
            register_rules([{"id": "a", "kind": "fall_detection"},
                            {"id": "a", "kind": "jaywalking",
                             "params": {"region": [[0, 0], [9, 0], [9, 9]]}}])

    def test_missing_required_param(self):
        with pytest.raises(InvalidRuleConfig):
            register_rules([{"id": "t", "kind": "high_volume_traffic"}])

    def test_numeric_params_coerced_at_load(self):
        rule = one_rule("horse_ride", {"min_frames": "12", "min_speed_px": 3})
        assert rule.params["min_frames"] == 12
        assert isinstance(rule.params["min_speed_px"], float)
        with pytest.raises(InvalidRuleConfig):
            one_rule("horse_ride", {"min_frames": "abc"})
        with pytest.raises(InvalidRuleConfig):
            one_rule("parking_slot_status", {"slots": [[0, 0, 5, 5]],
                                             "overlap_threshold": None})

    def test_defaults_filled(self):
        rule = one_rule("fall_detection")
        assert rule.params["still_frames"] == 8
        assert rule.object_labels == ("person",)

    def test_window_disagreement(self):
        rs = register_rules([
            {"id": "a", "kind": "fall_detection", "window_ms": 5000},
            {"id": "b", "kind": "handshake", "window_ms": 8000}])
        with pytest.raises(InvalidRuleConfig):
            rs.window_ms()
        assert rs.window_ms(override=4000) == 4000

    def test_required_relations_union(self):
        rs = register_rules([
            {"id": "a", "kind": "bike_ride"},
            {"id": "b", "kind": "fall_detection"}])
        assert rs.relation_needs() == {("person", "bike"): {"topology", "direction"}}

    def test_relation_needs_merge_per_label_pair(self):
        rs = register_rules([
            {"id": "a", "kind": "bike_ride"},
            {"id": "b", "kind": "horse_ride", "labels": ["person", "bike"]},
            {"id": "c", "kind": "horse_ride", "labels": ["rider", "pony"]},
            {"id": "d", "kind": "handshake"}])
        assert rs.relation_needs() == {
            ("person", "bike"): {"topology", "direction"},
            ("rider", "pony"): {"topology", "direction"}}
        assert register_rules([]).relation_needs() == {}

    def test_empty_rule_set_needs_a_window_length(self):
        rs = register_rules([])
        with pytest.raises(InvalidRuleConfig):
            rs.window_ms()
        assert rs.window_ms(override=500) == 500

    def test_bad_region(self):
        with pytest.raises(InvalidRuleConfig):
            register_rules([{"id": "j", "kind": "jaywalking",
                             "params": {"region": [[0, 0], [1, 1]]}}])

    @pytest.mark.parametrize("cfg, message", [
        ({"window_ms": True}, "'window_ms' = True: must be a whole number"),
        ({"window_ms": False}, "'window_ms' = False: must be a whole number"),
        ({"params": {"still_frames": True}}, "'still_frames' = True"),
        ({"params": {"no_motion_speed_px": False}}, "must be a number, not true"),
        ({"params": {"penalty": True}}, "'penalty' = True"),
        ({"gap_frames": 5}, r"unknown key\(s\) \['gap_frames'\]"),
        ({"label": "person", "window": 500}, r"unknown key\(s\) \['label', 'window'\]"),
        ({"rule_id": "g"}, r"unknown key\(s\) \['rule_id'\]"),
        ({7: "x"}, r"unknown key\(s\) \['7'\]"),
        ({"params": []}, "params must be a mapping"),
        ({"params": 0}, "params must be a mapping"),
        ({"params": ""}, "params must be a mapping"),
        ({"id": None}, "rule needs an id, not None"),
        ({"id": ""}, "rule needs an id, not ''"),
        ({"id": True}, "rule needs an id, not True"),
        ({"id": False}, "rule needs an id, not False"),
    ], ids=["window-true", "window-false", "count-true", "speed-false",
            "penalty-true", "param-beside-kind", "misspelt-keys",
            "rule-id-beside-id", "int-key", "params-list", "params-zero",
            "params-empty-string", "id-null", "id-empty", "id-true", "id-false"])
    def test_refused_at_load(self, cfg, message):
        with pytest.raises(InvalidRuleConfig, match=message):
            register_rules([{"id": "f", "kind": "fall_detection", **cfg}])

    def test_params_null_loads_the_defaults(self):
        rule = one_rule("fall_detection")
        assert register_rules([{"id": "r", "kind": "fall_detection",
                                "params": None}]).rules[0] == rule

    @pytest.mark.parametrize("slot", [[True, "5", 5, 5], [0, 0, 5, False],
                                      [0, 0, "nan", 5]])
    def test_slot_coordinates_read_as_numbers(self, slot):
        with pytest.raises(InvalidRuleConfig, match="'slots'"):
            one_rule("parking_slot_status", {"slots": [slot],
                                             "overlap_threshold": 0.5})
        rule = one_rule("parking_slot_status", {"slots": [["1", 2, 3.5, "4"]],
                                                "overlap_threshold": 0.5})
        assert rule.params["slots"] == [geometry.BoundingBox(1.0, 2.0, 3.5, 4.0)]


# every frame-count param, under each kind that reads it, with the
# params that kind requires
REQUIRED_PARAMS = {
    "parking_slot_status": {"slots": [[0, 0, 50, 50]], "overlap_threshold": 0.5},
    "jaywalking": {"region": [[0, 0], [9, 0], [9, 9]]},
}
COUNTS = [("fall_detection", "still_frames"), ("fall_detection", "gap_frames"),
          ("horse_ride", "min_frames"), ("horse_ride", "max_gap_frames"),
          ("bike_ride", "min_frames"), ("bike_ride", "max_gap_frames"),
          ("handshake", "min_phase_frames"), ("punch", "min_phase_frames"),
          ("parking_slot_status", "min_frames"),
          ("parking_slot_status", "max_gap_frames"),
          ("jaywalking", "min_frames"), ("jaywalking", "max_gap_frames")]


class TestCounts:
    """Frame counts are whole numbers >= 0, checked at load."""

    @pytest.mark.parametrize("kind, param", COUNTS,
                             ids=[f"{k}-{p}" for k, p in COUNTS])
    @pytest.mark.parametrize("value", [-1, -5, "-3"])
    def test_negative_count_rejected_at_load(self, kind, param, value):
        with pytest.raises(InvalidRuleConfig, match=f"{param}.*must be >= 0"):
            one_rule(kind, {**REQUIRED_PARAMS.get(kind, {}), param: value})

    @pytest.mark.parametrize("kind, param", COUNTS,
                             ids=[f"{k}-{p}" for k, p in COUNTS])
    def test_zero_count_loads(self, kind, param):
        rule = one_rule(kind, {**REQUIRED_PARAMS.get(kind, {}), param: 0})
        assert rule.params[param] == 0


def fall_frames(walk_frames=60, still_frames=40, keep_moving=False):
    """Person walks with ratio 0.4, then the ratio jumps to 1.8."""
    frames = []
    for i in range(walk_frames):
        frames.append(frame(i, i * 33, [obj(1, "person",
                                            (100 + 10 * i, 300, 20, 50))]))
    x0 = 100 + 10 * walk_frames
    for j in range(still_frames):
        i = walk_frames + j
        x = x0 + (10 * j if keep_moving else 0)
        frames.append(frame(i, i * 33, [obj(1, "person", (x, 330, 54, 30))]))
    return frames


class TestFall:
    def test_planted_fall_detected(self):
        notes = eval_fall(tag_of(fall_frames()), one_rule("fall_detection"))
        assert len(notes) == 1
        assert notes[0].participants == (1,)
        assert notes[0].evidence["ratio_after"] > notes[0].evidence["ratio_before"]

    def test_constant_ratio_no_match(self):
        frames = [frame(i, i * 33, [obj(1, "person", (100 + 10 * i, 300, 20, 50))])
                  for i in range(80)]
        assert eval_fall(tag_of(frames), one_rule("fall_detection")) == []

    def test_jump_but_still_moving_no_match(self):
        tag = tag_of(fall_frames(keep_moving=True))
        assert eval_fall(tag, one_rule("fall_detection")) == []

    def test_no_persons_empty(self):
        frames = [frame(i, i * 33, [obj(1, "car", (0, 0, 20, 10))])
                  for i in range(40)]
        assert eval_fall(tag_of(frames), one_rule("fall_detection")) == []


RIDE_RELS = {"topology", "direction"}


def ride_frames(n=40, dx=12, mount="bike", beside=False, rider="person"):
    frames = []
    for i in range(n):
        if beside:
            person = obj(1, rider, (100 + dx * i, 350, 50, 90))
            steed = obj(2, mount, (130 + dx * i, 355, 100, 80))
        else:
            person = obj(1, rider, (100 + dx * i, 300, 50, 90))
            steed = obj(2, mount, (75 + dx * i, 350, 100, 80))
        frames.append(frame(i, i * 33, [person, steed]))
    return frames


class TestRide:
    def test_riding_matches(self):
        tag = tag_of(ride_frames(), RIDE_RELS)
        notes = eval_ride(tag, one_rule("bike_ride"))
        assert len(notes) == 1
        assert notes[0].participants == (1, 2)

    def test_stationary_mount_no_match(self):
        tag = tag_of(ride_frames(dx=0), RIDE_RELS)
        assert eval_ride(tag, one_rule("bike_ride")) == []

    def test_beside_no_match(self):
        tag = tag_of(ride_frames(beside=True, mount="horse"), RIDE_RELS)
        assert eval_ride(tag, one_rule("horse_ride")) == []

    def test_rule_labels_name_rider_and_mount(self):
        tag = tag_of(ride_frames(mount="pony", rider="rider"), RIDE_RELS)
        assert eval_ride(tag, one_rule("horse_ride")) == []
        notes = eval_ride(tag, one_rule("horse_ride", labels=["rider", "pony"]))
        assert [n.participants for n in notes] == [(1, 2)]

    def test_labelled_rule_fires_on_relabelled_stream(self):
        sc = synth.get_scenario("horse_ride_positive")
        names = {"person": "rider", "horse": "pony"}
        relabelled = replace(sc, actors=tuple(
            replace(a, label=names[a.label]) for a in sc.actors))
        rs = register_rules([dict(r, labels=["rider", "pony"])
                             for r in sc.rule_configs])
        assert rs.relation_needs() == {("rider", "pony"): {"topology", "direction"}}

        def notes(scenario, ruleset):
            return [n for result in run_pipeline(synth.generate_frames(scenario),
                                                 ruleset)
                    for n in result.notifications]
        want = notes(sc, register_rules(list(sc.rule_configs)))
        assert len(want) == 4
        assert notes(relabelled, rs) == want


class TestTwoPhase:
    def test_monotone_series_never_fires(self):
        beta = [float(30 - i) for i in range(30)]      # only approaching
        theta = [float(i) for i in range(30)]
        assert _two_phase(beta, [theta], 0.1, 5) is None

    def test_v_shape_fires(self):
        beta = [float(abs(15 - i)) + 1 for i in range(31)]
        theta = [45.0 - abs(15 - i) for i in range(31)]
        assert _two_phase(beta, [theta], 0.1, 5) == (0, 15, 30)

    def test_short_phase_rejected(self):
        beta = [3.0, 2.0, 1.0, 2.0, 3.0]
        theta = [10.0, 20.0, 30.0, 20.0, 10.0]
        assert _two_phase(beta, [theta], 0.1, 5) is None

    @pytest.mark.parametrize("min_phase", [0, -1])
    def test_no_distance_with_no_minimum_phase(self, min_phase):
        # two tracks never seen together: every distance slot is X
        assert _two_phase([X] * 6, [[X] * 6], 0.1, min_phase) is None
        assert _two_phase([], [[]], 0.1, min_phase) is None


class TestHandshakePunchScenarios:
    """Closed-loop checks through the scripted keypoint scenarios."""

    def _notes(self, name):
        sc = synth.get_scenario(name)
        rs = register_rules([dict(r) for r in sc.rule_configs])
        graphs = stream_graphs(synth.generate_frames(sc),
                               rs.relation_needs())
        matcher = Matcher(rs)
        out = []
        for w in time_window(graphs, rs.window_ms()):
            out += matcher.match(aggregate(w, rs.relation_needs()))
        return out

    def test_handshake_positive(self):
        notes = self._notes("handshake_positive")
        assert len(notes) == 4
        assert all(n.kind is RuleKind.HANDSHAKE for n in notes)

    def test_handshake_idle_negative(self):
        assert self._notes("handshake_negative") == []

    def test_punch_orders_attacker_first(self):
        notes = self._notes("punch_positive")
        assert len(notes) == 4
        assert all(n.participants == (1, 2) for n in notes)

    def test_handshake_does_not_fire_punch(self):
        assert self._notes("punch_negative") == []

    @pytest.mark.parametrize("name", ["handshake_positive", "punch_positive"])
    def test_handshake_and_punch_build_the_arm_series_once(self, name, monkeypatch):
        """Punch after handshake on one window computes no arm angle, and
        each rule's notes are those it gives on a window of its own."""
        sc = synth.get_scenario(name)
        frames = [f for f in synth.generate_frames(sc) if f.timestamp < sc.window_ms]
        shake, punch = one_rule("handshake"), one_rule("punch")
        alone = [eval_handshake(tag_of(frames), shake), eval_punch(tag_of(frames), punch)]
        angles = []
        segment_angle = geometry.segment_angle
        monkeypatch.setattr(geometry, "segment_angle",
                            lambda *a: angles.append(a) or segment_angle(*a))
        tag = tag_of(frames)
        shared = [eval_handshake(tag, shake)]
        built = len(angles)
        shared.append(eval_punch(tag, punch))
        assert built > 0 and len(angles) == built
        assert shared == alone and any(alone)


class TestArmSkips:
    """The pair-sides that handshake and punch log as skipped, against a
    brute-force count over the keypoints of random windows."""

    PARTS = ("shoulder", "wrist", "hip")

    def _window(self, rng, n):
        """Twelve frames of ``n`` persons.  Each person shows keypoints of
        both arm sides, one or none, and some a shoulder and wrist with no
        hip, which is no arm."""
        shows = {}
        for t in range(1, n + 1):
            shown = rng.choice([("right", "left"), ("right",), ("left",), ()])
            shows[t] = [f"{side}_{part}" for side in shown for part in self.PARTS]
            if rng.random() < 0.2:
                side = rng.choice(["right", "left"])
                shows[t] += [f"{side}_shoulder", f"{side}_wrist"]
        frames = []
        for i in range(12):
            objs = []
            for t in range(1, n + 1):
                if rng.random() < 0.8:
                    kps = {name: (rng.uniform(0, 400), rng.uniform(0, 400))
                           for name in shows[t] if rng.random() < 0.7}
                    objs.append(obj(t, "person", (40 * t, 50, 30, 80),
                                    keypoints=kps or None))
            frames.append(frame(i, 33 * i, objs))
        return frames

    @staticmethod
    def _expected(frames):
        """Brute force: (handshake, punch) pair-sides lacking an arm."""
        tracks = sorted({o.track_id for f in frames for o in f.objects})
        has = {(o.track_id, side) for f in frames for o in f.objects
               for side in ("right", "left")
               if o.keypoints and all(f"{side}_{part}" in o.keypoints
                                      for part in TestArmSkips.PARTS)}
        shake = sum(1 for a in tracks for b in tracks if a < b
                    for side in ("right", "left")
                    if (a, side) not in has or (b, side) not in has)
        punch = sum(1 for a in tracks for b in tracks if a != b
                    for side in ("right", "left") if (a, side) not in has)
        return shake, punch

    @staticmethod
    def _logged(caplog, frames):
        caplog.clear()
        tag = tag_of(frames)
        eval_handshake(tag, one_rule("handshake"))
        eval_punch(tag, one_rule("punch"))
        counts = {"handshake": 0, "punch": 0}
        for record in caplog.records:
            kind, rest = record.getMessage().split(" r: skipped ")
            counts[kind] += int(rest.split()[0])
        return counts["handshake"], counts["punch"]

    def test_skipped_counts_match_brute_force(self, caplog):
        caplog.set_level(logging.INFO, logger="vekg.rules")
        rng = random.Random(27)
        for _ in range(60):
            frames = self._window(rng, rng.randint(0, 6))
            assert self._logged(caplog, frames) == self._expected(frames)

    def test_no_keypoints_searches_nothing(self, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="vekg.rules")
        calls = []
        monkeypatch.setattr(rules, "_two_phase", lambda *a: calls.append(a))
        frames = [frame(i, 33 * i, [obj(t, "person", (40 * t, 50, 30, 80))
                                    for t in range(1, 23)]) for i in range(12)]
        assert self._logged(caplog, frames) == (2 * 231, 2 * 22 * 21)
        assert calls == []


REGION = [[0, 0], [100, 0], [100, 100], [0, 100]]


def traffic_frames(n_in, n_total=8, alternate=False, frames_n=20):
    frames = []
    for i in range(frames_n):
        objs = []
        for t in range(1, n_total + 1):
            if t <= n_in or (alternate and i % 2 == 0):
                bbox = (10 * t % 80 + 5, 40, 8, 8)       # inside the region
            else:
                bbox = (500 + 10 * t, 500, 8, 8)         # far outside
            objs.append(obj(t, "car", bbox))
        frames.append(frame(i, i * 33, objs))
    return frames


class TestTraffic:
    RULE = {"region": REGION, "count_threshold": 5}

    def test_six_cars_matches(self):
        tag = tag_of(traffic_frames(6))
        notes = eval_traffic(tag, one_rule("high_volume_traffic", self.RULE))
        assert len(notes) == 1
        assert notes[0].interval.start == tag.start
        assert notes[0].interval.end == tag.end

    def test_three_cars_no_match(self):
        tag = tag_of(traffic_frames(3))
        assert eval_traffic(tag, one_rule("high_volume_traffic", self.RULE)) == []

    def test_alternating_counts_use_mean(self):
        # 4 cars always inside, all 8 inside on even frames: mean 6 > 5
        tag = tag_of(traffic_frames(4, alternate=True))
        notes = eval_traffic(tag, one_rule("high_volume_traffic", self.RULE))
        assert len(notes) == 1
        assert notes[0].evidence["mean_count"] == pytest.approx(6.0)


class TestParking:
    def _rule(self, slots):
        return one_rule("parking_slot_status",
                        {"slots": slots, "overlap_threshold": 0.5})

    def test_occupied_slot(self):
        frames = [frame(i, i * 33, [obj(1, "car", (0, 0, 10, 8))])
                  for i in range(10)]
        notes = eval_parking(tag_of(frames), self._rule([[0, 0, 10, 10]]))
        assert len(notes) == 1
        assert notes[0].evidence["slot"] == 0
        assert notes[0].participants == (1,)

    def test_vacant_slot(self):
        frames = [frame(i, i * 33, [obj(1, "car", (300, 300, 10, 8))])
                  for i in range(10)]
        assert eval_parking(tag_of(frames), self._rule([[0, 0, 10, 10]])) == []

    def test_straddling_car_occupies_majority_slot_only(self):
        frames = [frame(i, i * 33, [obj(1, "car", (4, 0, 10, 10))])
                  for i in range(10)]
        notes = eval_parking(tag_of(frames),
                             self._rule([[0, 0, 10, 10], [10, 0, 10, 10]]))
        assert [n.evidence["slot"] for n in notes] == [0]


class TestJaywalk:
    RULE = {"region": REGION}

    def _frames(self, label="person", cross=True):
        frames = []
        for i in range(30):
            x = (-40 + 10 * i) if cross else 300    # centroid crosses 0..100
            frames.append(frame(i, i * 33, [obj(1, label, (x, 45, 10, 10))]))
        return frames

    def test_crossing_person_matches(self):
        notes = eval_jaywalk(tag_of(self._frames()),
                             one_rule("jaywalking", self.RULE))
        assert len(notes) == 1
        assert notes[0].evidence["frames"] == 10   # centroid in (0, 100)

    def test_outside_region_no_match(self):
        assert eval_jaywalk(tag_of(self._frames(cross=False)),
                            one_rule("jaywalking", self.RULE)) == []

    def test_label_filter(self):
        assert eval_jaywalk(tag_of(self._frames(label="car")),
                            one_rule("jaywalking", self.RULE)) == []


class TestAttribute:
    RULE = {"attribute": "color", "value": "red"}

    def _frames(self, color):
        return [frame(i, i * 33, [obj(1, "car", (0, 0, 9, 9),
                                      attrs={"color": color})])
                for i in range(5)]

    def test_match_case_insensitive(self):
        notes = eval_attribute(tag_of(self._frames("Red")),
                               one_rule("attribute_query", self.RULE))
        assert len(notes) == 1

    def test_wrong_value(self):
        assert eval_attribute(tag_of(self._frames("blue")),
                              one_rule("attribute_query", self.RULE)) == []

    def test_label_filter(self):
        frames = [frame(0, 0, [obj(1, "person", (0, 0, 9, 9),
                                   attrs={"color": "red"})])]
        assert eval_attribute(tag_of(frames),
                              one_rule("attribute_query", self.RULE)) == []

    def test_fires_once_per_track(self):
        seen = set()
        rule = one_rule("attribute_query", self.RULE)
        tag = tag_of(self._frames("red"))
        assert len(eval_attribute(tag, rule, seen)) == 1
        assert eval_attribute(tag, rule, seen) == []

    def test_attribute_named_like_a_parameter(self):
        # the evidence key comes from the rule file and may be any name
        frames = [frame(i, i * 33, [obj(1, "car", (0, 0, 9, 9),
                                        attrs={"rule": "Red"})])
                  for i in range(5)]
        rule = one_rule("attribute_query", {"attribute": "rule", "value": "red"})
        notes = eval_attribute(tag_of(frames), rule)
        assert [n.evidence for n in notes] == [{"rule": "red"}]


class TestMatcherProperties:
    def _run(self, name):
        sc = synth.get_scenario(name)
        rs = register_rules([dict(r) for r in sc.rule_configs])
        graphs = stream_graphs(synth.generate_frames(sc),
                               rs.relation_needs())
        windows = list(time_window(graphs, rs.window_ms()))
        matcher = Matcher(rs)
        return [(w, aggregate(w, rs.relation_needs())) for w in windows], matcher

    def test_window_confinement_and_ordering(self):
        pairs, matcher = self._run("jaywalk_positive")
        for win, tag in pairs:
            notes = matcher.match(tag)
            keys = [(n.interval.start, n.rule_id, n.interval.end,
                     n.participants) for n in notes]
            assert keys == sorted(keys)
            for n in notes:
                assert win.start <= n.interval.start
                assert n.interval.end <= win.end

    def test_determinism(self):
        pairs1, m1 = self._run("parking_positive")
        pairs2, m2 = self._run("parking_positive")
        notes1 = [n for _, t in pairs1 for n in m1.match(t)]
        notes2 = [n for _, t in pairs2 for n in m2.match(t)]
        assert notes1 == notes2

    def test_empty_ruleset(self):
        pairs, _ = self._run("jaywalk_positive")
        matcher = Matcher(register_rules([]))
        assert all(matcher.match(t) == [] for _, t in pairs)

    def test_attribute_seen_sets_per_rule_across_windows(self):
        red = {"attribute": "color", "value": "red"}
        rs = register_rules([
            {"id": "a", "kind": "attribute_query", "params": red},
            {"id": "b", "kind": "attribute_query", "params": red}])
        frames = [frame(i, i * 33, [obj(1, "car", (0, 0, 9, 9),
                                        attrs={"color": "red"})])
                  for i in range(10)]
        matcher = Matcher(rs)
        notes = (matcher.match(tag_of(frames[:5]))
                 + matcher.match(tag_of(frames[5:])))
        assert sorted(n.rule_id for n in notes) == ["a", "b"]

    def test_ride_rules_bind_their_own_mount(self):
        rs = register_rules([{"id": "h", "kind": "horse_ride"},
                             {"id": "b", "kind": "bike_ride"}])
        tag = tag_of(ride_frames(mount="bike"), rs.relation_needs())
        notes = Matcher(rs).match(tag)
        assert [(n.rule_id, n.kind) for n in notes] == [("b", RuleKind.BIKE_RIDE)]


class TestTracksWithLabel:
    def test_tracks_of_the_labels_in_id_order(self):
        frames = [frame(0, 0, [obj(7, "person"), obj(3, "horse"), obj(5, "person"),
                               obj(1, "car"), obj(4, "bike")]),
                  frame(1, 33, [obj(3, "person"), obj(9, "horse")])]
        tag = tag_of(frames)
        assert _tracks_with_label(tag, ("person",)) == [3, 5, 7]
        assert _tracks_with_label(tag, ("horse", "person")) == [3, 5, 7, 9]
        assert _tracks_with_label(tag, ("person", "person", "cow")) == [3, 5, 7]
        assert _tracks_with_label(tag, ("cow",)) == []
        assert tag.tracks_by_label == {"bike": [4], "car": [1], "horse": [9],
                                       "person": [3, 5, 7]}


class TestScaleInvariance:
    def test_jaywalk_invariant_under_uniform_scaling(self):
        k = 3.0
        for scale in (1.0, k):
            frames = []
            for i in range(30):
                x = (-40 + 10 * i) * scale
                frames.append(frame(i, i * 33,
                                    [obj(1, "person",
                                         (x, 45 * scale, 10 * scale, 10 * scale))]))
            region = [[p[0] * scale, p[1] * scale] for p in REGION]
            notes = eval_jaywalk(tag_of(frames),
                                 one_rule("jaywalking", {"region": region}))
            if scale == 1.0:
                base = [(n.interval, n.participants) for n in notes]
            else:
                assert [(n.interval, n.participants) for n in notes] == base

    def test_parking_invariant_under_uniform_scaling(self):
        k = 5.0
        results = []
        for scale in (1.0, k):
            frames = [frame(i, i * 33,
                            [obj(1, "car", (0, 0, 10 * scale, 8 * scale))])
                      for i in range(10)]
            slots = [[0, 0, 10 * scale, 10 * scale]]
            rule = one_rule("parking_slot_status",
                            {"slots": slots, "overlap_threshold": 0.5})
            notes = eval_parking(tag_of(frames), rule)
            results.append([(n.interval, n.evidence["slot"]) for n in notes])
        assert results[0] == results[1]
