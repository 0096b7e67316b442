"""Scenario generator tests."""

import pytest

from vekg import synth
from vekg.errors import InvalidScenario
from vekg.metrics import load_truth
from vekg.rules import RuleKind


class TestBuiltins:
    def test_positive_and_negative_per_kind(self):
        names = {s.name for s in synth.builtin_scenarios()}
        assert len(names) >= 18
        for kind in ("fall", "horse_ride", "bike_ride", "handshake", "punch",
                     "traffic", "parking", "jaywalk", "attribute"):
            assert any(n.startswith(kind) and n.endswith("positive")
                       for n in names)
            assert any(n.startswith(kind) and n.endswith("negative")
                       for n in names)

    def test_every_kind_covered(self):
        kinds = set()
        for s in synth.builtin_scenarios():
            for cfg in s.rule_configs:
                kinds.add(RuleKind(cfg["kind"]))
        assert kinds == set(RuleKind)

    def test_unknown_scenario(self):
        with pytest.raises(InvalidScenario):
            synth.get_scenario("flying_carpet")

    def test_positive_scenarios_carry_truth(self):
        for s in synth.builtin_scenarios():
            if s.name.endswith("positive"):
                assert s.planted_events
            if s.name.endswith("negative"):
                assert not s.planted_events


class TestGeneration:
    def test_frames_strictly_ordered(self):
        sc = synth.get_scenario("fall_positive")
        frames = list(synth.generate_frames(sc))
        for a, b in zip(frames, frames[1:]):
            assert b.timestamp > a.timestamp
            assert b.frame_index > a.frame_index

    def test_frame_count_matches_duration(self):
        sc = synth.get_scenario("traffic_positive")
        frames = list(synth.generate_frames(sc))
        assert len(frames) == sc.duration_ms * sc.fps // 1000

    def test_seed_determinism_files(self, tmp_path):
        sc = synth.get_scenario("jaywalk_positive").with_noise(2.0, 0.05, seed=4)
        a_stream, a_truth = tmp_path / "a.jsonl", tmp_path / "a.truth"
        b_stream, b_truth = tmp_path / "b.jsonl", tmp_path / "b.truth"
        synth.generate(sc, str(a_stream), str(a_truth))
        synth.generate(sc, str(b_stream), str(b_truth))
        assert a_stream.read_bytes() == b_stream.read_bytes()
        assert a_truth.read_bytes() == b_truth.read_bytes()

    def test_different_seeds_differ(self):
        base = synth.get_scenario("fall_positive")
        a = list(synth.generate_frames(base.with_noise(2.0, 0.05, seed=1)))
        b = list(synth.generate_frames(base.with_noise(2.0, 0.05, seed=2)))
        assert a != b

    def test_jitter_bounded(self):
        sigma = 3.0
        clean = list(synth.generate_frames(synth.get_scenario("fall_positive")))
        noisy = list(synth.generate_frames(
            synth.get_scenario("fall_positive").with_noise(sigma, 0.0, seed=9)))
        for cf, nf in zip(clean, noisy):
            for co, no in zip(cf.objects, nf.objects):
                assert abs(co.bbox.x - no.bbox.x) <= sigma
                assert abs(co.bbox.y - no.bbox.y) <= sigma
                # size is never jittered
                assert co.bbox.w == no.bbox.w and co.bbox.h == no.bbox.h

    def test_dropout_removes_detections(self):
        sc = synth.get_scenario("traffic_positive").with_noise(0.0, 0.3, seed=5)
        clean_total = sum(len(f.objects) for f in synth.generate_frames(
            synth.get_scenario("traffic_positive")))
        noisy_total = sum(len(f.objects) for f in synth.generate_frames(sc))
        assert noisy_total < clean_total

    def test_truth_roundtrip(self, tmp_path):
        sc = synth.get_scenario("parking_positive")
        stream, truth = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        synth.generate(sc, str(stream), str(truth))
        loaded = load_truth(str(truth))
        assert tuple(loaded) == sc.planted_events

    def test_invalid_scenario_rejected(self):
        sc = synth.get_scenario("fall_positive")
        bad = synth.Scenario(
            name="bad", duration_ms=-5, fps=30, resolution=(10, 10),
            actors=sc.actors)
        with pytest.raises(InvalidScenario):
            list(synth.generate_frames(bad))
