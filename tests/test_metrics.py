"""Accuracy-scoring and latency-report tests."""

import random
import weakref

import pytest

from vekg import synth
from vekg.metrics import (AccuracyReport, GroundTruthEvent, LatencyReport,
                          from_counts, score, temporal_iou)
from vekg.pipeline import run_pipeline
from vekg.rules import MatchNotification, RuleKind, register_rules
from vekg.temporal import Interval


KINDS = {"fall": RuleKind.FALL_DETECTION, "punch": RuleKind.PUNCH}


def note(kind, start, end, rule_id="r", participants=(1,)):
    return MatchNotification(rule_id=rule_id, kind=KINDS[kind],
                             interval=Interval(start, end),
                             participants=participants)


def truth(kind, start, end):
    return GroundTruthEvent(kind=KINDS[kind].value,
                            interval=Interval(start, end))


class TestFormulas:
    def test_worked_example(self):
        rep = from_counts(tp=9, fp=1, fn=2)
        assert rep.precision == pytest.approx(0.9)
        assert rep.recall == pytest.approx(9 / 11)
        assert rep.f_score == pytest.approx(2 * 0.9 * (9 / 11) / (0.9 + 9 / 11))

    def test_perfect(self):
        rep = from_counts(tp=5, fp=0, fn=0)
        assert rep.precision == rep.recall == rep.f_score == 1.0

    def test_zero_denominators(self):
        rep = from_counts(tp=0, fp=0, fn=3)
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f_score == 0.0

    def test_randomized_triples(self):
        rng = random.Random(7)
        for _ in range(500):
            tp = rng.randint(0, 100)
            fp = rng.randint(0, 100)
            fn = rng.randint(0, 100)
            rep = from_counts(tp, fp, fn)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(rep.precision - p) < 1e-12
            assert abs(rep.recall - r) < 1e-12
            assert abs(rep.f_score - f) < 1e-12


class TestTemporalIou:
    def test_identical(self):
        assert temporal_iou(Interval(0, 10), Interval(0, 10)) == 1.0

    def test_disjoint(self):
        assert temporal_iou(Interval(0, 5), Interval(6, 10)) == 0.0

    def test_half(self):
        assert temporal_iou(Interval(0, 10), Interval(5, 15)) == pytest.approx(1 / 3)


class TestScore:
    def test_perfect_match(self):
        notes = [note("fall", 100, 900)]
        rep = score(notes, [truth("fall", 100, 900)])
        assert (rep.tp, rep.fp, rep.fn) == (1, 0, 0)

    def test_kind_must_match(self):
        rep = score([note("fall", 0, 100)], [truth("punch", 0, 100)])
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)

    def test_below_threshold_is_fp(self):
        rep = score([note("fall", 0, 100)], [truth("fall", 90, 1000)],
                    iou_time_threshold=0.3)
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)

    def test_one_to_one_matching(self):
        # two notifications over the same truth: only one can be TP
        notes = [note("fall", 0, 100), note("fall", 5, 100)]
        rep = score(notes, [truth("fall", 0, 100)])
        assert rep.tp == 1 and rep.fp == 1

    def test_tp_bounded_by_both_sides(self):
        rng = random.Random(13)
        for _ in range(50):
            notes = [note("fall", s, s + rng.randint(10, 200))
                     for s in sorted(rng.sample(range(0, 5000, 10),
                                                rng.randint(0, 6)))]
            truths = [truth("fall", s, s + rng.randint(10, 200))
                      for s in sorted(rng.sample(range(0, 5000, 10),
                                                 rng.randint(0, 6)))]
            rep = score(notes, truths)
            assert rep.tp <= min(len(notes), len(truths))
            assert rep.tp + rep.fp == len(notes)
            assert rep.tp + rep.fn == len(truths)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            score([], [], iou_time_threshold=0.0)


class TestLatency:
    def test_total_is_component_sum(self):
        rep = LatencyReport(vekg_construction_ms=1.5, tag_construction_ms=2.25,
                            tag_search_ms=0.75)
        assert rep.total_ms == 4.5
        assert rep.as_dict()["total_ms"] == 4.5

    def test_pair_pass_counts_as_vekg_construction(self):
        """The run decides pair series in aggregate, and that time moves
        from TAG construction to VEKG construction."""
        sc = synth.get_scenario("horse_ride_positive")
        rs = register_rules([dict(r) for r in sc.rule_configs])
        results = list(run_pipeline(synth.generate_frames(sc), rs))
        assert any(len(r.tag.edges) > len(r.tag.nodes) for r in results)
        for r in results:
            lat = r.latency
            if len(r.tag.edges) > len(r.tag.nodes):   # pair edges stored
                assert r.tag.pairs_ms > 0
            assert lat.vekg_construction_ms >= r.tag.pairs_ms
            assert lat.tag_construction_ms >= 0

    def test_a_window_is_let_go_before_the_next_frame_is_read(self):
        """Once its result is dropped, a window's tag is freed before the
        pipeline reads on, so freeing its records is not paid inside the
        next window's close."""
        sc = synth.get_scenario("street")
        rs = register_rules([dict(r) for r in sc.rule_configs])
        tags, alive = [], []

        def reading(frames):
            for f in frames:
                alive.append(sum(ref() is not None for ref in tags))
                yield f

        for result in run_pipeline(reading(synth.generate_frames(sc)), rs,
                                   window_ms=5_000):
            tags.append(weakref.ref(result.tag))
            del result
        assert len(tags) >= 10 and len(alive) > len(tags)
        assert max(alive) == 0

    @pytest.mark.parametrize("name", ["horse_ride_positive", "street"])
    def test_run_builds_no_frame_graph(self, monkeypatch, name):
        """The run windows its frames directly: no frame graph is built,
        and the VEKG's construction time is the pair pass alone."""
        def no_frame_graph(*_args, **_kwargs):
            raise AssertionError("the run built a frame graph")

        monkeypatch.setattr("vekg.graph.build_frame_graph", no_frame_graph)
        sc = synth.get_scenario(name)
        rs = register_rules([dict(r) for r in sc.rule_configs])
        results = list(run_pipeline(synth.generate_frames(sc), rs))
        assert results
        for r in results:
            assert r.latency.vekg_construction_ms == r.tag.pairs_ms
            if not rs.relation_needs():   # no pair pass, so no VEKG time
                assert r.tag.pairs_ms == 0.0
