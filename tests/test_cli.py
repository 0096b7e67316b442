"""End-to-end command-line tests (exit codes, file outputs, determinism)."""

import json
import os
import statistics

import pytest
import yaml

from vekg import cli, ingest
from vekg.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def fall_files(tmp_path):
    stream = tmp_path / "fall.jsonl"
    truth = tmp_path / "fall.truth"
    rules = tmp_path / "fall.rules.yaml"
    rc = main(["gen", "fall_positive", "--out", str(stream),
               "--truth", str(truth), "--rules", str(rules)])
    assert rc == EXIT_OK
    return stream, truth, rules


class TestGen:
    def test_writes_stream_truth_rules(self, fall_files):
        stream, truth, rules = fall_files
        assert stream.exists() and truth.exists()
        doc = yaml.safe_load(rules.read_text())
        assert doc["rules"][0]["kind"] == "fall_detection"
        header = json.loads(stream.read_text().splitlines()[0])
        assert header["format"] == "vekg-detections"

    def test_unknown_scenario(self, tmp_path):
        rc = main(["gen", "flying_carpet", "--out", str(tmp_path / "x"),
                   "--truth", str(tmp_path / "y")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("noise", ["inf", "1e308", "nan", "-5"])
    def test_bad_noise_amplitude_exits_2(self, tmp_path, noise):
        rc = main(["--quiet", "gen", "fall_positive", "--noise-px", noise,
                   "--out", str(tmp_path / "s"), "--truth", str(tmp_path / "t")])
        assert rc == EXIT_INPUT
        assert not (tmp_path / "s").exists()   # rejected before any output

    @pytest.mark.parametrize("noise", ["0", "1", "2"])
    def test_noise_amplitude_in_range_generates(self, tmp_path, noise):
        stream = tmp_path / "s"
        rc = main(["--quiet", "gen", "fall_positive", "--noise-px", noise,
                   "--out", str(stream), "--truth", str(tmp_path / "t")])
        assert rc == EXIT_OK
        assert len(stream.read_text().splitlines()) == 1 + 1200

    def test_noise_flags_deterministic(self, tmp_path):
        args = ["gen", "jaywalk_positive", "--seed", "3", "--noise-px", "2",
                "--dropout", "0.05"]
        main(args + ["--out", str(tmp_path / "a"), "--truth", str(tmp_path / "at")])
        main(args + ["--out", str(tmp_path / "b"), "--truth", str(tmp_path / "bt")])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestRun:
    def test_closed_loop(self, fall_files, tmp_path):
        stream, truth, rules = fall_files
        out = tmp_path / "notes.jsonl"
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--out", str(out),
                   "--truth", str(truth)])
        assert rc == EXIT_OK
        notes = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(notes) == 4
        assert all(n["kind"] == "fall_detection" for n in notes)
        metrics = [json.loads(l)
                   for l in (tmp_path / "notes.jsonl.metrics.jsonl")
                   .read_text().splitlines()]
        accuracy = metrics[-1]["accuracy"]
        assert accuracy["f_score"] == 1.0
        for m in metrics[:-1]:
            lat = m["latency"]
            assert lat["total_ms"] == pytest.approx(
                lat["vekg_construction_ms"] + lat["tag_construction_ms"]
                + lat["tag_search_ms"])

    def test_byte_identical_reruns(self, fall_files, tmp_path):
        stream, _, rules = fall_files
        outs = []
        for name in ("n1.jsonl", "n2.jsonl"):
            out = tmp_path / name
            assert main(["--quiet", "run", "--input", str(stream),
                         "--rules", str(rules), "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_rules_file(self, fall_files, tmp_path):
        stream, _, _ = fall_files
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_INPUT

    def test_missing_required_flag_is_usage_error(self):
        assert main(["run", "--input", "x.jsonl"]) == EXIT_USAGE

    def test_corrupt_line_mid_stream(self, fall_files, tmp_path):
        stream, _, rules = fall_files
        lines = stream.read_text().splitlines()
        # corrupt a line in the second window, keeping window one intact
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:400] + ["{ corrupt"]) + "\n")
        out = tmp_path / "broken.out.jsonl"
        rc = main(["--quiet", "run", "--input", str(broken),
                   "--rules", str(rules), "--out", str(out)])
        assert rc == EXIT_INPUT
        # the first window's notification was still flushed before the error
        notes = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(notes) >= 1

    @pytest.mark.parametrize("line", [
        '{"start_ms":0,"end_ms":100}',
        '{"kind":"fall_detection","start_ms":100,"end_ms":100}',
        '{ not json',
        '{"kind":"fall_detection","start_ms":"0","end_ms":100}',
        '["fall_detection",0,100]',
    ], ids=["missing-kind", "empty-interval", "not-json", "start-string",
            "json-list"])
    def test_bad_truth_file_exits_2_before_the_run(self, fall_files,
                                                   tmp_path, line):
        stream, truth, rules = fall_files
        bad = tmp_path / "bad.truth"
        bad.write_text(truth.read_text() + line + "\n")
        out = tmp_path / "t.jsonl"
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--out", str(out),
                   "--truth", str(bad)])
        assert rc == EXIT_INPUT
        assert not out.exists()   # rejected before any output was opened

    @staticmethod
    def run_over_prefilled(tmp_path, stream, rules, *args):
        """Run with both output files already holding bytes; return the
        exit code and whether both files kept their bytes."""
        out = tmp_path / "kept.jsonl"
        metrics = tmp_path / "kept.jsonl.metrics.jsonl"
        out.write_bytes(b"earlier notifications\n")
        metrics.write_bytes(b"earlier metrics\n")
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--out", str(out), *args])
        kept = (out.read_bytes() == b"earlier notifications\n"
                and metrics.read_bytes() == b"earlier metrics\n")
        return rc, kept

    def test_missing_input_exits_2_before_any_output(self, fall_files, tmp_path):
        _, _, rules = fall_files
        assert self.run_over_prefilled(
            tmp_path, tmp_path / "nope.jsonl", rules) == (EXIT_INPUT, True)

    def test_headerless_input_exits_2_before_any_output(self, fall_files,
                                                        tmp_path):
        stream, _, rules = fall_files
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("\n".join(stream.read_text().splitlines()[1:]))
        assert self.run_over_prefilled(
            tmp_path, headerless, rules) == (EXIT_INPUT, True)

    @pytest.mark.parametrize("window", ["0", "-5"], ids=["zero", "negative"])
    def test_non_positive_window_exits_2_before_any_output(
            self, fall_files, tmp_path, window):
        stream, _, rules = fall_files
        assert self.run_over_prefilled(
            tmp_path, stream, rules, "--window-ms", window) == (EXIT_INPUT, True)

    @pytest.mark.parametrize("target", ["out", "metrics", "link"])
    def test_output_naming_the_input_exits_2(self, fall_files, tmp_path, target):
        """--out, <out>.metrics.jsonl or a hard link to the input: exit 2
        and the input stays byte-identical."""
        stream, _, rules = fall_files
        before = stream.read_bytes()
        out = tmp_path / "o.jsonl"
        if target == "out":
            out = stream
        elif target == "metrics":
            os.link(stream, tmp_path / "o.jsonl.metrics.jsonl")
        else:
            os.link(stream, out)
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert stream.read_bytes() == before

    def test_unopenable_output_closes_the_input(self, fall_files, tmp_path,
                                                monkeypatch):
        stream, _, rules = fall_files
        readers = []

        def recording_open_stream(source):
            readers.append(ingest.open_stream(source))
            return readers[-1]

        monkeypatch.setattr(cli, "open_stream", recording_open_stream)
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules),
                   "--out", str(tmp_path / "no-such-dir" / "o.jsonl")])
        assert rc == EXIT_INPUT
        assert len(readers) == 1
        assert list(readers[0]) == []   # closed: no frame left to read

    def test_window_override_mismatch(self, fall_files, tmp_path):
        stream, _, rules = fall_files
        out = tmp_path / "w.jsonl"
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--window-ms", "20000",
                   "--out", str(out)])
        assert rc == EXIT_OK


class TestValidate:
    def test_valid_stream(self, fall_files):
        stream, _, _ = fall_files
        assert main(["validate", str(stream)]) == EXIT_OK

    def test_invalid_stream(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"vekg-detections","version":1,'
                       '"resolution":[10,10]}\nnot json\n')
        assert main(["validate", str(bad)]) == EXIT_INPUT

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope")]) == EXIT_INPUT

    def test_blank_line_before_header_is_valid(self, fall_files, tmp_path):
        stream, _, _ = fall_files
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n  \n" + stream.read_text())
        assert main(["validate", str(padded)]) == EXIT_OK

    def test_blank_first_line_without_header_is_input_error(self, fall_files,
                                                            tmp_path):
        stream, _, _ = fall_files
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("\n" + "\n".join(stream.read_text().splitlines()[1:]))
        assert main(["validate", str(headerless)]) == EXIT_INPUT

    def test_only_blank_lines_is_an_empty_stream(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        assert main(["validate", str(blank)]) == EXIT_OK
        assert "ok: 0 frame(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("record", [
        '{"frame":"a","ts_ms":0,"objects":[]}',
        '{"frame":0,"ts_ms":1.7,"objects":[]}',
        '{"frame":0,"ts_ms":0,"objects":[1]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car","conf":0.5,'
        '"bbox":[0,0,5,5],"attrs":[1]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car","conf":0.5,'
        '"bbox":[0,0,5,5],"features":["x"]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1.7,"label":"car",'
        '"conf":0.5,"bbox":[0,0,5,5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":true,"label":"car",'
        '"conf":0.5,"bbox":[0,0,5,5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":"1","label":"car",'
        '"conf":0.5,"bbox":[0,0,5,5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car",'
        '"conf":true,"bbox":[0,0,5,5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car",'
        '"conf":"0.5","bbox":[0,0,5,5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"person",'
        '"conf":0.5,"bbox":[0,0,5,5],"keypoints":{"nose":"12"}}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"person",'
        '"conf":0.5,"bbox":[0,0,5,5],"keypoints":{"nose":[1,"2"]}}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"person",'
        '"conf":0.5,"bbox":[0,0,5,5],"keypoints":{"nose":[true,2]}}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car",'
        '"conf":0.5,"bbox":[0,0,"5",5]}]}',
        '{"frame":0,"ts_ms":0,"objects":[{"track":1,"label":"car",'
        '"conf":0.5,"bbox":[0,true,5,5]}]}',
    ], ids=["frame-string", "ts-float", "object-int", "attrs-list",
            "features-string", "track-float", "track-bool", "track-string",
            "conf-bool", "conf-string", "keypoint-string",
            "keypoint-y-string", "keypoint-x-bool", "bbox-string",
            "bbox-bool"])
    def test_malformed_record_is_input_error(self, tmp_path, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"vekg-detections","version":1,'
                       '"resolution":[10,10]}\n' + record + "\n")
        assert main(["validate", str(bad)]) == EXIT_INPUT

    def test_malformed_header_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"vekg-detections","resolution":"ab"}\n')
        assert main(["validate", str(bad)]) == EXIT_INPUT

    def test_non_utf8_stream_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"format":"vekg-detections","version":1,'
                        b'"resolution":[10,10]}\n{"frame":0,"x":"\xff"}\n')
        assert main(["validate", str(bad)]) == EXIT_INPUT


class TestRuleParams:
    """A bad rule config is rejected at load, whatever the stream holds."""

    @staticmethod
    def run_with(tmp_path, actors, rule, doc=None, args=(), text=None):
        """Run 30 frames of ``actors`` under the rules file ``doc``, by
        default ``{"rules": [rule]}``, or under the YAML ``text``."""
        stream = tmp_path / "s.jsonl"
        lines = ['{"format":"vekg-detections","version":1,'
                 '"resolution":[640,480]}']
        for i in range(30):
            objs = [{"track": t, "label": label, "conf": 0.9,
                     "bbox": [x + 3 * i, y, w, h]}
                    for t, label, (x, y, w, h) in actors]
            lines.append(json.dumps({"frame": i, "ts_ms": 33 * i,
                                     "objects": objs}))
        stream.write_text("\n".join(lines) + "\n")
        rules = tmp_path / "r.yaml"
        if text is None:
            text = yaml.safe_dump({"rules": [rule]} if doc is None else doc)
        rules.write_text(text)
        out = tmp_path / "o.jsonl"
        rc = main(["--quiet", "run", "--input", str(stream),
                   "--rules", str(rules), "--out", str(out), *args])
        return rc, out

    @pytest.mark.parametrize("actors", [
        [(1, "person", [10, 10, 40, 90])],
        [(1, "person", [10, 10, 40, 90]), (2, "horse", [0, 60, 100, 80])],
    ], ids=["no-horse", "person-and-horse"])
    def test_non_numeric_param_exits_2(self, tmp_path, actors):
        rc, out = self.run_with(tmp_path, actors, {
            "id": "ride", "kind": "horse_ride", "window_ms": 500,
            "params": {"min_frames": "abc"}})
        assert rc == EXIT_INPUT
        assert not out.exists()   # rejected before the stream was read

    @pytest.mark.parametrize("rule", [
        {"id": "f", "kind": "fall_detection", "params": {"penalty": -1}},
        {"id": "f", "kind": "fall_detection", "labels": 5},
        {"id": "f", "kind": "fall_detection", "window_ms": "soon"},
        {"id": "p", "kind": "parking_slot_status",
         "params": {"slots": 5, "overlap_threshold": 0.5}},
        {"id": "p", "kind": "parking_slot_status",
         "params": {"slots": [[0, 0, 50, 50]], "overlap_threshold": "half"}},
        {"id": "r", "kind": "horse_ride", "labels": ["person"]},
        {"id": "r", "kind": "bike_ride", "labels": ["person", "bike", "horse"]},
        {"id": "r", "kind": "horse_ride", "labels": ["person", "person"]},
        {"id": "t", "kind": "high_volume_traffic",
         "params": {"region": [[0, 0], [50, 0], [50, 50]],
                    "count_threshold": float("nan")}},
        {"id": "r", "kind": "horse_ride", "labels": []},
        {"id": "f", "kind": "fall_detection", "labels": ""},
        {"id": "f", "kind": "fall_detection", "window_ms": 1.9},
        {"id": "f", "kind": "fall_detection", "params": {"still_frames": 2.7}},
        {"id": "f", "kind": "fall_detection", "params": {"still_frame": 3}},
        {"id": "h", "kind": "handshake", "params": {"gap_frames": 5}},
        {"id": "p", "kind": "punch", "params": {"gap_frames": 50}},
    ], ids=["negative-penalty", "labels-int", "window-string", "slots-int",
            "threshold-string", "ride-one-label", "ride-three-labels",
            "ride-same-labels", "threshold-nan", "labels-empty",
            "labels-empty-string", "window-fraction", "int-param-fraction",
            "unknown-param", "handshake-gap-frames", "punch-gap-frames"])
    def test_bad_rule_config_exits_2(self, tmp_path, rule):
        rc, _ = self.run_with(tmp_path, [(1, "person", [10, 10, 40, 90])], rule)
        assert rc == EXIT_INPUT


    @pytest.mark.parametrize("doc", [{"rules": []}, [], {"rules": 5}, 5,
                                     {"rules": None}, {"rules": "fall"}],
                             ids=["empty-list", "bare-empty-list", "rules-int",
                                  "bare-int", "rules-null", "rules-string"])
    def test_empty_or_non_list_rule_file_exits_2(self, tmp_path, doc):
        rc, out = self.run_with(tmp_path, [(1, "person", [10, 10, 40, 90])],
                                None, doc=doc)
        assert rc == EXIT_INPUT
        assert not out.exists()   # rejected before the stream was read

    def test_deeply_nested_rules_file_exits_2(self, tmp_path, capsys):
        depth = 2000   # past the interpreter's recursion limit
        rc, out = self.run_with(tmp_path, [], None,
                                text="rules: " + "[" * depth + "]" * depth)
        assert rc == EXIT_INPUT
        assert "recursion" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "rules: [{id: f, kind: fall_detection, window_ms: 2020-13-45}]",
        "rules: [{id: f, kind: fall_detection, window_ms: %s}]" % ("9" * 5000),
    ], ids=["bad-date", "integer-past-digit-limit"])
    def test_yaml_value_that_cannot_be_built_exits_2(self, tmp_path, text):
        rc, out = self.run_with(tmp_path, [], None, text=text)
        assert rc == EXIT_INPUT
        assert not out.exists()

    # six levels of 9-way aliases: a 300-byte file whose deepest value
    # prints as 2.8 MB, and nine levels would print as about 2 GB
    ALIASES = "a: &l0 [x, x, x, x, x, x, x, x, x]\n" + "".join(
        f"b{k}: &l{k} [{', '.join([f'*l{k - 1}'] * 9)}]\n" for k in range(1, 6))

    @pytest.mark.parametrize("rules", [
        "[*l5]",
        "[{id: r, kind: *l5}]",
        "[{id: *l5, kind: fall_detection}]",
        "[{id: t, kind: high_volume_traffic, params: {region: [[0, 0], [9, 0],"
        " [9, 9]], count_threshold: *l5}}]",
        "[{id: q, kind: attribute_query, params: {attribute: color,"
        " value: *l5}}]",
    ], ids=["rule", "kind", "id", "count-threshold", "attribute-value"])
    def test_aliased_value_exits_2_with_a_short_message(self, tmp_path, capsys,
                                                        rules):
        rc, _ = self.run_with(tmp_path, [], None,
                              text=self.ALIASES + "rules: " + rules)
        assert rc == EXIT_INPUT
        assert len(capsys.readouterr().err) < 1024

    def test_numeric_id_and_attribute_value_load(self, tmp_path):
        rc, out = self.run_with(tmp_path, [(1, "car", [10, 10, 40, 90])], None,
                                doc={"rules": [
                                    {"id": 7, "kind": "attribute_query",
                                     "params": {"attribute": 3, "value": 1.5}}]})
        assert rc == EXIT_OK
        assert out.read_text() == ""

    def test_empty_rule_list_with_window_length_runs(self, tmp_path):
        rc, out = self.run_with(tmp_path, [(1, "person", [10, 10, 40, 90])],
                                None, doc={"rules": []}, args=["--window-ms", "500"])
        assert rc == EXIT_OK
        assert out.read_text() == ""
        records = (tmp_path / "o.jsonl.metrics.jsonl").read_text().splitlines()
        assert len(records) == 2   # 30 frames at 33 ms in 500 ms windows


def test_timestamp_gap_writes_one_record_per_empty_run(tmp_path):
    """Two frames 100 s apart in 10 ms windows: the 9,999 empty windows
    between them come as one metrics record spanning them all."""
    stream = tmp_path / "gap.jsonl"
    lines = ['{"format":"vekg-detections","version":1,"resolution":[640,480]}']
    for i, ts in enumerate((0, 100_000)):
        lines.append(json.dumps({"frame": i, "ts_ms": ts, "objects": [
            {"track": 1, "label": "car", "conf": 0.9, "bbox": [1, 1, 5, 5]}]}))
    stream.write_text("\n".join(lines) + "\n")
    rules = tmp_path / "r.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"id": "a", "kind": "attribute_query", "window_ms": 10,
         "params": {"attribute": "color", "value": "red"}}]}))
    out = tmp_path / "o.jsonl"
    assert main(["--quiet", "run", "--input", str(stream), "--rules", str(rules),
                 "--out", str(out)]) == EXIT_OK
    records = [json.loads(l) for l in
               (tmp_path / "o.jsonl.metrics.jsonl").read_text().splitlines()]
    assert len(records) <= 2 + 1
    assert [(r["window"], r["start_ms"], r["end_ms"]) for r in records] == [
        (0, 0, 10), (1, 10, 100_000), (10_000, 100_000, 100_010)]
    assert records[1]["reduction"]["vekg_nodes"] == 0


def test_extreme_aspect_ratio_is_not_an_internal_error(tmp_path):
    # a finite box whose aspect ratio (1e210) overflows a squared floor
    stream = tmp_path / "s.jsonl"
    lines = ['{"format":"vekg-detections","version":1,"resolution":[640,480]}']
    for i in range(20):
        bbox = [100, 100, 40, 100] if i < 10 else [100, 100, 1e200, 1e-10]
        lines.append(json.dumps({"frame": i, "ts_ms": 33 * i, "objects": [
            {"track": 1, "label": "person", "conf": 0.9, "bbox": bbox}]}))
    stream.write_text("\n".join(lines) + "\n")
    rules = tmp_path / "r.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"id": "f", "kind": "fall_detection", "window_ms": 10_000}]}))
    rc = main(["--quiet", "run", "--input", str(stream), "--rules", str(rules),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc in (EXIT_OK, EXIT_INPUT)


def test_ride_speed_of_a_far_rider_is_not_an_internal_error(tmp_path):
    # a finite rider x of 1e300 gives a velocity whose square overflows a
    # float; the ride rule must take its length without squaring
    stream, rules = tmp_path / "s.jsonl", tmp_path / "r.yaml"
    assert main(["--quiet", "gen", "horse_ride_positive", "--out", str(stream),
                 "--truth", str(tmp_path / "t.jsonl"),
                 "--rules", str(rules)]) == EXIT_OK
    lines = stream.read_text().splitlines()
    record = json.loads(lines[10])
    for o in record["objects"]:
        if o["label"] == "person":
            o["bbox"][0] = 1e300
    lines[10] = json.dumps(record)
    stream.write_text("\n".join(lines) + "\n")
    assert main(["--quiet", "run", "--input", str(stream), "--rules", str(rules),
                 "--out", str(tmp_path / "o.jsonl")]) == EXIT_OK


@pytest.mark.parametrize("kind", ["handshake", "punch"])
def test_no_minimum_phase_is_not_an_internal_error(tmp_path, kind):
    # two persons never seen together: every wrist distance is X, and a
    # zero min_phase_frames let the empty series through to be indexed
    arm = {"right_shoulder": [10, 10], "right_wrist": [12, 30],
           "right_hip": [10, 50]}
    stream = tmp_path / "s.jsonl"
    lines = ['{"format":"vekg-detections","version":1,"resolution":[640,480]}']
    for i in range(10):
        lines.append(json.dumps({"frame": i, "ts_ms": 33 * i, "objects": [
            {"track": 1 + i // 5, "label": "person", "conf": 0.9,
             "bbox": [0, 0, 10, 50], "keypoints": arm}]}))
    stream.write_text("\n".join(lines) + "\n")
    rules = tmp_path / "r.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"id": "h", "kind": kind, "params": {"min_phase_frames": 0}}]}))
    rc = main(["--quiet", "run", "--input", str(stream), "--rules", str(rules),
               "--out", str(tmp_path / "o.jsonl")])
    assert rc == EXIT_OK


class TestBench:
    def test_street_report(self, capsys, tmp_path):
        rc = main(["--quiet", "bench", "street"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)

        stream, rules = tmp_path / "s.jsonl", tmp_path / "r.yaml"
        out = tmp_path / "notes.jsonl"
        assert main(["gen", "street", "--out", str(stream), "--truth",
                     str(tmp_path / "s.truth"), "--rules", str(rules)]) == EXIT_OK
        assert main(["--quiet", "run", "--input", str(stream), "--rules",
                     str(rules), "--out", str(out)]) == EXIT_OK
        notes = out.read_text().splitlines()
        records = [json.loads(l) for l in
                   (tmp_path / "notes.jsonl.metrics.jsonl").read_text().splitlines()]

        assert len(notes) >= 1   # the scenario's rules ran and fired
        assert report["notifications"] == len(notes)
        assert report["windows"] == len(records)
        for key in ("rin", "rie"):
            assert report[f"{key}_median"] == statistics.median(
                r["reduction"][key] for r in records)
        for key in ("vekg_construction_ms", "tag_construction_ms",
                    "tag_search_ms", "total_ms"):
            assert report[f"{key}_median"] >= 0


def test_help_exits_zero():
    assert main(["--help"]) == EXIT_OK
