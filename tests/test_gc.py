"""The cyclic garbage collector around ``vekg run`` and ``vekg validate``.

Both commands turn the collector off for their stream loop and put back
the state it had before.  That is safe only because a run makes no
reference cycles: reference counting frees every record it allocates.
The first test pins that premise on every built-in scenario, clean and
with the noise of acceptance 8, and on the custom scenes whose outputs
``test_outputs_unchanged`` pins.  A change that makes a cycle (an object
that points back to its window, say) fails it and has to say so.
"""

import gc

import pytest
import yaml

import test_outputs_unchanged as pinned
import vekg.cli
from vekg import synth
from vekg.cli import EXIT_INPUT, EXIT_OK, main

NOISE = (2.0, 0.05, 7)   # jitter px, dropout, seed (as in acceptance 8)


def _scenes():
    scenes = []
    for sc in synth.builtin_scenarios():
        scenes.append((sc.name, sc))
        scenes.append((f"{sc.name}_noisy", sc.with_noise(*NOISE)))
    for make in (pinned._dense_scene, pinned._mixed_labels_scene,
                 pinned._keypoint_scene, pinned._regions_scene):
        sc = make()
        scenes.append((sc.name, sc))
    return scenes


SCENES = _scenes()


@pytest.mark.parametrize("scenario", [sc for _, sc in SCENES],
                         ids=[name for name, _ in SCENES])
def test_a_run_makes_no_reference_cycles(scenario, tmp_path):
    stream, truth = str(tmp_path / "s.jsonl"), str(tmp_path / "t.jsonl")
    rules = tmp_path / "r.yaml"
    synth.generate(scenario, stream, truth)
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in scenario.rule_configs]}))
    gc.collect()
    gc.disable()
    try:
        rc = main(["--quiet", "run", "--input", stream, "--rules", str(rules),
                   "--out", str(tmp_path / "o.jsonl"), "--truth", truth])
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert rc == EXIT_OK
    assert unreachable == 0


# --- the collector's state comes back ---

HEADER = '{"format": "vekg-detections", "version": 1, "resolution": [640, 480]}'
FRAMES = [f'{{"frame": {i}, "ts_ms": {40 * i}, "objects": [{{"track": 1, '
          f'"label": "car", "conf": 0.9, "bbox": [{10 + i}, 10, 20, 20]}}]}}'
          for i in range(30)]
STREAMS = {
    "ok": ([HEADER] + FRAMES, EXIT_OK),
    "bad header": (['{"format": "other"}'] + FRAMES, EXIT_INPUT),
    "bad line mid-stream": ([HEADER] + FRAMES[:20] + ["{"] + FRAMES[20:], EXIT_INPUT),
}
RULES = {"rules": [{"id": "cars", "kind": "high_volume_traffic", "window_ms": 400,
                    "params": {"region": [[0, 0], [640, 0], [640, 480], [0, 480]],
                               "count_threshold": 0.5}}]}


def _command(command, tmp_path, lines):
    stream = tmp_path / "s.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    if command == "validate":
        return ["validate", str(stream)]
    rules = tmp_path / "r.yaml"
    rules.write_text(yaml.safe_dump(RULES))
    return ["--quiet", "run", "--input", str(stream), "--rules", str(rules),
            "--out", str(tmp_path / "o.jsonl")]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("command", ["run", "validate"])
def test_collector_state_comes_back(command, stream, enabled, tmp_path):
    lines, expected = STREAMS[stream]
    argv = _command(command, tmp_path, lines)
    (gc.enable if enabled else gc.disable)()
    try:
        rc = main(argv)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert rc == expected
    if stream == "bad header" and command == "run":
        assert not (tmp_path / "o.jsonl").exists()   # refused before any output


def test_run_loop_runs_with_the_collector_off(tmp_path, monkeypatch):
    states = []
    run_pipeline = vekg.cli.run_pipeline

    def recorded(*args, **kwargs):
        for result in run_pipeline(*args, **kwargs):
            states.append(gc.isenabled())
            yield result

    monkeypatch.setattr(vekg.cli, "run_pipeline", recorded)
    assert gc.isenabled()
    assert main(_command("run", tmp_path, STREAMS["ok"][0])) == EXIT_OK
    assert gc.isenabled()
    assert states and not any(states)


def test_validate_loop_runs_with_the_collector_off(tmp_path, monkeypatch):
    states = []
    open_stream = vekg.cli.open_stream

    def recorded(path):
        for frame in open_stream(path):
            states.append(gc.isenabled())
            yield frame

    monkeypatch.setattr(vekg.cli, "open_stream", recorded)
    assert gc.isenabled()
    assert main(_command("validate", tmp_path, STREAMS["ok"][0])) == EXIT_OK
    assert gc.isenabled()
    assert len(states) == len(FRAMES) and not any(states)
