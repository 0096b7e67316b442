"""Closed-loop benchmark of ``vekg run`` on the street, crowd and clips workloads.

    python3 perfbench/run.py --workload street --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` into
``perfbench/out/`` (see workloads.py).  A round replays each input into
its own ``vekg --quiet run --input -`` process, whose stdin is the input
file, so frames arrive as fast as the process reads them.  Rounds repeat
until ``--seconds`` have passed, and every round is whole.  Every
process's output is checked by checks.py.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 60

clock = time.monotonic   # the clock child.py stamps with


@dataclass
class Outcome:
    """One ``vekg run`` process: what it cost and whether it was right."""

    ops: int
    failed: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)
    setup_s: float = 0.0
    frames: int = 0
    timed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    output_bytes: int = 0
    trace: Optional[dict] = None


class Prepared:
    """A clip with the expectations the checkers need, computed once."""

    def __init__(self, workload: str, clip):
        self.workload = workload
        self.clip = clip
        frames = checks.read_stream(clip.stream)
        self.frames = len(frames)
        self.windows = checks.Windows(frames, clip.window_ms)
        self.truth = checks.read_jsonl(clip.truth) if clip.truth else None
        self.ops = 1 if workload == "clips" else len(self.windows)

    def check(self, notes, records) -> List[List[str]]:
        clip = self.clip
        if self.workload == "street":
            return checks.check_street(self.windows, clip.rule_configs[0], notes, records)
        if self.workload == "crowd":
            return checks.check_crowd(self.windows, clip.planted, clip.riding,
                                      notes, records)
        return checks.check_clip(self.windows, clip.role, self.truth, notes, records)


def invoke(prep: Prepared, rundir: str, trace: bool) -> Outcome:
    """Replay one input into a fresh ``vekg run`` process and check its output."""
    clip = prep.clip
    out = os.path.join(rundir, "notes.jsonl")
    metrics = out + ".metrics.jsonl"
    report = os.path.join(rundir, "report.json")
    for path in (out, metrics, report):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, CHILD, report, "1" if trace else "0", metrics, "--",
           "--quiet", "run", "--input", "-", "--rules", clip.rules, "--out", out]
    if clip.truth:
        cmd += ["--truth", clip.truth]
    env = dict(os.environ, PYTHONPATH=SRC)
    result = Outcome(ops=prep.ops)

    with open(clip.stream, "rb") as stream, \
            open(os.path.join(rundir, "stderr.txt"), "wb") as err:
        t_spawn = clock()
        proc = subprocess.Popen(cmd, stdin=stream, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
    if rc != 0 or not os.path.exists(report):
        with open(os.path.join(rundir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-400:]
        result.failed = prep.ops
        result.errors.append(f"{clip.name}: exit {rc}: {tail}")
        return result
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)

    line_times, writes = rep["line_times"], rep["write_times"]
    expected_writes = len(prep.windows) + (1 if clip.truth else 0)
    if len(line_times) != prep.frames + 1 or len(writes) != expected_writes:
        result.failed = prep.ops
        result.wrong = prep.ops
        result.errors.append(f"{clip.name}: read {len(line_times) - 1} of {prep.frames}"
                             f" frames, wrote {len(writes)} of {expected_writes}"
                             " metrics lines")
        return result

    notes = checks.read_jsonl(out)
    records = checks.read_jsonl(metrics)
    for errs in prep.check(notes, records):
        if errs:
            result.failed += 1
            result.wrong += 1
            result.errors += [f"{clip.name}: {e}" for e in errs[:3]]

    t_first = line_times[1]
    result.setup_s = t_first - t_spawn
    result.frames = prep.frames
    result.timed_s = writes[-1] - t_first
    for k, closing in enumerate(prep.windows.closing):
        handed = line_times[closing + 1] if closing < prep.frames else rep["eof"]
        result.latencies_ms.append((writes[k] - handed) * 1000.0)
    result.rss_mb = rep["maxrss_kb"] / 1024.0
    result.output_bytes = os.path.getsize(out) + os.path.getsize(metrics)
    result.trace = rep.get("trace")
    return result


def end_to_end(outcomes: List[Outcome]) -> dict:
    ok = [o for o in outcomes if o.frames]
    return {
        "setup_s": (statistics.median(o.setup_s for o in ok), "s"),
        "frames_per_s": (sum(o.frames for o in ok) / sum(o.timed_s for o in ok),
                         "frames/s"),
        "window_latency_p50_ms": (statistics.median(
            lat for o in ok for lat in o.latencies_ms), "ms"),
        "peak_rss_mb": (statistics.median(o.rss_mb for o in ok), "MB"),
    }


def per_layer(traced: List[Outcome], untraced: List[Outcome], rounds: int) -> dict:
    """Per-layer metrics from the traced processes; counts are per round."""
    import workloads
    ok = [o for o in traced if o.trace is not None]
    seconds: Counter = Counter()
    counts: Counter = Counter()
    for o in ok:
        seconds.update(o.trace["seconds"])
        counts.update(o.trace["counts"])
    frames = sum(o.frames for o in ok)
    windows = sum(len(o.latencies_ms) for o in ok)

    def us_per_frame(name):
        return (seconds[name] / frames * 1e6, "us")

    def ms_per_window(name):
        return (seconds[name] / windows * 1e3, "ms")

    def per_round(name):
        return (counts[name] / rounds, "count")

    fps = end_to_end(ok)["frames_per_s"][0]
    fps_plain = end_to_end(untraced)["frames_per_s"][0]
    slots = counts["tag.series_slots"]
    out = {
        "ingest.parse_us_per_frame": us_per_frame("ingest.parse_frame"),
        "graph.build_us_per_frame": us_per_frame("graph.build_frame_graph"),
        "graph.edges_built": per_round("graph.edges_built"),
        "graph.relation_evals": per_round("graph.relation_evals"),
        "geometry.topology_calls": per_round("geometry.topology_calls"),
        "geometry.direction_calls": per_round("geometry.direction_calls"),
        "geometry.inside_region_calls": per_round("geometry.inside_region_calls"),
        "geometry.overlap_ratio_calls": per_round("geometry.overlap_ratio_calls"),
        "tag.aggregate_ms_per_window": ms_per_window("tag.aggregate"),
        "tag.series_slots": per_round("tag.series_slots"),
        "tag.x_slot_share": (counts["tag.x_slots"] / slots if slots else 0.0, "ratio"),
        "tag.reduction_ms_per_window": ms_per_window("tag.reduction_report"),
        "tag.motion_series_ms_per_window": ms_per_window("tag.motion_series"),
        "rules.match_ms_per_window": ms_per_window("rules.Matcher.match"),
    }
    for kind in workloads.RULE_KINDS:
        out[f"rules.{kind}.search_ms_per_window"] = ms_per_window(f"rules.{kind}.search")
    out.update({
        "temporal.pelt_ms_per_window": ms_per_window("temporal.pelt_changepoints"),
        "temporal.pelt_calls": per_round("temporal.pelt_calls"),
        "temporal.trend_calls": per_round("temporal.trend_calls"),
        "pipeline.result_wait_ms_per_window": ms_per_window("pipeline.result_wait"),
        "cli.emit_ms_per_window": ms_per_window("cli.emit"),
        "cli.output_bytes": (sum(o.output_bytes for o in ok) / rounds, "bytes"),
        "trace.overhead_share": (1.0 - fps / fps_plain, "ratio"),
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    rundir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    clips = workloads.build(workload, os.path.join(rundir, "inputs"), seed)
    prepared = [Prepared(workload, clip) for clip in clips]

    outcomes = {True: [], False: []}   # keyed by traced
    rounds = {True: 0, False: 0}
    deadline = clock() + seconds
    done = 0
    while done < (2 if trace else 1) or clock() < deadline:
        traced = trace and done % 2 == 0   # traced rounds alternate with plain ones
        for prep in prepared:
            outcomes[traced].append(invoke(prep, rundir, traced))
        rounds[traced] += 1
        done += 1

    every = outcomes[True] + outcomes[False]
    errors = [e for o in every for e in o.errors]
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    needed = (True, False) if trace else (False,)
    if not all(any(o.frames for o in outcomes[k]) for k in needed):
        raise SystemExit("perfbench: no run of the program completed")
    if trace:
        metrics = per_layer(outcomes[True], outcomes[False], rounds[True])
    else:
        metrics = end_to_end(outcomes[False])
    print(f"perfbench: {workload} seed {seed}: {done} round(s), {len(every)} process(es),"
          f" {sum(o.frames for o in every)} frames", file=sys.stderr)
    if workload != "clips":
        print("perfbench: frames/s per process: " + " ".join(
            f"{o.frames / o.timed_s:.0f}" for o in every if o.frames), file=sys.stderr)
    if not errors:
        if trace:
            os.replace(os.path.join(rundir, "report.json.spans.jsonl"),
                       os.path.join(WORK, f"{workload}-{seed}.spans.jsonl"))
        shutil.rmtree(rundir, ignore_errors=True)
    return {"correct": not any(o.wrong for o in every),
            "attempted": sum(o.ops for o in every),
            "failed": sum(o.failed for o in every),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("street", "crowd", "clips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vekg", "cli.py")):
        print(f"perfbench: no vekg source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
