"""Command-line entry point.

Subcommands: run, gen, bench, validate.  `run` writes one metrics record
per window; `bench` runs a built-in scenario through the same pipeline and
reports the medians of those records.  Exit codes: 0 ok, 1 usage, 2 input
error, 3 internal error.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import statistics
import sys
from contextlib import closing, contextmanager

import click
import yaml

from .errors import VekgError
from .ingest import open_stream
from .metrics import load_truth, score
from .pipeline import run_pipeline
from .rules import register_rules

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def load_rules_file(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise VekgError(f"cannot read rules file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: a date 2020-13-45 or an integer past the digit limit
        raise VekgError(f"bad rules file {path}: {exc}") from exc
    if isinstance(doc, dict) and "rules" in doc:
        doc = doc["rules"]
    if isinstance(doc, list):
        return doc
    raise VekgError(f"rules file {path} must hold a 'rules' list")


@click.group()
@click.option("--quiet", is_flag=True, help="Suppress progress output.")
@click.pass_context
def cli(ctx, quiet):
    """Spatiotemporal event-pattern matching over detection streams."""
    ctx.ensure_object(dict)
    ctx.obj["quiet"] = quiet
    logging.basicConfig(level=logging.WARNING if quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _window_record(result) -> dict:
    """The metrics line of one window, as `run` writes it."""
    return {"window": result.index,
            "start_ms": result.tag.start, "end_ms": result.tag.end,
            "latency": result.latency.as_dict(),
            "reduction": result.reduction.as_dict()}


@contextmanager
def _collector_off():
    """The cyclic garbage collector off for the block, then as it was.

    A run makes no reference cycles (``tests/test_gc.py`` pins this), so
    the collections that a stream's many small records set off would find
    nothing to free; reference counting frees every record."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _same_file(a: str, b: str) -> bool:
    """Both paths exist and name the same file."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


@cli.command("run")
@click.option("--input", "input_path", required=True,
              help="Detection stream file, or - for stdin.")
@click.option("--rules", "rules_path", required=True, help="Rules YAML file.")
@click.option("--window-ms", type=int, default=None,
              help="Window length override in milliseconds.")
@click.option("--out", "out_path", required=True,
              help="Notification output file (JSON lines). Metrics go to "
                   "<out>.metrics.jsonl.")
@click.option("--truth", "truth_path", default=None,
              help="Optional ground-truth file; adds an accuracy report.")
@click.pass_context
def cmd_run(ctx, input_path, rules_path, window_ms, out_path, truth_path):
    """Match rules over a detection stream, streaming notifications out.

    The rules, the window length, the truth file and the stream's header
    are all checked before an output file is opened, and neither output
    may be the input file."""
    ruleset = register_rules(load_rules_file(rules_path))
    window_ms = ruleset.window_ms(window_ms)   # an empty rule set needs one
    truth = load_truth(truth_path) if truth_path else None
    metrics_path = out_path + ".metrics.jsonl"
    for path in (out_path, metrics_path):
        if input_path != "-" and _same_file(path, input_path):
            raise VekgError(f"output {path} is the input file; writing it "
                            "would destroy the stream")
    scored, count = [], 0   # notifications are kept only to be scored
    with _collector_off(), closing(open_stream(input_path)) as frames, \
            open(out_path, "w", encoding="utf-8") as out_fh, \
            open(metrics_path, "w", encoding="utf-8") as met_fh:
        for result in run_pipeline(frames, ruleset, window_ms=window_ms):
            for note in result.notifications:
                out_fh.write(json.dumps(note.as_dict(),
                                        separators=(",", ":")) + "\n")
            out_fh.flush()   # notifications stream out per window
            count += len(result.notifications)
            if truth is not None:
                scored += result.notifications
            met_fh.write(json.dumps(_window_record(result),
                                    separators=(",", ":")) + "\n")
            del result   # freed now, not inside the next window's close
        if truth is not None:
            report = score(scored, truth)
            met_fh.write(json.dumps({"accuracy": report.as_dict()},
                                    separators=(",", ":")) + "\n")
            if not ctx.obj["quiet"]:
                click.echo(f"accuracy: P={report.precision:.3f} "
                           f"R={report.recall:.3f} F={report.f_score:.3f}")
    if not ctx.obj["quiet"]:
        click.echo(f"{count} notification(s) -> {out_path}")


@cli.command("gen")
@click.argument("scenario")
@click.option("--out", "out_path", required=True, help="Stream output file.")
@click.option("--truth", "truth_path", required=True,
              help="Ground-truth output file.")
@click.option("--rules", "rules_path", default=None,
              help="Also write the scenario's rule config here (YAML).")
@click.option("--seed", type=int, default=None)
@click.option("--noise-px", type=float, default=0.0,
              help="Uniform position jitter amplitude in pixels.")
@click.option("--dropout", type=float, default=0.0,
              help="Per-object per-frame dropout probability.")
@click.pass_context
def cmd_gen(ctx, scenario, out_path, truth_path, rules_path, seed,
            noise_px, dropout):
    """Generate a built-in SCENARIO as stream + ground truth."""
    from . import synth
    sc = synth.get_scenario(scenario)
    if noise_px or dropout or seed is not None:
        sc = sc.with_noise(noise_px, dropout, seed)
    synth.generate(sc, out_path, truth_path)
    if rules_path:
        with open(rules_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}, fh)
    if not ctx.obj["quiet"]:
        click.echo(f"wrote {out_path} and {truth_path}")


@cli.command("bench")
@click.argument("scenario", default="street_10min")
@click.option("--window-ms", type=int, default=None)
def cmd_bench(scenario, window_ms):
    """Medians of the per-window records that `run` writes, over SCENARIO
    run through the real pipeline with the scenario's own rules."""
    from . import synth
    sc = synth.get_scenario(scenario)
    records, notes = [], 0
    for result in run_pipeline(synth.generate_frames(sc),
                               register_rules(sc.rule_configs),
                               window_ms=window_ms):
        records.append(_window_record(result))
        notes += len(result.notifications)
    report = {"scenario": scenario, "windows": len(records),
              "notifications": notes}
    for key in ("vekg_construction_ms", "tag_construction_ms",
                "tag_search_ms", "total_ms"):
        report[f"{key}_median"] = statistics.median(
            r["latency"][key] for r in records)
    for key in ("rin", "rie"):
        report[f"{key}_median"] = statistics.median(
            r["reduction"][key] for r in records)
    click.echo(json.dumps(report, indent=2))


@cli.command("validate")
@click.argument("stream_file")
def cmd_validate(stream_file):
    """Check a detection stream's format invariants."""
    with _collector_off():
        count = sum(1 for _frame in open_stream(stream_file))
    click.echo(f"ok: {count} frame(s)")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:
        return EXIT_OK if exc.exit_code == 0 else EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except VekgError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    except Exception as exc:   # pragma: no cover - defensive
        log.exception("internal error")
        click.echo(f"internal error: {exc}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
