"""Per-layer spans and counts for one ``vekg run`` process.

The tracer wraps the public functions of vekg's modules at run time, from
the benchmark's own files: every module-level name, and every value of a
module-level dict, that is bound to a wrapped function is rebound to its
wrapper, so ``from .x import f`` copies are covered too.  Nothing under
``src/`` is edited.  Spans are kept in memory and written when the run has
ended.

Spans are wall-clock (``perf_counter``) and inclusive of nested calls.
Under the threaded pipeline a span also covers time its thread waited for
the interpreter lock.  Geometry and relation calls are counted, not timed,
to keep the tracing cost low.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

clock = time.perf_counter

GEOMETRY_COUNTED = ("topology", "direction", "inside_region", "overlap_ratio")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end)
        self.counts = Counter()

    # --- wrappers --------------------------------------------------------

    def timed(self, name, fn, after=None):
        spans = self.spans

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            spans.append((name, t0, clock()))
            if after is not None:
                after(out)
            return out
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def rule_search(self, fn, rule_type):
        """Time an evaluator under ``rules.<kind>.search``; the kind is read
        from the EventRule argument."""
        spans = self.spans

        def wrapper(*args, **kwargs):
            rule = next(a for a in (*args, *kwargs.values())
                        if isinstance(a, rule_type))
            t0 = clock()
            out = fn(*args, **kwargs)
            spans.append((f"rules.{rule.kind.value}.search", t0, clock()))
            return out
        return wrapper

    def result_stream(self, run_pipeline):
        """Time how long the output loop waits on each result, and how long
        it spends on a result before it asks for the next one."""
        spans = self.spans

        def wrapper(*args, **kwargs):
            results = run_pipeline(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    result = next(results)
                except StopIteration:
                    spans.append(("pipeline.result_wait", t0, clock()))
                    return
                t1 = clock()
                spans.append(("pipeline.result_wait", t0, t1))
                yield result
                spans.append(("cli.emit", t1, clock()))
        return wrapper

    # --- installation ----------------------------------------------------

    @staticmethod
    def rebind(original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` wherever a vekg module binds it."""
        for name, mod in list(sys.modules.items()):
            if not (name == "vekg" or name.startswith("vekg.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper

    def install(self) -> None:
        from vekg import cli, geometry, graph, ingest, rules, tag, temporal

        counts = self.counts
        X = tag.X

        def edges_built(g):
            counts["graph.edges_built"] += len(g.edges)

        def tag_slots(t):
            slots = xs = 0
            for rels in t.edges.values():
                for series in rels.values():
                    slots += len(series)
                    xs += sum(1 for v in series if v is X)
            counts["tag.series_slots"] += slots
            counts["tag.x_slots"] += xs

        def pelt_call(_):
            counts["temporal.pelt_calls"] += 1

        # relation functions are counted where graph build looks them up
        for rel, fn in list(graph.RELATION_FUNCS.items()):
            graph.RELATION_FUNCS[rel] = self.counted("graph.relation_evals", fn)
        for name in GEOMETRY_COUNTED:
            self.rebind(getattr(geometry, name),
                        self.counted(f"geometry.{name}_calls", getattr(geometry, name)))
        self.rebind(ingest.parse_frame,
                    self.timed("ingest.parse_frame", ingest.parse_frame))
        self.rebind(graph.build_frame_graph,
                    self.timed("graph.build_frame_graph", graph.build_frame_graph,
                               edges_built))
        self.rebind(tag.aggregate, self.timed("tag.aggregate", tag.aggregate, tag_slots))
        self.rebind(tag.reduction_report,
                    self.timed("tag.reduction_report", tag.reduction_report))
        self.rebind(tag.motion_series, self.timed("tag.motion_series", tag.motion_series))
        self.rebind(temporal.pelt_changepoints,
                    self.timed("temporal.pelt_changepoints",
                               temporal.pelt_changepoints, pelt_call))
        self.rebind(temporal.trend, self.counted("temporal.trend_calls", temporal.trend))
        for name in [n for n in vars(rules) if n.startswith("eval_")]:
            fn = getattr(rules, name)
            self.rebind(fn, self.rule_search(fn, rules.EventRule))
        rules.Matcher.match = self.timed("rules.Matcher.match", rules.Matcher.match)
        cli.run_pipeline = self.result_stream(cli.run_pipeline)

    # --- output ----------------------------------------------------------

    def totals(self) -> dict:
        """Seconds spent and calls made per span name, plus the counters."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for name, t0, t1 in self.spans:
            seconds[name] += t1 - t0
            calls[name] += 1
        return {"seconds": dict(seconds), "calls": dict(calls),
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Append the spans to ``path``; every traced process of a run adds
        its own, on the clock all processes share."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
