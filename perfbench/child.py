"""Runs one ``vekg run`` in this process and records when things happen.

Usage (from ``run.py``, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py REPORT TRACE METRICS_PATH -- run --input - ...

The detection stream arrives on stdin from the benchmark process, which
replays the generated file as fast as this process reads it.  Recorded on
the monotonic clock shared with the parent:

- when each stdin line is handed to the program, and when stdin ends;
- when each line is written to METRICS_PATH (``<out>.metrics.jsonl``);
  the program writes one line per window, after that window's
  notifications, plus the accuracy line.

The process, and so every thread the program starts, is pinned to one
CPU.  Under the interpreter lock the program runs Python on one core at a
time anyway; left free on two CPUs, its threaded pipeline paid for
handing the lock between cores, which halved its throughput on street and
tripled the run-to-run spread.

With TRACE = 1 the per-layer tracer is installed as well.  The report is
written as JSON to REPORT when the run has ended; the exit code is the
program's.
"""

from __future__ import annotations

import builtins
import json
import os
import resource
import sys
import time

clock = time.monotonic   # CLOCK_MONOTONIC: comparable with the parent's clock


class TimedLines:
    """Iterates an input stream, stamping each line as it is handed over."""

    def __init__(self, fh):
        self.fh = fh
        self.times = []
        self.eof = None

    def __iter__(self):
        times = self.times
        for line in self.fh:
            times.append(clock())
            yield line
        self.eof = clock()


class TimedWrites:
    """A file whose every write is stamped once it has been made."""

    def __init__(self, fh, times):
        self._fh = fh
        self._times = times

    def write(self, text):
        n = self._fh.write(text)
        self._times.append(clock())
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def main(argv) -> int:
    report_path, trace, metrics_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE METRICS_PATH -- VEKG-ARGS")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import vekg.cli

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    lines = TimedLines(sys.stdin)
    sys.stdin = lines
    writes = []
    real_open = builtins.open

    def open_timed(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return TimedWrites(fh, writes) if file == metrics_path else fh

    builtins.open = open_timed
    try:
        rc = vekg.cli.main(cli_args)
    finally:
        builtins.open = real_open
    report = {"rc": rc, "line_times": lines.times, "eof": lines.eof,
              "write_times": writes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["trace"] = tracer.totals()
        tracer.write(report_path + ".spans.jsonl")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
