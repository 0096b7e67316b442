"""Tumbling time windows over the graph stream.

Windows are left-closed right-open, aligned to the first observed
timestamp, and emitted as soon as the first graph at or beyond their
end arrives (or at end of stream).  Empty windows are emitted so that
absence-based rules can still fire; a run of consecutive empty windows
comes as one state spanning them all, so the work stays bounded by the
number of graphs, not by the stream's time span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .errors import GraphOutsideWindow, NonPositiveLength
from .graph import VekgGraph


@dataclass(frozen=True)
class WindowState:
    """One window's bounds and its ordered graph subsequence."""

    start: int
    end: int
    graphs: Tuple[VekgGraph, ...]

    def __post_init__(self):
        for g in self.graphs:
            if not self.start <= g.timestamp < self.end:
                raise GraphOutsideWindow(
                    f"graph at {g.timestamp} ms outside window "
                    f"[{self.start}, {self.end})")


def time_window(graphs, length: int) -> Iterator[WindowState]:
    """Partition an ordered graph stream into tumbling windows of ``length`` ms."""
    if length <= 0:
        raise NonPositiveLength(f"window length must be positive, got {length}")
    t0 = None
    index = 0          # current window ordinal
    pending = []
    for g in graphs:
        if t0 is None:
            t0 = g.timestamp
        k = (g.timestamp - t0) // length
        if k > index:
            yield WindowState(start=t0 + index * length,
                              end=t0 + (index + 1) * length,
                              graphs=tuple(pending))
            pending = []
            index += 1
            if k > index:   # the empty windows before g, as one state
                yield WindowState(start=t0 + index * length,
                                  end=t0 + k * length, graphs=())
                index = k
        pending.append(g)
    if t0 is not None:
        yield WindowState(start=t0 + index * length,
                          end=t0 + (index + 1) * length,
                          graphs=tuple(pending))
