"""Tumbling time windows over a stream of frames (or of ``VekgGraph``s).

Windows are left-closed right-open, aligned to the first observed
timestamp, and emitted as soon as the first item at or beyond their
end arrives (or at end of stream).  Empty windows are emitted so that
absence-based rules can still fire; a run of consecutive empty windows
comes as one state spanning them all, so the work stays bounded by the
number of items, not by the stream's time span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .errors import GraphOutsideWindow, NonPositiveLength


@dataclass(frozen=True)
class WindowState:
    """One window's bounds and its ordered items; a run's items are frames."""

    start: int
    end: int
    graphs: Tuple

    def __post_init__(self):
        for g in self.graphs:
            if not self.start <= g.timestamp < self.end:
                raise GraphOutsideWindow(
                    f"item at {g.timestamp} ms outside window "
                    f"[{self.start}, {self.end})")


def time_window(items, length: int) -> Iterator[WindowState]:
    """Partition an ordered item stream into tumbling windows of ``length`` ms."""
    if length <= 0:
        raise NonPositiveLength(f"window length must be positive, got {length}")
    t0 = None
    index = 0          # current window ordinal
    pending = []
    for g in items:
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
