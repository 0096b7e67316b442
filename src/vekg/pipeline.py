"""Pipeline wiring: ingest -> window -> aggregate -> match.

One synchronous chain of generator stages; each window's result is
yielded as soon as its closing frame has been read, and the window is let
go before the next frame is read.  Frames are windowed as they are;
``aggregate``'s pair pass builds each window's VEKG edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

from .metrics import LatencyReport
from .rules import Matcher, MatchNotification, RuleSet
from .tag import ReductionReport, VekgTag, aggregate, reduction_report
from .windowing import time_window


@dataclass
class WindowResult:
    index: int
    tag: VekgTag
    notifications: List[MatchNotification]
    latency: LatencyReport
    reduction: ReductionReport


def run_pipeline(frames, ruleset: RuleSet,
                 window_ms: Optional[int] = None) -> Iterator[WindowResult]:
    """Run the full matching pipeline over a frame stream.

    Yields one WindowResult per window, in window order; a run of empty
    windows comes as one result, and ``index`` counts every window.
    """
    needs = ruleset.relation_needs()
    length = ruleset.window_ms(window_ms)
    matcher = Matcher(ruleset)
    index = 0
    for window in time_window(frames, length):
        t0 = time.perf_counter()
        tag = aggregate(window, needs)
        t1 = time.perf_counter()
        notifications = matcher.match(tag)
        t2 = time.perf_counter()
        yield WindowResult(
            index=index, tag=tag, notifications=notifications,
            latency=LatencyReport(
                vekg_construction_ms=tag.pairs_ms,
                tag_construction_ms=(t1 - t0) * 1000.0 - tag.pairs_ms,
                tag_search_ms=(t2 - t1) * 1000.0),
            reduction=reduction_report(window, tag))
        index += (window.end - window.start) // length
        # let go of the window before reading on: freeing its records
        # would otherwise fall inside the next window's close
        del window, tag, notifications
