"""Pipeline wiring: ingest -> graph build -> window/aggregate -> match.

One synchronous chain of generator stages; each window's result is
yielded as soon as its closing frame has been read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

from .graph import stream_graphs
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

    Yields one WindowResult per window, in window order.
    """
    required = ruleset.required_relations()
    length = ruleset.window_ms(window_ms)
    matcher = Matcher(ruleset)
    windows = time_window(stream_graphs(frames, required), length)
    for index, window in enumerate(windows):
        t0 = time.perf_counter()
        tag = aggregate(window, required)
        t1 = time.perf_counter()
        notifications = matcher.match(tag)
        t2 = time.perf_counter()
        yield WindowResult(
            index=index, tag=tag, notifications=notifications,
            latency=LatencyReport(
                vekg_construction_ms=sum(g.build_ms for g in window.graphs),
                tag_construction_ms=(t1 - t0) * 1000.0,
                tag_search_ms=(t2 - t1) * 1000.0),
            reduction=reduction_report(window, tag))
