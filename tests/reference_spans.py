"""Reference still-span code: ``no_motion_span`` and ``_merge_spans``,
which ``vekg.rules`` replaced with one call to its gap-bridging run
finder, kept verbatim as the oracle of the differential span test.
Not used by the program.
"""

from __future__ import annotations

from typing import List, Sequence

from vekg.tag import X
from vekg.temporal import Interval


def no_motion_span(motion: Sequence, alpha: float,
                   min_len: int) -> List[Interval]:
    """Maximal runs of >= min_len consecutive speeds <= alpha (X breaks runs)."""
    spans = []
    start = None
    for i, v in enumerate(motion):
        still = v is not X and v <= alpha
        if still and start is None:
            start = i
        elif not still and start is not None:
            if i - start >= min_len:
                spans.append(Interval(start, i))
            start = None
    if start is not None and len(motion) - start >= min_len:
        spans.append(Interval(start, len(motion)))
    return spans


def _merge_spans(spans, max_gap: int):
    """Join consecutive intervals separated by at most max_gap slots."""
    merged = []
    for s in spans:
        if merged and s.start - merged[-1].end <= max_gap:
            merged[-1] = Interval(merged[-1].start, s.end)
        else:
            merged.append(s)
    return merged
