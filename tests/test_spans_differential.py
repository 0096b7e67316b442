"""Differential test of the fall rule's still spans against the
reference code, which found maximal still runs (``no_motion_span``) and
then joined runs at most ``gap`` frames apart (``_merge_spans``).

``rules._still_spans`` must give the same spans, as inclusive
``(start, last)`` ordinals, on speed series drawn from X, zero, the
threshold exactly and one ulp either side of it, NaN, inf and random
floats.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_spans import _merge_spans, no_motion_span
from vekg.rules import _still_spans
from vekg.tag import X

THRESHOLDS = st.sampled_from([0.0, 6.0, 0.5, 1e-300, 1e300]) | st.floats(0, 1e6)


def reference(motion, speed, gap):
    return [(s.start, s.end - 1)
            for s in _merge_spans(no_motion_span(motion, speed, 1), gap)]


@st.composite
def series(draw):
    speed = draw(THRESHOLDS)
    value = st.sampled_from([X, 0.0, speed, math.nextafter(speed, -math.inf),
                             math.nextafter(speed, math.inf), math.nan,
                             math.inf]) | st.floats(0, 2 * speed + 1)
    return draw(st.lists(value, max_size=80)), speed


@settings(max_examples=500, deadline=None)
@given(series(), st.integers(0, 10))
def test_still_spans_match_the_reference(drawn, gap):
    motion, speed = drawn
    assert _still_spans(motion, speed, gap) == reference(motion, speed, gap)


def test_examples():
    still, moving = 0.0, 9.0
    motion = [still, still, moving, X, still, moving, moving, moving, still]
    assert _still_spans(motion, 1.0, 2) == [(0, 4), (8, 8)]
    assert _still_spans(motion, 1.0, 3) == [(0, 8)]
    assert _still_spans(motion, 1.0, 1) == [(0, 1), (4, 4), (8, 8)]
    assert _still_spans([X, moving, math.nan], 1.0, 10) == []
    assert _still_spans([], 1.0, 0) == []
