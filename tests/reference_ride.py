"""Reference ride-rule code: ``eval_ride`` and ``_velocity`` as they were
before ``vekg.rules.eval_ride`` learned to skip the pairs that cannot
ride and to compute each velocity once, kept verbatim as the oracle of
the differential ride test.  Not used by the program.

The reference walks every (rider, mount) pair frame by frame and
computes both tracks' velocities at every frame where the rider overlaps
and is above the mount.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from vekg.geometry import DirectionClass
from vekg.rules import (EventRule, MatchNotification, _OVERLAP_TOPOLOGIES,
                        _note, _runs_with_gap, _tracks_with_label)
from vekg.tag import POSITION, VekgTag, X, edge_series


def _velocity(positions: Sequence, i: int, max_back: int = 6):
    """Centroid displacement vector from the nearest earlier present frame."""
    if positions[i] is X:
        return None
    for back in range(1, max_back + 1):
        j = i - back
        if j < 0:
            return None
        if positions[j] is not X:
            cx, cy = positions[i].centroid
            px, py = positions[j].centroid
            return ((cx - px) / back, (cy - py) / back)
    return None


def eval_ride(tag: VekgTag, rule: EventRule) -> List[MatchNotification]:
    """Rider overlapping and above a mount, both moving the same way; the
    rule's two labels name the rider and the mount."""
    p = rule.params
    min_speed = p["min_speed_px"]
    rider_label, mount_label = rule.object_labels
    persons = _tracks_with_label(tag, (rider_label,))
    mounts = _tracks_with_label(tag, (mount_label,))
    out = []
    for person in persons:
        ppos = tag.edges[(person, person)][POSITION]
        for mount in mounts:
            mpos = tag.edges[(mount, mount)][POSITION]
            topo = edge_series(tag, person, mount, "topology")
            direc = edge_series(tag, person, mount, "direction")
            flags: List[Optional[bool]] = []
            for i in range(tag.frame_count):
                if topo[i] is X:
                    flags.append(None)
                    continue
                if topo[i] not in _OVERLAP_TOPOLOGIES \
                        or direc[i] is not DirectionClass.ABOVE:
                    flags.append(False)
                    continue
                vp = _velocity(ppos, i)
                vm = _velocity(mpos, i)
                if vp is None or vm is None:
                    flags.append(None)
                    continue
                sp = math.hypot(*vp)
                sm = math.hypot(*vm)
                dot = vp[0] * vm[0] + vp[1] * vm[1]
                flags.append(sp > min_speed and sm > min_speed and dot > 0)
            for s, e in _runs_with_gap(flags, p["max_gap_frames"],
                                       p["min_frames"]):
                out.append(_note(tag, rule, s, e, (person, mount),
                                 {"frames": e - s + 1}))
    return out
