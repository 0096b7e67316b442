"""Differential test of the ride rule against the reference ride code,
which walked every (rider, mount) pair frame by frame and computed both
tracks' velocities at every frame where the rider overlaps and is above
the mount.

``rules.eval_ride`` must give the same notifications on random
rider/mount windows.  It calls ``_velocity`` at most once per track and
frame, and exactly at the frames where some pair of that track passes
the overlap-and-above test; the ride rules of one window share those
velocities.  Riders sit on their mount at some frames
only: at others they are beside it (overlapping, not above), high above
it (above, not overlapping), below it, or not detected, now and then in
runs around ``max_gap_frames``.  Mounts step at about ``min_speed_px``
either way, and riders jitter about them, so a rider can move against
its mount.  Mounts may share a place, so that a rider sits on two.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ride
from conftest import frame, obj, window_of
from vekg import rules
from vekg.geometry import DirectionClass
from vekg.tag import POSITION, aggregate

NEEDS = {("person", "horse"): {"topology", "direction"}}
MOUNT = (80, 60)
RIDER = (40, 70)
# the rider's top-left corner against its mount's
POSES = {
    "ride": (20, -50),     # overlapping and above: the only pose that rides
    "beside": (70, 10),    # overlapping, to the right
    "high": (20, -200),    # above, apart
    "below": (20, 40),     # overlapping, below
}
SPEEDS = st.sampled_from([0.0, 1.0, 3.0, 2.5]) | st.floats(0, 8)


def ride_rule(speed, min_frames, max_gap):
    return rules.register_rules([{
        "id": "r", "kind": "horse_ride", "window_ms": 10_000,
        "params": {"min_speed_px": speed, "min_frames": min_frames,
                   "max_gap_frames": max_gap}}]).rules[0]


def notes_and_velocity_calls(tag, rule):
    """``eval_ride``'s notifications, and its ``_velocity`` calls as
    (track, frame) pairs in call order."""
    track_of = {id(tag.edges[(t, t)][POSITION]): t for t in tag.nodes}
    calls = []
    velocity = rules._velocity

    def counted(positions, i, *args):
        calls.append((track_of[id(positions)], i))
        return velocity(positions, i, *args)

    with mock.patch.object(rules, "_velocity", counted):
        notes = rules.eval_ride(tag, rule)
    return notes, calls


def passing(tag, rule):
    """The (track, frame) pairs where some (rider, mount) pair of the
    track overlaps and is above."""
    out = set()
    rider_label, mount_label = rule.object_labels
    for person in rules._tracks_with_label(tag, (rider_label,)):
        for mount in rules._tracks_with_label(tag, (mount_label,)):
            edge = tag.edges[(person, mount)]
            for i, (t, d) in enumerate(zip(edge["topology"], edge["direction"])):
                if t in rules._OVERLAP_TOPOLOGIES and d is DirectionClass.ABOVE:
                    out |= {(person, i), (mount, i)}
    return out


def assert_matches_the_reference(frames, rule):
    tag = aggregate(window_of(frames), NEEDS)
    notes, calls = notes_and_velocity_calls(tag, rule)
    assert [n.as_dict() for n in notes] == \
        [n.as_dict() for n in reference_ride.eval_ride(tag, rule)]
    assert len(calls) == len(set(calls)), "a velocity computed twice"
    assert set(calls) == passing(tag, rule)
    return notes, calls


@st.composite
def ride_windows(draw):
    """(frames, rule) of one rider/mount window."""
    speed = draw(SPEEDS)
    nframes = draw(st.integers(1, 24))
    near = [speed, -speed, math.nextafter(speed, math.inf),
            -math.nextafter(speed, math.inf), speed + 1, -(speed + 1), 2 * speed, 0.0]
    objects = [[] for _ in range(nframes)]

    def absent(track_gap, i):
        start, length = track_gap
        return start <= i < start + length or not draw(st.integers(0, 7))

    mounts = []
    for m in range(draw(st.integers(1, 2))):
        x0, y0 = draw(st.sampled_from([(100, 300), (100, 300), (400, 500)]))
        step = (draw(st.sampled_from(near)),
                draw(st.sampled_from([0.0, 0.0, 1.0, -2.0])))
        gap = (draw(st.integers(0, nframes)), draw(st.integers(0, 6)))
        track = 10 + m
        boxes = [(x0 + step[0] * i, y0 + step[1] * i) + MOUNT for i in range(nframes)]
        mounts.append(boxes)
        for i, box in enumerate(boxes):
            if not absent(gap, i):
                objects[i].append(obj(track, "horse", box))
    for r in range(draw(st.integers(1, 3))):
        mount = mounts[draw(st.integers(0, len(mounts) - 1))]
        gap = (draw(st.integers(0, nframes)), draw(st.integers(0, 6)))
        for i in range(nframes):
            pose = POSES[draw(st.sampled_from(["ride", "ride", "ride", "beside",
                                               "high", "below"]))]
            jitter = (draw(st.sampled_from([0, 0, 0, 1, -1, 3, -7])),
                      draw(st.sampled_from([0, 0, 2, -2])))
            label = "person" if draw(st.integers(0, 15)) else "horse"
            if not absent(gap, i):
                mx, my = mount[i][:2]
                objects[i].append(obj(1 + r, label, (mx + pose[0] + jitter[0],
                                                     my + pose[1] + jitter[1]) + RIDER))
    frames = [frame(i, 33 * i, objs) for i, objs in enumerate(objects)]
    rule = ride_rule(speed, draw(st.integers(1, 6)), draw(st.integers(0, 4)))
    return frames, rule


@settings(max_examples=400, deadline=None)
@given(ride_windows())
def test_ride_matches_the_reference(window):
    assert_matches_the_reference(*window)


def riding(n, step=6.0, x0=100):
    """A rider on a horse, both stepping ``step`` px right each frame."""
    return [(obj(1, "person", (x0 + 20 + step * i, 250, *RIDER)),
             obj(10, "horse", (x0 + step * i, 300, *MOUNT))) for i in range(n)]


def test_a_rider_on_two_mounts_gets_one_velocity_per_frame():
    """Two horses in one place: the rider's velocity at each frame is
    computed once for both pairs, and both pairs ride."""
    frames = [frame(i, 33 * i, [rider, horse,
                                obj(11, "horse", (horse.bbox.x, 300, *MOUNT))])
              for i, (rider, horse) in enumerate(riding(12))]
    notes, calls = assert_matches_the_reference(frames, ride_rule(2.0, 5, 2))
    assert [n.participants for n in notes] == [(1, 10), (1, 11)]
    assert sorted(calls) == sorted({(t, i) for t in (1, 10, 11) for i in range(12)})


def test_pairs_that_cannot_ride_compute_no_velocity():
    """A walker beside the horse and one high above it: neither pair both
    overlaps and is above, so no velocity is computed at all."""
    frames = [frame(i, 33 * i, [
        obj(1, "person", (190 + 6.0 * i, 310, *RIDER)),
        obj(2, "person", (120 + 6.0 * i, 100, *RIDER)),
        obj(10, "horse", (100 + 6.0 * i, 300, *MOUNT))]) for i in range(12)]
    notes, calls = assert_matches_the_reference(frames, ride_rule(2.0, 5, 2))
    assert notes == [] and calls == []


def test_a_mount_moving_the_other_way_does_not_ride():
    """The rider steps right and the horse left while it rides the horse."""
    frames = [frame(i, 33 * i, [obj(1, "person", (120 + 3.0 * i, 250, *RIDER)),
                                obj(10, "horse", (100 - 3.0 * i, 300, *MOUNT))])
              for i in range(8)]
    notes, _ = assert_matches_the_reference(frames, ride_rule(1.0, 3, 2))
    assert notes == []


def test_horse_and_bike_rules_share_the_window_velocities():
    """A rider over a horse and a bike that move together: the horse and
    bike rules on one window compute each velocity once between them, and
    each gives the notes it gives on a window of its own."""
    frames = [frame(i, 33 * i, [rider, horse, obj(20, "bike", (horse.bbox.x, 300, *MOUNT))])
              for i, (rider, horse) in enumerate(riding(12))]
    needs = {**NEEDS, ("person", "bike"): {"topology", "direction"}}
    horse_rule, bike_rule = rules.register_rules([
        {"id": "h", "kind": "horse_ride", "params": {"min_frames": 5}},
        {"id": "b", "kind": "bike_ride", "params": {"min_frames": 5}}]).rules
    tag = aggregate(window_of(frames), needs)
    horse_notes, horse_calls = notes_and_velocity_calls(tag, horse_rule)
    bike_notes, bike_calls = notes_and_velocity_calls(tag, bike_rule)
    assert sorted(horse_calls) == sorted({(t, i) for t in (1, 10) for i in range(12)})
    assert sorted(bike_calls) == [(20, i) for i in range(12)]   # the rider's are known
    for rule, notes in ((horse_rule, horse_notes), (bike_rule, bike_notes)):
        alone = rules.eval_ride(aggregate(window_of(frames), needs), rule)
        assert notes == alone and len(notes) == 1
