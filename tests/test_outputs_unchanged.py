"""`vekg run` output stays byte-identical across refactors.

Each case runs ``cli.main(["--quiet", "run", ...])`` on a generated
stream and compares SHA-256 digests of the notification file and of the
metrics lines (with their wall-clock ``latency`` field removed) against
digests recorded from the reference implementation.  A digest change
means a change in behaviour; record new digests only together with a
deliberate, documented change of output.

To print the current digests, run this file as a script:

    PYTHONPATH=src python3 tests/test_outputs_unchanged.py
"""

import hashlib
import json
import os
import tempfile

import pytest
import yaml

from vekg import synth
from vekg.cli import EXIT_OK, main

RULE_SCENARIOS = ["fall", "horse_ride", "bike_ride", "handshake", "punch",
                  "traffic", "parking", "jaywalk", "attribute"]
NOISE = (2.0, 0.05, 7)   # jitter px, dropout, seed (as in acceptance 8)
# more noisy falls: each seed jitters the aspect-ratio series PELT segments
FALL_NOISE_SEEDS = (21, 22, 23)


def _dense_scene() -> synth.Scenario:
    """24 tracks at 30 fps with 1 s windows and ride rules.

    Moving rider/mount pairs ride; static groups put exact geometric
    corner cases on the pair relations: boxes that touch along an edge
    or at a corner, nested boxes that share an edge, equal boxes, and
    boxes with coincident centroids.  Integer keyframes and zero jitter
    keep the static coordinates exact; dropout still punches X slots.
    """
    dur = 4_000
    actors = []
    for k in range(4):   # riders moving right over their mounts
        x0, y = 40 + 60 * k, 40 + 140 * k
        mount = "horse" if k % 2 == 0 else "bike"
        actors.append(synth.ActorScript(
            track_id=1 + k, label="person",
            bbox_keys=((0, x0 + 25, y, 50, 90), (dur, x0 + 25 + 1440, y, 50, 90))))
        actors.append(synth.ActorScript(
            track_id=11 + k, label=mount,
            bbox_keys=((0, x0, y + 50, 100, 80), (dur, x0 + 1440, y + 50, 100, 80))))
    static = [
        # edge touch: person directly on top of a horse
        (21, "person", (100, 700, 50, 90)), (22, "horse", (100, 790, 100, 80)),
        # corner touch
        (23, "person", (400, 700, 50, 90)), (24, "bike", (450, 790, 100, 80)),
        # nested, sharing the top edge (covered_by / contains)
        (25, "person", (700, 700, 40, 50)), (26, "horse", (680, 700, 100, 80)),
        # strictly inside, coincident centroids
        (27, "person", (1025, 720, 50, 40)), (28, "bike", (1000, 700, 100, 80)),
        # equal boxes
        (29, "person", (1300, 700, 60, 60)), (30, "horse", (1300, 700, 60, 60)),
        # overlap, person above
        (31, "person", (1600, 650, 50, 90)), (32, "bike", (1580, 700, 100, 80)),
        # disjoint, far apart
        (33, "person", (1800, 950, 40, 40)), (34, "horse", (20, 950, 60, 40)),
    ]
    actors += [synth.ActorScript(track_id=t, label=label, bbox_keys=((0, *box),))
               for t, label, box in static]
    # a moving equal pair and a moving person passing through a static bike
    actors.append(synth.ActorScript(
        track_id=41, label="person",
        bbox_keys=((0, 200, 600, 50, 50), (dur, 1400, 600, 50, 50))))
    actors.append(synth.ActorScript(
        track_id=42, label="bike",
        bbox_keys=((0, 200, 600, 50, 50), (dur, 1400, 600, 50, 50))))
    actors.append(synth.ActorScript(
        track_id=43, label="person",
        bbox_keys=((0, 900, 300, 50, 90), (dur, 900, 900, 50, 90))))
    actors.append(synth.ActorScript(track_id=44, label="bike",
                                    bbox_keys=((0, 875, 560, 100, 80),)))
    rules = ({"id": "horse_ride", "kind": "horse_ride", "window_ms": 1000,
              "params": {"min_frames": 5}},
             {"id": "bike_ride", "kind": "bike_ride", "window_ms": 1000})
    return synth.Scenario(name="dense", duration_ms=dur, fps=30,
                          resolution=synth.RES, actors=tuple(actors),
                          rule_configs=rules, window_ms=1000,
                          dropout_prob=0.05, seed=11)


def _mixed_labels_scene() -> synth.Scenario:
    """Ride rules with non-default labels among bystanders and other mounts.

    Riders labelled ``rider`` move over ``pony`` and ``bike`` mounts, a
    ``person`` rides a pony and another a horse, a ``rider`` rides a
    horse, and persons and riders walk or stand next to mounts of both
    kinds without riding them.  Two rules share the ``(rider, bike)``
    labels; the default horse rule reads ``(person, horse)``.
    """
    dur = 4_000
    movers = [  # (rider id, rider label, mount id, mount label)
        (1, "rider", 11, "pony"), (2, "rider", 12, "bike"),
        (3, "person", 13, "pony"), (4, "rider", 14, "horse"),
        (5, "person", 15, "horse"), (6, "rider", 16, "pony"),
    ]
    actors = []
    for k, (rider, rider_label, mount, mount_label) in enumerate(movers):
        x0, y = 40 + 50 * k, 30 + 110 * k
        actors.append(synth.ActorScript(
            track_id=rider, label=rider_label,
            bbox_keys=((0, x0 + 25, y, 50, 90), (dur, x0 + 25 + 1400, y, 50, 90))))
        actors.append(synth.ActorScript(
            track_id=mount, label=mount_label,
            bbox_keys=((0, x0, y + 50, 100, 80), (dur, x0 + 1400, y + 50, 100, 80))))
    bystanders = [
        # a rider walking alone, right to left
        (21, "rider", ((0, 1700, 800, 40, 90), (dur, 300, 800, 40, 90))),
        # a person walking over a static bike without riding it
        (22, "person", ((0, 600, 700, 40, 90), (dur, 600, 950, 40, 90))),
        (23, "bike", ((0, 580, 760, 100, 80),)),
        # a rider standing on a static pony, a person next to a static horse
        (24, "rider", ((0, 1000, 700, 50, 90),)),
        (25, "pony", ((0, 975, 750, 100, 80),)),
        (26, "person", ((0, 1300, 700, 40, 90),)),
        (27, "horse", ((0, 1350, 720, 100, 80),)),
        # a pony and a bike moving together with nobody on them
        (28, "pony", ((0, 100, 950, 100, 80), (dur, 1500, 950, 100, 80))),
        (29, "bike", ((0, 120, 960, 100, 80), (dur, 1520, 960, 100, 80))),
    ]
    actors += [synth.ActorScript(track_id=t, label=label, bbox_keys=keys)
               for t, label, keys in bystanders]
    rules = ({"id": "pony_ride", "kind": "horse_ride", "window_ms": 1000,
              "labels": ["rider", "pony"], "params": {"min_frames": 5}},
             {"id": "horse_ride", "kind": "horse_ride", "window_ms": 1000},
             {"id": "rider_bike", "kind": "bike_ride", "window_ms": 1000,
              "labels": ["rider", "bike"]},
             {"id": "rider_bike_long", "kind": "bike_ride", "window_ms": 1000,
              "labels": ["rider", "bike"], "params": {"min_frames": 20}})
    return synth.Scenario(name="mixed_labels", duration_ms=dur, fps=30,
                          resolution=synth.RES, actors=tuple(actors),
                          rule_configs=rules, window_ms=1000,
                          noise_sigma_px=1.0, dropout_prob=0.05, seed=17)


def _keypoint_scene() -> synth.Scenario:
    """Four persons with different arm keypoints under handshake, punch
    and an attribute query.

    Persons 1 and 2 have both arms and shake right hands.  Person 3 has
    only the left arm (shoulder, wrist, hip), which reaches for person
    1's left shoulder; person 4 has no keypoints at all.  So every pair
    side is skipped, read or fires somewhere, and a victim may lack one
    or both shoulders.  Jitter and dropout punch X slots into each
    series.
    """
    windows = 4
    dur = windows * synth.W
    left_arm = {"left_shoulder": ((0, 580, 400),), "left_hip": ((0, 582, 520),),
                "left_wrist": synth._shake_wrists(windows, (590, 512), (775, 402),
                                                  peak_at=4000)}
    actors = (
        synth._person_a(windows, (940, 412)),
        synth._person_b(windows, (960, 412)),
        synth.ActorScript(track_id=3, label="person",
                          bbox_keys=((0, 540, 380, 100, 260),),
                          attrs={"color": "blue"}, keypoint_keys=left_arm),
        synth.ActorScript(track_id=4, label="person",
                          bbox_keys=((0, 1400, 380, 100, 260),),
                          attrs={"color": "Red"}),
    )
    rules = ({"id": "shake", "kind": "handshake", "window_ms": synth.W},
             {"id": "punch", "kind": "punch", "window_ms": synth.W},
             {"id": "red_person", "kind": "attribute_query", "window_ms": synth.W,
              "labels": ["person"],
              "params": {"attribute": "color", "value": "red"}})
    return synth.Scenario(name="keypoints", duration_ms=dur, fps=30,
                          resolution=synth.RES, actors=actors,
                          rule_configs=rules, window_ms=synth.W,
                          noise_sigma_px=0.5, dropout_prob=0.03, seed=29)


def _regions_scene() -> synth.Scenario:
    """Traffic and jaywalking on a concave region, with centroids exactly
    on its edges and vertices.

    The region is an arrow whose notch has a reflex vertex at (700, 500).
    Static cars and persons (20 x 20 boxes, so a centroid is the box's
    corner plus 10) sit on each kind of vertex, on the horizontal,
    vertical and slanted edges, in the notch, inside and outside.
    Movers slide along the top edge, cross the notch and pass through the
    region, and dropout punches unknown frames into the jaywalk flags.
    """
    dur = 8_000
    region = [[200, 200], [1200, 200], [1200, 800], [700, 500], [200, 800]]
    static = [   # (label, centroid)
        ("car", (200, 200)), ("car", (1200, 800)), ("car", (700, 500)),
        ("car", (700, 200)), ("car", (1200, 500)), ("car", (950, 650)),
        ("car", (700, 600)), ("car", (600, 400)), ("car", (1000, 300)),
        ("person", (200, 500)), ("person", (450, 650)), ("person", (700, 499)),
        ("person", (700, 501)), ("person", (300, 300)), ("person", (1500, 500)),
    ]
    actors = [synth.ActorScript(track_id=1 + k, label=label,
                                bbox_keys=((0, cx - 10, cy - 10, 20, 20),))
              for k, (label, (cx, cy)) in enumerate(static)]
    movers = [   # (track, label, start centroid, end centroid)
        (31, "car", (100, 200), (1300, 200)),    # along the top edge
        (32, "car", (700, 100), (700, 900)),     # down through the reflex vertex
        (33, "car", (100, 300), (1300, 700)),    # across the notch
        (41, "person", (200, 100), (200, 900)),  # down the left edge
        (42, "person", (100, 350), (1300, 350)),
        (43, "person", (450, 900), (1000, 100)),
    ]
    actors += [synth.ActorScript(track_id=t, label=label, bbox_keys=(
        (0, x0 - 10, y0 - 10, 20, 20), (dur, x1 - 10, y1 - 10, 20, 20)))
        for t, label, (x0, y0), (x1, y1) in movers]
    rules = ({"id": "cars", "kind": "high_volume_traffic", "window_ms": 2000,
              "labels": ["car"],
              "params": {"region": region, "count_threshold": 1.5}},
             {"id": "busy", "kind": "high_volume_traffic", "window_ms": 2000,
              "labels": ["car"],
              "params": {"region": region, "count_threshold": 2.5}},
             {"id": "walkers", "kind": "jaywalking", "window_ms": 2000,
              "labels": ["person"],
              "params": {"region": region, "min_frames": 2, "max_gap_frames": 1}})
    return synth.Scenario(name="regions", duration_ms=dur, fps=30,
                          resolution=synth.RES, actors=tuple(actors),
                          rule_configs=rules, window_ms=2000,
                          dropout_prob=0.1, seed=31)


def _cases():
    """(case id, scenario) for every run whose output is pinned."""
    cases = [(sc.name, sc) for sc in synth.builtin_scenarios()]
    cases += [(f"{name}_noisy", synth.get_scenario(f"{name}_positive")
               .with_noise(*NOISE)) for name in RULE_SCENARIOS]
    cases += [(f"{name}_noisy_{seed}", synth.get_scenario(name)
               .with_noise(NOISE[0], NOISE[1], seed))
              for seed in FALL_NOISE_SEEDS
              for name in ("fall_positive", "fall_negative")]
    cases.append(("dense", _dense_scene()))
    cases.append(("mixed_labels", _mixed_labels_scene()))
    cases.append(("keypoints", _keypoint_scene()))
    cases.append(("regions", _regions_scene()))
    return cases


def run_digests(sc: synth.Scenario, workdir: str) -> tuple:
    """SHA-256 of the notification bytes and of the metrics minus latency."""
    stream = os.path.join(workdir, f"{sc.name}.jsonl")
    truth = os.path.join(workdir, f"{sc.name}.truth.jsonl")
    rules = os.path.join(workdir, f"{sc.name}.rules.yaml")
    out = os.path.join(workdir, f"{sc.name}.out.jsonl")
    synth.generate(sc, stream, truth)
    with open(rules, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}, fh)
    rc = main(["--quiet", "run", "--input", stream, "--rules", rules,
               "--out", out, "--truth", truth])
    assert rc == EXIT_OK
    with open(out, "rb") as fh:
        notes = hashlib.sha256(fh.read()).hexdigest()
    metrics = hashlib.sha256()
    with open(out + ".metrics.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("latency", None)
            metrics.update((json.dumps(record, separators=(",", ":")) + "\n")
                           .encode())
    return notes, metrics.hexdigest()


# case id -> (notifications sha256, metrics-without-latency sha256)
DIGESTS = {
    'fall_positive': ('4db9ced6d5083f717e6117f4f03313896e5ee76ef3eb4315aa554d242a7afa57', '6e6904461642adf72af79cf9c1ff438cb8df06055bef22b2ddf32c3f568fba54'),
    'fall_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fac217c376d972825a07397b89363b48eb2090ad8582432df5811a5e17b2848f'),
    'horse_ride_positive': ('c86f50ad986bb3c8d72b943c9aa3ec0406535a0b27cf21e1e6d53c98a64a186c', '00fba3ad779c2a8c920f89dcb6e282d9a1f4aef261ab0b30154785c41ab1a43f'),
    'horse_ride_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'bike_ride_positive': ('22a2e6281d9c07f774e3d31bcf083b84f2ec96fda8f45f66a81bf12f3f3397a8', '00fba3ad779c2a8c920f89dcb6e282d9a1f4aef261ab0b30154785c41ab1a43f'),
    'bike_ride_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'handshake_positive': ('63647c904b5bede0aead023dfbd0ea124cd757482b0453f261407e7644d1adc0', '00fba3ad779c2a8c920f89dcb6e282d9a1f4aef261ab0b30154785c41ab1a43f'),
    'handshake_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'punch_positive': ('60f47219a3212b203407ccc8c9986841cd7396e48ae2d98496c9adb66162cccb', '00fba3ad779c2a8c920f89dcb6e282d9a1f4aef261ab0b30154785c41ab1a43f'),
    'punch_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'traffic_positive': ('9b00ca1929dcc475da5d588773426f1cb7d99f12a575fca66c8a77ddbe17fa2b', '96e61fb918d587ce546190c275ff736c920dc8bc0f33e86f65cab4ab0f78a94f'),
    'traffic_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '286b1b9b6b0df4f199b646758c78cf5ca0ea44a1055b40d716d1ee002cc7e06b'),
    'parking_positive': ('28f422d3321aa5f777a8c3d015357d9be7e4ea25e1c998fae61a2e668e8bf2c6', '1dc401d9a772bc6eb544720e43256e29a52f33a6ed7f66004ad7ddef4e453af0'),
    'parking_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fac217c376d972825a07397b89363b48eb2090ad8582432df5811a5e17b2848f'),
    'jaywalk_positive': ('a95ea6fe0508d57f74771dfc40ab3559bc7f4147bf5564d8b546d6f698793f7c', '00fba3ad779c2a8c920f89dcb6e282d9a1f4aef261ab0b30154785c41ab1a43f'),
    'jaywalk_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'attribute_positive': ('fd2e353b17c57258505cf871024174095c0389d4f65fd5f5472f01d9b06d3f3a', '40ed5b2585c543117b5c3bb593be610848d1e9154ea9e8fafadfb11abbdf7252'),
    'attribute_negative': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '38e6e3ea510c25cf296c69235dfafcb210dfd82fec60ed3621228322e144d5da'),
    'street': ('75a1ca1002ccfa64af39a73be5b09882624bb0efad234955be89a75a575ae8c2', 'c6d513ac9932c663951d2b1a8ff2461d3a8c39ccc8ee7432ca264a9fd9cb9548'),
    'street_10min': ('3f98f5ac58eeb17989de312ea472288fba4a2f20a2c09c5575a57311b553f6da', 'b0ce2f5ab2a25d0d12c5b1a8a0f2671ff75d2564c75aea897ec44c034aebf34a'),
    'fall_noisy': ('3213c3c375b2b0a6241b410c07ce026f0b2f0f9600be042701dd23354d37d868', 'a9cb452587303c3db5d625c84784665d36d408bd0f382b769bfbaff1dd516190'),
    'horse_ride_noisy': ('c86f50ad986bb3c8d72b943c9aa3ec0406535a0b27cf21e1e6d53c98a64a186c', '86822f043990dfb2c6455d9823ba6b414eccb2fa5b1aad3446b663f3debe6dd5'),
    'bike_ride_noisy': ('22a2e6281d9c07f774e3d31bcf083b84f2ec96fda8f45f66a81bf12f3f3397a8', '86822f043990dfb2c6455d9823ba6b414eccb2fa5b1aad3446b663f3debe6dd5'),
    'handshake_noisy': ('00f2352bc93b37e096b6cfecb7a6a2916b8ac4d654540e2a33464cd1f7320af1', 'e2441d0cb7e8e7444aeaae332c280b89eea5b76dba62ed43c99106821fa29924'),
    'punch_noisy': ('d0625304727346b4794b9e040d2754cf59468a15f686387363c70b862924d82a', 'e2441d0cb7e8e7444aeaae332c280b89eea5b76dba62ed43c99106821fa29924'),
    'traffic_noisy': ('8a2bf6e02fdfb4b740b66797272903260aea45733ecf862e62e0cf5c201e6d4c', '6830e6cdb7d9fe74d19f2f4feb71c507c0d8ba8a14f3f557d3ac63e873191b66'),
    'parking_noisy': ('28f422d3321aa5f777a8c3d015357d9be7e4ea25e1c998fae61a2e668e8bf2c6', 'b99ff2fe4c929a29341f6b1aa5b37277254957e28ab8654fb9c0924367f88b12'),
    'jaywalk_noisy': ('304927319e9442584a811dc3b93d3ee6d78f0e53373fd090641f0411bdb1a0da', '86822f043990dfb2c6455d9823ba6b414eccb2fa5b1aad3446b663f3debe6dd5'),
    'attribute_noisy': ('2cd8355c5084185af4cde5b1422c862440ecf2fe522abbb28c4cc58c25d02f53', 'be7b1d9f1bdccc5c75a6120ec970e25c09f8e4365c40da126c0c44ef72c53577'),
    'fall_positive_noisy_21': ('58f44f6c9af9b83df0c7f919d068ba574f0fe512b7b7bc5daeb294a5aa84b728', '82ee373bf7714d66aba4eb4700f775e5a04fea1141ef36af6f3dd1513319c95c'),
    'fall_negative_noisy_21': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7589aac2c12a15dbe528d06977a560627c629654ab32ca0acdd643e686f025dc'),
    'fall_positive_noisy_22': ('4db9ced6d5083f717e6117f4f03313896e5ee76ef3eb4315aa554d242a7afa57', 'd9894f8149e20c3140203a8d11e1198e094abc08b6fd19464a390632758b8992'),
    'fall_negative_noisy_22': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '07f8fb6bf4f36c38af934b45122d72c22ec9fe8c540f1f1b83fc855fc699ccae'),
    'fall_positive_noisy_23': ('a841c16e70722b2c1a325f65f47ebc2f25d138d44cb4a25e74e2bba462ef6461', 'f2f28962d52a24f2479d1b00af9da847d0a77df198a8a593fe61cd08749feb92'),
    'fall_negative_noisy_23': ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '32ca684a215b3d0a8b86d20b9afae5d8fc42caefd6cca383b2159d441e612000'),
    'dense': ('7dd214451b1930664860a5d1d0554bb4141483fb9843e8485b4c5559ceaf3643', 'e794400a90e62f0c5dfe03f03e5ec9a037e615aa4649cfe007024e2439145ee7'),
    'mixed_labels': ('4d6c6620cb9ee9685b8499556bfa3e2036a1a3877b66c981edb6e9c8d0ab693a', '9046dd71a1551769c7934d014eb52ab29350be964e642f460bdd51bf90d54a54'),
    'keypoints': ('d7065a95d84c3a2734b7bacee0c2fe2d1e4f49cf7e68673a5e193a738e3d6ab2', '2227061ff444dcb15f1ff98d2a74f9bc3f26919a1f1c834f6a2b5a36ea778be0'),
    'regions': ('64a3ff1134074b2a6efb92223d2c4179f14be91180f30c3a247fc72f50fe8f45', 'a11f9d3cc4fcf1c45658905ff29c62d8cefdf11f92a13660190d75d612d04417'),
}


@pytest.mark.parametrize("case,scenario", _cases(), ids=[c for c, _ in _cases()])
def test_run_output_unchanged(case, scenario, tmp_path):
    assert run_digests(scenario, str(tmp_path)) == DIGESTS[case]


def test_dense_scene_exercises_corner_cases(tmp_path):
    """The dense scene fires both ride rules and holds its corner cases."""
    from vekg.geometry import SpatialRelationClass as S, topology
    sc = _dense_scene()
    assert len(sc.actors) >= 20
    frame0 = next(synth.generate_frames(sc.with_noise(0.0, 0.0)))
    boxes = {o.track_id: o.bbox for o in frame0.objects}
    assert S.TOUCH in topology(boxes[21], boxes[22])
    assert S.TOUCH in topology(boxes[23], boxes[24])
    assert S.COVERED_BY in topology(boxes[25], boxes[26])
    assert boxes[27].centroid == boxes[28].centroid
    assert boxes[29] == boxes[30]
    synth.generate(sc, str(tmp_path / "d.jsonl"), str(tmp_path / "d.truth"))
    rules = tmp_path / "d.yaml"
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}))
    out = tmp_path / "d.out"
    assert main(["--quiet", "run", "--input", str(tmp_path / "d.jsonl"),
                 "--rules", str(rules), "--out", str(out)]) == EXIT_OK
    kinds = {json.loads(l)["kind"] for l in out.read_text().splitlines()}
    assert kinds == {"horse_ride", "bike_ride"}



def test_mixed_labels_scene_fires_only_labelled_rides(tmp_path):
    """Each ride rule fires on its own label pair only."""
    sc = _mixed_labels_scene()
    synth.generate(sc, str(tmp_path / "m.jsonl"), str(tmp_path / "m.truth"))
    rules = tmp_path / "m.yaml"
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}))
    out = tmp_path / "m.out"
    assert main(["--quiet", "run", "--input", str(tmp_path / "m.jsonl"),
                 "--rules", str(rules), "--out", str(out)]) == EXIT_OK
    fired = {(n["rule_id"], tuple(n["participants"]))
             for n in map(json.loads, out.read_text().splitlines())}
    assert fired == {("pony_ride", (1, 11)), ("pony_ride", (6, 16)),
                     ("horse_ride", (5, 15)), ("rider_bike", (2, 12)),
                     ("rider_bike_long", (2, 12))}


def test_keypoint_scene_fires_each_rule(tmp_path):
    """Handshake, punch and the attribute query each fire on their pair."""
    sc = _keypoint_scene()
    synth.generate(sc, str(tmp_path / "k.jsonl"), str(tmp_path / "k.truth"))
    rules = tmp_path / "k.yaml"
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}))
    out = tmp_path / "k.out"
    assert main(["--quiet", "run", "--input", str(tmp_path / "k.jsonl"),
                 "--rules", str(rules), "--out", str(out)]) == EXIT_OK
    fired = {(n["rule_id"], tuple(n["participants"]), n["evidence"].get("side"))
             for n in map(json.loads, out.read_text().splitlines())}
    assert fired == {("shake", (1, 2), "right"), ("punch", (3, 1), "left"),
                     ("red_person", (4,), None)}


def test_regions_scene_counts_only_strictly_inside_centroids(tmp_path):
    """Of the static boxes, only the cars at (600, 400) and (1000, 300)
    count as traffic and only the persons at (700, 499) and (300, 300)
    jaywalk: every centroid on a vertex or an edge is outside."""
    sc = _regions_scene()
    synth.generate(sc, str(tmp_path / "r.jsonl"), str(tmp_path / "r.truth"))
    rules = tmp_path / "r.yaml"
    rules.write_text(yaml.safe_dump({"rules": [dict(r) for r in sc.rule_configs]}))
    out = tmp_path / "r.out"
    assert main(["--quiet", "run", "--input", str(tmp_path / "r.jsonl"),
                 "--rules", str(rules), "--out", str(out)]) == EXIT_OK
    fired = {}
    for note in map(json.loads, out.read_text().splitlines()):
        fired.setdefault(note["rule_id"], set()).update(note["participants"])
    assert fired == {"cars": {8, 9, 32, 33}, "busy": {8, 9, 32, 33},
                     "walkers": {12, 14, 42, 43}}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, sc in _cases():
            print(f"    {case!r}: {run_digests(sc, tmp)!r},")
