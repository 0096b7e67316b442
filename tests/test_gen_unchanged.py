"""`vekg gen` output stays byte-identical across refactors.

Each case runs ``cli.main(["--quiet", "gen", ...])`` for a built-in
scenario and compares SHA-256 digests of the stream, truth and rules
files it writes against digests recorded from the reference
implementation.  Benchmark inputs and the run digests of
``test_outputs_unchanged`` are generated through the same code, so a
digest change here moves them too; record new digests only together
with a deliberate, documented change of output.

To print the current digests, run this file as a script:

    PYTHONPATH=src python3 tests/test_gen_unchanged.py
"""

import hashlib
import os
import tempfile

import pytest

from vekg import synth
from vekg.cli import EXIT_OK, main

NOISE = ["--seed", "7", "--noise-px", "2", "--dropout", "0.05"]
# the street workload's jitter and dropout, with one of its seeds
STREET_NOISE = ["--noise-px", "1", "--dropout", "0.02", "--seed", "701"]


def _cases():
    names = [s.name for s in synth.builtin_scenarios()]
    return ([(name, name, []) for name in names]
            + [(f"{name}_seed7", name, NOISE) for name in names]
            + [("street_10min_perfbench", "street_10min", STREET_NOISE)])


def gen_digests(scenario: str, args, workdir: str) -> tuple:
    """SHA-256 of the stream, truth and rules files `gen` writes."""
    paths = [os.path.join(workdir, f"{scenario}.{ext}")
             for ext in ("jsonl", "truth.jsonl", "rules.yaml")]
    rc = main(["--quiet", "gen", scenario, "--out", paths[0],
               "--truth", paths[1], "--rules", paths[2], *args])
    assert rc == EXIT_OK
    digests = []
    for path in paths:
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


# case id -> (stream sha256, truth sha256, rules sha256)
DIGESTS = {
    'fall_positive': ('729e51d2fca3f2eb38755da3582c0bd9115d75034f151d2e3d8c32fb604172a0', 'f1abc220b480235853be7e58d9fc1af7e119b416a3d061ef21bb29dee21344c0', '81d24f566013114883fefb91c61aa847ea03324d6a1cfeff52a51c6c47b72bed'),
    'fall_negative': ('3a8ccca7ad026086f860eb7daf484968782aa06f97183e1c1b54bdf6e64ce685', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '81d24f566013114883fefb91c61aa847ea03324d6a1cfeff52a51c6c47b72bed'),
    'horse_ride_positive': ('b2d8e9e02ccdf65e60aaf40b8a096a234a3e348414276caba4328e0692ef712d', 'd89c7537bd79b11b53be66556614a2d83700164095ad3453fa934233c34ea7fb', 'f66b69c6b0f82424f86a057e9aa9bffafb4592a45abc03ebb0c17d1f6d8ce989'),
    'horse_ride_negative': ('12c2662b2392526803c1f364a0cf4550262ade388b97f85b4bb4d8140dbbf0cd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f66b69c6b0f82424f86a057e9aa9bffafb4592a45abc03ebb0c17d1f6d8ce989'),
    'bike_ride_positive': ('2ded1c7b80e22a0f056556a478fa9838d1c45e4642855a236d6743e4d8b748a2', '1fa4fd826433c7c235611e33ad2ff8a7512e284f7d9f1837714cf2a3f9cf5354', '5dccc66428e9a75156a65f6e08f8f413fe4850c68a40010b827c8b77c5145147'),
    'bike_ride_negative': ('a46994f68e96848342845d72ecfe32769bf20c3e66db785e5fdf5273cccb8e40', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5dccc66428e9a75156a65f6e08f8f413fe4850c68a40010b827c8b77c5145147'),
    'handshake_positive': ('5627db12e354b0d6356a3c2f2656e69f6640e3e65d1ad8a1f8e98449e09efbb9', '923f8818bd895e30d49cef92b4ecef846bbc733ce0af5b2af65fc9e1983a5a07', '6d3b7b690310ae01d009940d936644ccb0216253a8592542da4c69b36cf39c6d'),
    'handshake_negative': ('bbbe4dd61703654bf21ff7ed5868c9f328f160f334d8e6d5111563eaab43ffbc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6d3b7b690310ae01d009940d936644ccb0216253a8592542da4c69b36cf39c6d'),
    'punch_positive': ('d1365b6f5a924249a8b951a3227e580a8e2927c22c744f6cf1933205767fa1be', '1049cf3daa851063e3591661a7f7288fe301ef095a39f2c1cdcea31b4163b07c', '166ace084a745b394cc0b42e016a5e37f6f3a205c07011eca8bcfb97efeb9379'),
    'punch_negative': ('5627db12e354b0d6356a3c2f2656e69f6640e3e65d1ad8a1f8e98449e09efbb9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '166ace084a745b394cc0b42e016a5e37f6f3a205c07011eca8bcfb97efeb9379'),
    'traffic_positive': ('faaa8d78211d603bf6fbd83bea5a32a1693d837db7146c2ce1c8dae9c2d15a66', '903d2e820b85200996454908db52775f7b03c1138dfe1d33cbe8352362a13e95', 'bb5d6703d82a9ccd6b7c848db2633285e8402667527adcb19dabb6f7bbc2d02c'),
    'traffic_negative': ('258713114f5f59e80af29417388a1ca3cf3d2a602b5f2c5cdbae071ed52f2fe7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bb5d6703d82a9ccd6b7c848db2633285e8402667527adcb19dabb6f7bbc2d02c'),
    'parking_positive': ('2b86188d6792f3dc733406441001e8e87a2e0132c2c4447f521e2989fbc25365', 'c3bd902e6bb2d713dce22bc717a783adba422c0fbbc01cee406cbca7616012ae', 'b0b37bea64a94ebb304b68948a0a8dca9eac7053a66de16b2b46c5a54778898e'),
    'parking_negative': ('a010656c6c0b216e328260ba988bc907988f98cfeb32510f17cb096f268a838b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b0b37bea64a94ebb304b68948a0a8dca9eac7053a66de16b2b46c5a54778898e'),
    'jaywalk_positive': ('9c8880acbb269648f2e6284cbb84b8761fd1df949d79c1f39aec6e2cfc355b9a', 'be2f057ba18975c0a54346194e4f8692e8149cb12df9f4afaf79d1cb058d3a90', '48025495757eb272af6d3d46b8b12f2195950b6f009a52d6913ce546c7b0e1ed'),
    'jaywalk_negative': ('e8f98928619afa25776c78b3a9f09c5df432006915fbe8e150e0c7f79538af52', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '48025495757eb272af6d3d46b8b12f2195950b6f009a52d6913ce546c7b0e1ed'),
    'attribute_positive': ('91d6504bacaabab5bfe97efcb526acb70f83aa1a89e5793e2446a5ebb4c68772', '7d885d1d9748c0286dfdda0144575a21acb78529ccc4e234400786b057bdc93a', '24385c2ba6811d72eb58b4e35f8db6ad7f635739657c2732a8ebcaff3d81600c'),
    'attribute_negative': ('0fb79153bfacbf14c8d665fc963112a5c46fe30caa89bbb6a6f849bbf70d4385', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '24385c2ba6811d72eb58b4e35f8db6ad7f635739657c2732a8ebcaff3d81600c'),
    'street': ('7b81fc0ef5825b181bf455dbb5dd4cff3c4fbbf71b05c5ea41f8da3a6494bda3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e47d72bbb95564b6402a66f7ebb09996f49ff14a72b8fbf7e3f560e5ca22a3b'),
    'street_10min': ('3397e2e458d3c8086649037aa05fc778e96f1d9fb740cda119bab8825dd15536', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3f952655c3cb55c272b9f5415b3bf7ad3f9c40ea629ed2932d6645d8752fc769'),
    'fall_positive_seed7': ('16a1bf389c31aa7f9cd2af3f03017c8279dba24a947406767fffeb6b0e277e74', 'f1abc220b480235853be7e58d9fc1af7e119b416a3d061ef21bb29dee21344c0', '81d24f566013114883fefb91c61aa847ea03324d6a1cfeff52a51c6c47b72bed'),
    'fall_negative_seed7': ('b2cbb1f4dc673877d4b60fdc6f318f75136192d52c555ccb6a2a49ec842de046', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '81d24f566013114883fefb91c61aa847ea03324d6a1cfeff52a51c6c47b72bed'),
    'horse_ride_positive_seed7': ('bb479dad6f95f9784950487dee0ce98dfbd1fafe375724f33e22fd17aa0337ff', 'd89c7537bd79b11b53be66556614a2d83700164095ad3453fa934233c34ea7fb', 'f66b69c6b0f82424f86a057e9aa9bffafb4592a45abc03ebb0c17d1f6d8ce989'),
    'horse_ride_negative_seed7': ('881747a3202491f569d26ec4aa49ab6d595545bc35217d047aa1adc7f2a41301', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f66b69c6b0f82424f86a057e9aa9bffafb4592a45abc03ebb0c17d1f6d8ce989'),
    'bike_ride_positive_seed7': ('f3702dff759328c17a169e183e51faf8c945f460f0bac2c41d841ce53696c2df', '1fa4fd826433c7c235611e33ad2ff8a7512e284f7d9f1837714cf2a3f9cf5354', '5dccc66428e9a75156a65f6e08f8f413fe4850c68a40010b827c8b77c5145147'),
    'bike_ride_negative_seed7': ('c5b92c3568c42f452a12a0268bca539da4d530486466888d2a9b7971fd4bfd6a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5dccc66428e9a75156a65f6e08f8f413fe4850c68a40010b827c8b77c5145147'),
    'handshake_positive_seed7': ('5ca8774a895a4b922d89e89c7b5eb7996d9715cdaa265a586ac5639741992dd4', '923f8818bd895e30d49cef92b4ecef846bbc733ce0af5b2af65fc9e1983a5a07', '6d3b7b690310ae01d009940d936644ccb0216253a8592542da4c69b36cf39c6d'),
    'handshake_negative_seed7': ('d5cb52bd34942afbced939b4ea4b90f3d3bf1ad7a71f5f584ca2b21952978c35', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6d3b7b690310ae01d009940d936644ccb0216253a8592542da4c69b36cf39c6d'),
    'punch_positive_seed7': ('ebd1711f99899b4822b3b805170dc4c4ce423b1171318aff0c812d7e160f8d37', '1049cf3daa851063e3591661a7f7288fe301ef095a39f2c1cdcea31b4163b07c', '166ace084a745b394cc0b42e016a5e37f6f3a205c07011eca8bcfb97efeb9379'),
    'punch_negative_seed7': ('5ca8774a895a4b922d89e89c7b5eb7996d9715cdaa265a586ac5639741992dd4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '166ace084a745b394cc0b42e016a5e37f6f3a205c07011eca8bcfb97efeb9379'),
    'traffic_positive_seed7': ('55b3b7ea7ef349d50c8cba73fb2759c46697d504f3920fbf0b0aeea0f64087d0', '903d2e820b85200996454908db52775f7b03c1138dfe1d33cbe8352362a13e95', 'bb5d6703d82a9ccd6b7c848db2633285e8402667527adcb19dabb6f7bbc2d02c'),
    'traffic_negative_seed7': ('6eb2ffe5845d74fa7211d054907d8e17f39a2b49ab17db2505c93d79b69c193d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bb5d6703d82a9ccd6b7c848db2633285e8402667527adcb19dabb6f7bbc2d02c'),
    'parking_positive_seed7': ('f8b4555017c3e64b956b9094f4d214da22003ab6eda4113cf490d66bfcd2307e', 'c3bd902e6bb2d713dce22bc717a783adba422c0fbbc01cee406cbca7616012ae', 'b0b37bea64a94ebb304b68948a0a8dca9eac7053a66de16b2b46c5a54778898e'),
    'parking_negative_seed7': ('d6484ad7fa372339266cdb59bd459c012c9e26b0fe3037e622efdd0dfe7111fa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b0b37bea64a94ebb304b68948a0a8dca9eac7053a66de16b2b46c5a54778898e'),
    'jaywalk_positive_seed7': ('85f664f612f837852ff282189716dd8bca44a2d9ca3e4a86d5b5727fd3415168', 'be2f057ba18975c0a54346194e4f8692e8149cb12df9f4afaf79d1cb058d3a90', '48025495757eb272af6d3d46b8b12f2195950b6f009a52d6913ce546c7b0e1ed'),
    'jaywalk_negative_seed7': ('73e08f13e3cc7abf761f4ee795fd7cc3a90e0f3ae04097588b7a4e89d0129671', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '48025495757eb272af6d3d46b8b12f2195950b6f009a52d6913ce546c7b0e1ed'),
    'attribute_positive_seed7': ('d9a89ee09d68355f5b5af21dbf369c8c190bc79edbdc99dd43c89a4c39025e3a', '7d885d1d9748c0286dfdda0144575a21acb78529ccc4e234400786b057bdc93a', '24385c2ba6811d72eb58b4e35f8db6ad7f635739657c2732a8ebcaff3d81600c'),
    'attribute_negative_seed7': ('948b96e9a10e2484a8f594e4803bc6eb3884fb435b5fc7ac5f2dd5de5bab4087', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '24385c2ba6811d72eb58b4e35f8db6ad7f635739657c2732a8ebcaff3d81600c'),
    'street_seed7': ('f53a990185d599e55fe1a03daa4d239d0226c6d15a9e3c7aa8c874ea1a155253', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e47d72bbb95564b6402a66f7ebb09996f49ff14a72b8fbf7e3f560e5ca22a3b'),
    'street_10min_seed7': ('0a470715237d80fc6c5957da94e89d23b6f5fc8fa13cc356122d2618fbac22d6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3f952655c3cb55c272b9f5415b3bf7ad3f9c40ea629ed2932d6645d8752fc769'),
    'street_10min_perfbench': ('cd094f94f1dcae1d0495658df90196520a5cc9139a22274d7c08b669766033bc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3f952655c3cb55c272b9f5415b3bf7ad3f9c40ea629ed2932d6645d8752fc769'),
}


@pytest.mark.parametrize("case,scenario,args", _cases(),
                         ids=[c for c, _, _ in _cases()])
def test_gen_output_unchanged(case, scenario, args, tmp_path):
    assert gen_digests(scenario, args, str(tmp_path)) == DIGESTS[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for case, scenario, args in _cases():
            print(f"    {case!r}: {gen_digests(scenario, args, workdir)!r},")
