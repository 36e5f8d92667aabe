"""Golden digests of the CLI's output bytes.

Each case is one command line; the test runs it in-process and compares
the SHA-256 of everything it wrote to stdout, and its exit code, with
the values recorded here.  The digests pin every subcommand in every
output mode (point, ``--grid``, ``--marginals``, ``--profile``, sample
events and ``--summary``, chsh analytic and sampled, audit lines), each
table in both ``--format csv`` and ``--format json``.  A refactor of
the front end must leave all of them unchanged; a deliberate output
change updates them together with a note in CHANGES.md.

Wedge, diffmap and the wedge audit run on the small ``SMALL_GEOM``
geometry of ``test_config_cli.GEOM_FLAGS`` so the whole file takes
seconds.

``frozen_wedge_outputs.json`` holds the full stdout of the wedge-derived
commands (the wedge point, diffmap and wedge audits, at generic settings
too) as they printed before the wedge singles were rebuilt on the
detector overlap integrals.  Their numbers may move by rounding only:
every number must stay within ``FROZEN_ABS`` of the frozen one, and all
text between the numbers must stay the same.  An audit's worst point is
not compared: the report names the last of equal maxima, and the wedge
audit's cells come in sets equal in exact arithmetic, so which of them
is largest is decided by the last bit.  The golden digests above pin the
point for the golden audits.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from eprsim.cli import main

SMALL_GEOM = "--geom beam_sigma=3e-4 --geom samples_aperture=2049 --geom samples_detector=8193"

# command -> ((exit code, sha256 of stdout) with --format csv, the same with --format json)
TABLES = {
    "polar --alpha pi/8 --theta pi/5": (
        (0, '36d16a9cbb0a56c156875719565e80652415edfa9d22583f608b8d154738679d'),
        (0, '7a23634ec6262a2e9502453692178316dea3df654b388ffa18b1c87e40a635c0'),
    ),
    "polar --grid 3": (
        (0, 'd37f88f24629df63196530c34e916399c8fe8bc4829cc0a35aefd42d5856476f'),
        (0, '43a521ebba833a994bce4ce02fdfc4f23bd782995831441d5d37d000f7fc6ac1'),
    ),
    "mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a in": (
        (0, '81e26891a34026d8b9e97631af751dc347d3c105387c034927489ca33b7d761e'),
        (0, 'f079dd48af557814ebb4583a0469dc4893bfff870a64e5990e66114567e48c33'),
    ),
    "mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a out": (
        (0, '49756ba5eca701521171f29b8572452a8a8bf6d3662c56b51e4a9d466c65a208'),
        (0, 'c2c591d2b2c25f4651cbf6460c5ec050581a5f17b5138b599eb9cd0e585bad44'),
    ),
    "mz --alpha pi/8 --phi-b pi/2 --bs-a stop": (
        (0, '269735daa813a8c544ec19077cdd2739d9bcb78c7775831fe2a7a69b864481ae'),
        (0, '7f0dc2fd1e628d0db9dd3c24d1c57bb08ab0bb7fdf64c14eb00030cc04349998'),
    ),
    "mz --grid 3 --bs-a out": (
        (0, '3df982de785dd0dcb38d57c6caaae27e39723a9f5555d63bda6c4727ead0d0f9'),
        (0, 'dc0bd1123f6685488b0810b3cb1c5300196f107e5363b058254ae03664001e6e'),
    ),
    "mz --grid 2 --bs-a stop": (
        (0, 'a56a9893ad069bcc4aa995129522794603f56cf35b2c62dc5ffb989396eac0e5'),
        (0, 'cfcbbcb61fba3cd450c13e34ab6b00dd83a8a1578b2ef6b8745e577e851e22e8'),
    ),
    "mz --marginals --grid 3": (
        (0, '973e07f544d33290f9f6ee1571e8c739cd9e5c2a0e190cbecf48a9aac1791bde'),
        (0, 'a26fe8d72d8a15c35da56e90b7eda66b34440c9b18778ce47f2e24e68bc40f26'),
    ),
    f"wedge --alpha pi/4 --phi-b pi/2 {SMALL_GEOM}": (
        (0, 'b251971afe1bd7eb22b14ead6b3ca1c6429d4d23f1e9c46b4371529cea2f5918'),
        (0, 'f59b4be2094ddaadfebbc18d019979ae1184cc77c95b801bec4ee85efcd3078d'),
    ),
    f"wedge --alpha pi/4 --profile {SMALL_GEOM}": (
        (0, '0262eb0402f31eb6f870c6b760d702180b2c17d1bb59ac7436e971b27e675fe8'),
        (0, 'f72e20159453b664b9821adf2c7a6b878b31da0a5379b89e8411d4f2447e5666'),
    ),
    f"diffmap --grid 2 --phi-a pi/2 {SMALL_GEOM}": (
        (0, 'efda6b38d5aa8ec53fa18e18a8747bdf5d3ea7394d8ad562baacea0902da0cc8'),
        (0, 'da57045a671c8174ad3d61305dda1c9bc07d5e3a982fd706232b6fee16f13d67'),
    ),
    "sample --bench polar --theta pi/8 --n 40 --seed 7": (
        (0, '333b4cce4ee001f0a04614cf9678860dd27487ab5935144c01710e5ba28c7c13'),
        (0, '910362ba400f2c0bbdb8e07457f0efa9dfe35cb2b464160fed155d02c9d11e5f'),
    ),
    "sample --bench mz --alpha pi/4 --phi-b pi/2 --bs-a out --n 40 --seed 3": (
        (0, '8326f7def25663b0b8c0310f8202195f55824a8551eb191bfe89dec6ddc354f8'),
        (0, '73faa932d0f5fcafaa258fe7860cbdc07c088c99ad7713e514ab4316c716c555'),
    ),
    "sample --bench mz --alpha pi/8 --phi-b pi/3 --bs-a stop --n 40 --seed 3": (
        (0, 'e571d74d69e3d5c3b9fd0501d937e7202f69a072aacec4b74bf9be179eeffc46'),
        (0, '815405fb0e542e4f5ec516793d10dbb4bb11aeddbe2a2140154b58827e28134f'),
    ),
    "sample --bench mz --alpha pi/4 --phi-b pi/2 --bs-a stop --n 1000 --summary": (
        (0, '04909f88ada1804a3f5436bddbb3afa6b72671dee9485b213748bed27e30f167'),
        (0, 'a61ba401698800e456ac9d1d4962e178d311355b90ecb79c9f10d724cbe1b11f'),
    ),
    "sample --bench polar --alpha pi/8 --n 5000 --seed 2 --summary": (
        (0, '46a1cd492a6f0ff9b03338ecc40747556aabb4ff628138cb0f63608781011c38'),
        (0, 'bc8183b8fc2eba8d5c246050faca82052138d85638a38bfacd22b3c32e0e9f99'),
    ),
    "chsh": (
        (0, '6132c136bbcb7597bf356b2bdf9250bc47701d2bd3bb6c0e5a85145dba563341'),
        (0, 'cc6535339c5ef540fa0c969c8bdb7eeaae24a5608a17cb3ace887b6695c8a2ba'),
    ),
    "chsh --angles 0,pi/4,pi/8,pi/2": (
        (0, '46d1c45c9c49ee85dd9d1a6b7940c9a0381c0e928c78c8b0de2aa320a93e5b4f'),
        (0, '0e8fe5bfc9e6e1f799e3ecf05e1f011617ad866c6e2b926e71029d7c25c6ae59'),
    ),
    "chsh --n 20000 --seed 4": (
        (0, '045968e4fe7fdaa953cd78a8ed20417ef36d6d1524ce00bdedd37452b9b8f685'),
        (0, '635399d9b24782dce03da7c315434b48f55134fcb0ffed5ead00163cc742a006'),
    ),
}

# audit prints report lines only; exit code 2 marks a failed audit
AUDITS = {
    "audit --bench polar --grid 20": (0, 'aef52d3b008c5d96a0aae65e01595256a6dadd1ae647464429d2df4088d77125'),
    "audit --bench mz --grid 4": (0, '091de4c31229b0c6bc5335527ee88108a9d1cb60920719aa4e8af65718b15f96'),
    "audit --bench mz --grid 3 --tolerance 1e-300": (2, '1a02e093331f226cf18cc3e9a31a8179b41b66b307766b05135e9e32c1871391'),
    f"audit --bench wedge --grid 2 {SMALL_GEOM}": (0, '66b6c23d48a173c71b69dde87fbd3213e5d635f1344ddca645a1caaed940d108'),
    f"audit --bench all --grid 2 {SMALL_GEOM}": (0, 'cb8849ebec994c9935ab02676ff4783d6fb9c6b5f481b9e08a5c31f1f3ac885b'),
}

CASES = {
    **{f"{cmd} --format {fmt}": want
       for cmd, pair in TABLES.items() for fmt, want in zip(("csv", "json"), pair)},
    **AUDITS,
}


def run_digest(command: str, capsys) -> tuple[int, str]:
    code = main(shlex.split(command))
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_output_digest(command, capsys):
    assert run_digest(command, capsys) == CASES[command]


FROZEN = json.loads((Path(__file__).parent / "frozen_wedge_outputs.json").read_text())
FROZEN_ABS = 1e-12
_WORST_POINT = re.compile(r" at \([^)]*\)")
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf))")


@pytest.mark.parametrize("command", sorted(FROZEN))
def test_wedge_output_matches_frozen(command, capsys):
    code, frozen = FROZEN[command]
    assert main(shlex.split(command)) == code
    got, want = (_NUMBER.split(_WORST_POINT.sub(" at (...)", text))
                 for text in (capsys.readouterr().out, frozen))
    assert len(got) == len(want)
    assert got[::2] == want[::2]  # the text between the numbers
    for g, w in zip(got[1::2], want[1::2]):
        assert g == w or abs(float(g) - float(w)) <= FROZEN_ABS, (g, w)
