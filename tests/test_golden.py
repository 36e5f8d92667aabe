"""Golden digests of the CLI's output bytes.

Each case is one command line; the test runs it in-process and compares
the SHA-256 of everything it wrote to stdout, and its exit code, with
the values recorded here.  The digests pin every subcommand in every
output mode (point, ``--grid``, ``--marginals``, ``--profile``, sample
events and ``--summary``, chsh analytic and sampled, audit lines), each
table in both ``--format csv`` and ``--format json``.  ``STREAMS``, the
``--workers 1`` and ``3`` summaries and ``chsh --n 200000`` draw more than
one sampler chunk, so they pin the chunk seeding and the draw across chunk
boundaries; ``LISTINGS`` pins one such stream in JSON and at ``--workers 3``,
and the listing of no events in both formats.  ``mz --marginals --grid 91`` and
``mz --grid 21`` span two render blocks, so they pin how a column that is
constant in one block but not the other is rendered; ``polar --grid 91``
spans two blocks whose columns come in bit-equal pairs.  A refactor of
the front end must leave all of them unchanged; a deliberate output
change updates them together with a note in CHANGES.md.

Wedge, diffmap and the wedge audit run on the small ``SMALL_GEOM``
geometry of ``test_config_cli.GEOM_FLAGS`` so the whole file takes
seconds.  Their digests must not depend on the SIMD level numpy
dispatches to: ``test_wedge_digests_below_avx512`` reruns the wedge
tables in a subprocess with numpy's AVX-512 kernels switched off.  The
wedge digests were re-pinned once, when the aperture Gaussian moved from
``np.exp`` to libm's ``exp``, to the bytes numpy printed without
AVX-512 before that change.

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

``frozen_wedge_profiles.json.gz`` holds, in the same form, the stdout of
the two ``wedge --profile`` golden commands, gzipped for their 8193
rows, as they printed while Fresnel propagation was still the direct
Huygens sum (the frozen outputs above also predate that change).  Every
profile magnitude and density must stay within ``PROFILE_REL`` of its
column's peak, and the columns and row count must stay the same.
"""

import gzip
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eprsim
from eprsim.cli import main
from eprsim.sampler import CHUNK_EVENTS

SMALL_GEOM = "--geom beam_sigma=3e-4 --geom samples_aperture=2049 --geom samples_detector=8193"
MULTI_CHUNK = 3 * CHUNK_EVENTS + 17  # four sampler chunks, the last one partial

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
    # two render blocks each: 8,281 rows whose alpha is constant in the second
    # block only, and 9,261 rows whose mode is constant in both
    "mz --marginals --grid 91": (
        (0, '680e868646bf681abbaab372e67d8b2a97765df9754e82e949df333943eef494'),
        (0, '4abd076bc04af46fe5452f874d17d81c91e1e4496ba97b27564fe271fedaf676'),
    ),
    "mz --grid 21 --bs-a out": (
        (0, '8028821722032899cfc1fe9e37e0f563c86dc476cef7604facdd3001e344d9bd'),
        (0, '4bbf88c83a8539af0b19b4baba2491cc54383ff53fa42a5800bdc6c9f3c916a0'),
    ),
    # 8,281 rows over two blocks, with p_hh == p_vv and p_hv == p_vh bit for bit
    "polar --grid 91": (
        (0, '7bf3a86ec2c8dd99110f62af0d420301064220e0e8c36f639c856db3c5335779'),
        (0, '3aff76713e35c3283942ba960601dfea1b62f6a23246be94aaca802f308fb8ff'),
    ),
    f"wedge --alpha pi/4 --phi-b pi/2 {SMALL_GEOM}": (
        (0, '92cde0123d18b860565e7c41ddaa9e45445169f7f87667314a681b017915123d'),
        (0, 'fde742887eded65301edc17f1cdd6724d848836e78d3153526b26cec12598bbe'),
    ),
    f"wedge --alpha pi/4 --profile {SMALL_GEOM}": (
        (0, '2273a49dcab2333f8c63ead21685d7efa17c0a1415c35127dab17eff70d3cde6'),
        (0, 'a614a9b9ad1a52712d2dd634f30779ce3a32c51b1d52d9f179c489463c18187e'),
    ),
    f"diffmap --grid 2 --phi-a pi/2 {SMALL_GEOM}": (
        (0, 'b4255b5b62af085450f7cdff44bc11a00346dbcb2a0ee4161952036af46c4921'),
        (0, '8bcc954e63e9d672812e82e78aa7844b75eefdec550cd9df72ae62401904d03c'),
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
    f"sample --bench mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a in --n {MULTI_CHUNK} --seed 5 --summary --workers 1": (
        (0, '4dc72613cdf2b26f5437dfc7b9edd3d85bda3f4dc111c944a644bba5eb7b56d5'),
        (0, '20410ae08f08940d674416801871a556212dd4e3919b120122e947a8f7f5d76a'),
    ),
    f"sample --bench mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a in --n {MULTI_CHUNK} --seed 5 --summary --workers 3": (
        (0, '4dc72613cdf2b26f5437dfc7b9edd3d85bda3f4dc111c944a644bba5eb7b56d5'),
        (0, '20410ae08f08940d674416801871a556212dd4e3919b120122e947a8f7f5d76a'),
    ),
    "chsh --n 200000 --seed 9": (
        (0, '6b6940cef716e4aaba8627142ea492e7b938147c853b5e7626c15e1c6e29c0b0'),
        (0, '62adcff39d3e1fd198be7f3b4691ac4904bc59b544f83ed74ad560499d65eab1'),
    ),
}

# multi-chunk event streams, CSV only: the JSON digests above already pin how a
# stream's rows are rendered, and 196,625 JSON rows would take seconds
STREAMS = {
    f"sample --bench polar --n {MULTI_CHUNK} --seed 10 --format csv": (
        0, '36caf9e3426bd37323548771331b28143a7409fb695da08fe1b958e8de39f712'),
    f"sample --bench polar --alpha pi/8 --theta pi/5 --n {MULTI_CHUNK} --seed 11 --format csv": (
        0, 'b3e5bac009bbc4c6130fc8796587986292e4117e4e630c5b9350db414ebbccca'),
    f"sample --bench mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a in --n {MULTI_CHUNK} --seed 12 --format csv": (
        0, '3cfe1fe60bc95a0de27a1b626d5f1115b46d1f5cf84535ef86f38e829eecab70'),
    f"sample --bench mz --alpha pi/4 --phi-a pi/6 --phi-b pi/2 --bs-a out --n {MULTI_CHUNK} --seed 13 --format csv": (
        0, '25bdb8a20f051fcbe5000059e821817ef8f4228c3b78e1b8f7c8965540dcb199'),
    f"sample --bench mz --alpha pi/8 --phi-b pi/3 --bs-a stop --n {MULTI_CHUNK} --seed 14 --format csv": (
        0, '3bef450f85c4d99abac9560543e3b1c52f026f132f9aef4bcabe2ef0eca25f00'),
}

MZ_STREAM = (f"sample --bench mz --alpha pi/8 --phi-a pi/3 --phi-b pi/5 --bs-a in "
             f"--n {MULTI_CHUNK} --seed 12")

# one multi-chunk stream in JSON, and its CSV at 3 workers, which must be the bytes
# written at 1; and a listing of no events, which still prints the header or an empty
# document
LISTINGS = {
    f"{MZ_STREAM} --format json": (
        0, '5c5aa6b89a8fc2ae463030929bb164e19fbb9e8cccc17404378a277e053d3577'),
    f"{MZ_STREAM} --format csv --workers 3": STREAMS[f"{MZ_STREAM} --format csv"],
    "sample --n 0 --format csv": (
        0, 'da3fe1e795858d6e0c127e90e8be041346378bdaa11bbb2c0080bafd92bad6f1'),
    "sample --n 0 --format json": (
        0, '609dbbae0fa3a2bbf1e5e9a1faf000750b433d80cadc3f6b4b0dc6fcef3392e3'),
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
    **STREAMS,
    **LISTINGS,
}


def run_digest(command: str, capsys) -> tuple[int, str]:
    code = main(shlex.split(command))
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_output_digest(command, capsys):
    assert run_digest(command, capsys) == CASES[command]


# numpy's dispatch without its AVX-512 kernels, set for one subprocess: AVX2 and FMA3 stay on
BELOW_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_PRINT_DIGESTS = """
import contextlib, hashlib, io, shlex, sys
from eprsim.cli import main
for command in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    print(code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def test_wedge_digests_below_avx512():
    wedge = {f"{cmd} --format {fmt}": want for cmd, pair in TABLES.items() if SMALL_GEOM in cmd
             for fmt, want in zip(("csv", "json"), pair)}
    path = os.pathsep.join(filter(None, [str(Path(eprsim.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": BELOW_AVX512}
    done = subprocess.run([sys.executable, "-c", _PRINT_DIGESTS, *wedge], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    got = [tuple(line.split()) for line in done.stdout.splitlines()]
    assert got == [(str(code), digest) for code, digest in wedge.values()]


HERE = Path(__file__).parent
FROZEN = json.loads((HERE / "frozen_wedge_outputs.json").read_text())
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


FROZEN_PROFILES = json.loads(gzip.decompress((HERE / "frozen_wedge_profiles.json.gz").read_bytes()))
PROFILE_REL = 1e-11


def profile_columns(text: str, fmt: str) -> tuple[list[str], np.ndarray]:
    """(column names, rows x columns array) of a rendered profile table."""
    if fmt == "json":
        table = json.loads(text)
        return table["columns"], np.array(table["rows"], dtype=float)
    header, *lines = text.splitlines()
    return header.split(","), np.array([line.split(",") for line in lines], dtype=float)


@pytest.mark.parametrize("command", sorted(FROZEN_PROFILES))
def test_wedge_profile_matches_frozen(command, capsys):
    code, frozen = FROZEN_PROFILES[command]
    assert main(shlex.split(command)) == code
    fmt = shlex.split(command)[-1]
    (got_columns, got), (want_columns, want) = (
        profile_columns(text, fmt) for text in (capsys.readouterr().out, frozen))
    assert got_columns == want_columns
    assert got.shape == want.shape
    worst = (np.abs(got - want) / np.abs(want).max(axis=0)).max(axis=0)
    assert (worst <= PROFILE_REL).all(), dict(zip(want_columns, worst))
