"""The four workloads: README commands, their inputs, and their checks.

Each workload is a list of eprsim CLI commands that make up one pass.
The seed picks the sample seeds and the random point settings; the sweep
grids are fixed, so ``sweep`` and ``wedge`` are the same for every seed.

* sweep  - the scalar polarization/pathbench/core loops and the two
           analytic audits; no wedge code, almost no sampling.
* wedge  - the default-aperture residual map: two cold Fresnel
           propagations and 400 cells of detector quadrature.
* stream - a million-event CSV, 2e7-event summaries at 1 and N workers,
           and a sampled CHSH: the sampler, events_table and rendering.
* quick  - about ten point commands of ~0.3 s each, where interpreter
           start, import, argparse and config parsing dominate and the
           tables have one row.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

REFERENCE = Path(__file__).resolve().parent / "ref" / "diffmap_grid20_phia_pi2.csv"


@dataclass
class Command:
    """One ``python -m eprsim`` invocation.

    ``out`` names the file the command writes (else its standard output
    is checked); ``same_as`` groups commands whose output must be
    byte-identical; ``files`` are inputs written before the pass.  A
    command that is not ``timed`` is run and checked but left out of the
    end-to-end metrics.
    """

    argv: list[str]
    check: checks.Check
    out: str | None = None
    same_as: str | None = None
    files: dict[str, str] = field(default_factory=dict)
    timed: bool = True

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def sweep(seed: int, pass_index: int, nproc: int) -> list[Command]:
    half, full = checks.linspace(math.pi / 2, 30), checks.linspace(2 * math.pi, 30)
    return [
        Command(["audit", "--bench", "polar"],
                checks.audit_report("polar", 200 * 200, 1e-12)),
        Command(["audit", "--bench", "mz"],
                checks.audit_report("mz", 50 ** 3 * 3, 1e-12)),
        Command(["polar", "--grid", "200", "--out", "sweep_polar.csv"],
                checks.polar_table(checks.linspace(math.pi / 2, 200),
                                   checks.linspace(math.pi, 200)),
                out="sweep_polar.csv"),
        Command(["mz", "--grid", "30", "--bs-a", "out", "--out", "sweep_mz.csv"],
                checks.mz_table(half, full, full, "out"), out="sweep_mz.csv"),
    ]


def wedge(seed: int, pass_index: int, nproc: int) -> list[Command]:
    return [
        Command(["diffmap", "--grid", "20", "--phi-a", "pi/2", "--out", "diffmap.csv"],
                checks.diffmap_reference(REFERENCE.read_bytes()), out="diffmap.csv"),
    ]


def stream_settings(seed: int) -> tuple[float, float, float, int]:
    """(alpha, phi_a, phi_b, sample seed) of the stream workload.

    Random angles here and in ``quick`` start at 0.1, so that each one
    prints with all 17 significant digits.
    """
    rng = random.Random(f"stream-{seed}")
    return (rng.uniform(0.1, 1.4), rng.uniform(0.1, 6.2), rng.uniform(0.1, 6.2),
            rng.randrange(2 ** 31))


def stream(seed: int, pass_index: int, nproc: int) -> list[Command]:
    alpha, phi_a, phi_b, sample_seed = stream_settings(seed)
    point = ["--bench", "mz", "--alpha", repr(alpha), "--phi-a", repr(phi_a),
             "--phi-b", repr(phi_b), "--seed", str(sample_seed)]
    many = workers(nproc)
    p_b1 = float(checks.bob_b1(alpha, phi_b))

    def events(n: int, n_workers: int, timed: bool = True) -> Command:
        out = f"events_n{n}_w{n_workers}.csv"
        return Command(["sample", *point, "--n", str(n), "--workers", str(n_workers),
                        "--out", out],
                       checks.events_csv(alpha, phi_a, phi_b, n),
                       out=out, same_as=f"events {n}", timed=timed)

    # The first pass also writes a shorter event file (four sampler
    # chunks) at 1 and at N workers, untimed: the bytes must not change
    # with the worker count.
    check_only = ([events(200_000, 1, timed=False), events(200_000, many, timed=False)]
                  if pass_index == 0 else [])
    return [
        events(1_000_000, 1),
        Command(["sample", *point, "--n", "20000000", "--summary"],
                checks.summary(p_b1, 20_000_000), same_as="summary"),
        Command(["sample", *point, "--n", "20000000", "--summary", "--workers", str(many)],
                checks.summary(p_b1, 20_000_000), same_as="summary"),
        Command(["chsh", "--n", "1000000", "--seed", str(sample_seed)],
                checks.chsh(1_000_000)),
        *check_only,
    ]


def quick(seed: int, pass_index: int, nproc: int) -> list[Command]:
    rng = random.Random(f"quick-{seed}")
    a1, t1, a2, t2 = (rng.uniform(0.1, 1.4), rng.uniform(0.1, 3.0),
                      rng.uniform(0.1, 1.4), rng.uniform(0.1, 3.0))
    alpha, phi_a, phi_b = rng.uniform(0.1, 1.4), rng.uniform(0.1, 6.2), rng.uniform(0.1, 6.2)
    sample_seed = rng.randrange(2 ** 31)
    mz_point = ["--alpha", repr(alpha), "--phi-a", repr(phi_a), "--phi-b", repr(phi_b)]
    kv_config = (f"# polar point, written as CSV\n"
                 f"bench=polar alpha={a2!r} theta={t1!r}\nout=config_polar.csv\n")
    json_config = json.dumps({"bench": "chsh", "format": "json",
                              "parameters": {"n": 100000, "seed": sample_seed}})
    return [
        Command(["polar", "--alpha", repr(a1), "--theta", repr(t1)],
                checks.polar_table([a1], [t1])),
        Command(["polar", "--alpha", repr(a2), "--theta", repr(t2), "--format", "json"],
                checks.polar_table([a2], [t2], fmt="json")),
        Command(["polar", "--alpha", "pi/8", "--theta", "3*pi/8"],
                checks.polar_table([math.pi / 8], [3 * math.pi / 8])),
        *(Command(["mz", *mz_point, "--bs-a", mode],
                  checks.mz_table([alpha], [phi_a], [phi_b], mode))
          for mode in ("in", "out", "stop")),
        Command(["chsh"], checks.chsh(None)),
        Command(["sample", "--bench", "polar", "--alpha", repr(a1), "--theta", repr(t2),
                 "--n", "1000", "--seed", str(sample_seed), "--summary"],
                checks.summary(0.5, 1000)),
        Command(["sample", "--bench", "mz", *mz_point, "--bs-a", "stop",
                 "--n", "1000", "--seed", str(sample_seed), "--summary"],
                checks.summary(float(checks.bob_b1(alpha, phi_b)), 1000)),
        Command(["run", "--config", "config_polar.cfg"],
                checks.polar_table([a2], [t1]), out="config_polar.csv",
                files={"config_polar.cfg": kv_config}),
        Command(["run", "--config", "config_chsh.json"],
                checks.chsh(100000, fmt="json"),
                files={"config_chsh.json": json_config}),
    ]


def workers(nproc: int) -> int:
    """The "N workers" count: nproc, but at least 2 so the comparison means something."""
    return max(2, nproc)


WORKLOADS = {"sweep": sweep, "wedge": wedge, "stream": stream, "quick": quick}
