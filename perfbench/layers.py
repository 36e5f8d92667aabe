"""Per-layer measurements: each module's public functions, called directly.

    python3 perfbench/layers.py --seed N --workers K --spans OUT.jsonl --metrics OUT.json

Run by run.py as a fresh process, in the same environment as the CLI
commands.  Inputs are those of the workloads (the sweep grids, the wedge
residual map, the stream settings for the seed).  Every measured call is
a span; the metrics are computed from the spans and written, with any
check that failed, to OUT.json.  The acceptance-test budget shares are
estimated from the layer timings, without running the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys

import api
import checks
import workloads
from spans import Tracer, duration

POINT_CALLS = 20_000  # scalar calls per per-call timing
STREAM_EVENTS = 1_000_000
SUMMARY_EVENTS = 20_000_000

#: Acceptance-test timing budgets, in seconds.
BUDGETS = {"01": 1.0, "04": 10.0, "07": 10.0, "08": 120.0, "09": 300.0}


class Suite:
    def __init__(self, seed: int, workers: int, parent: str | None):
        self.tracer = Tracer(root_parent=parent)
        self.seed = seed
        self.workers = workers
        self.rng = random.Random(f"layers-{seed}")
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.checks = 0

    def timed(self, name: str, fn, *args, **sizes):
        """Call fn(*args) in a span; returns (result, seconds)."""
        with self.tracer.span(name, **sizes) as span:
            result = fn(*args)
        return result, duration(span)

    def per_call(self, name: str, fn, inputs: list[tuple]) -> float:
        """Seconds per call of fn over the inputs."""

        def loop():
            for item in inputs:
                fn(*item)

        _, seconds = self.timed(name, loop, calls=len(inputs))
        return seconds / len(inputs)

    def check(self, what: str, errors: list[str]) -> None:
        self.checks += 1
        self.failures.extend(f"{what}: {e}" for e in errors)

    def angles(self, count: int, *ranges: tuple[float, float]) -> list[tuple]:
        return [tuple(self.rng.uniform(lo, hi) for lo, hi in ranges) for _ in range(count)]


def measure_config_cli(s: Suite) -> None:
    parse_config, parse_angle = api.find("parse_config"), api.find("parse_angle")
    build_parser, main = api.find("build_parser"), api.find("main")
    texts = [("bench=polar alpha=0.3 theta=pi/8\nout=polar.csv\n",),
             ('{"bench": "chsh", "parameters": {"n": 100000, "seed": 1}, "format": "json"}',)]
    s.metrics["config.parse_config_us"] = 1e6 * s.per_call(
        "config.parse_config", parse_config, texts * 1000)
    literals = [("pi/4",), ("3*pi/8",), ("-pi/2",), ("2pi",), ("0.78539816339744828",)]
    s.metrics["config.parse_angle_us"] = 1e6 * s.per_call(
        "config.parse_angle", parse_angle, literals * 2000)
    s.metrics["cli.build_parser_ms"] = 1e3 * s.per_call(
        "cli.build_parser", build_parser, [()] * 50)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        s.metrics["cli.main_ms"] = 1e3 * s.per_call("cli.main", main, [(["chsh"],)] * 50)
    s.check("in-process chsh", [] if sink.getvalue().count("s_value") == 50
            else ["cli.main did not print 50 CHSH tables"])


def measure_bench_kernels(s: Suite) -> dict[str, float]:
    """The scalar amplitude kernels; returns per-call seconds by mode for test 01."""
    polar_amplitudes = api.find("polar_joint_amplitudes")
    polar_points = s.angles(POINT_CALLS, (0.0, 2 * math.pi), (0.0, 2 * math.pi))
    amplitudes = [(polar_amplitudes(a, t),) for a, t in polar_points]
    s.metrics["core.distribution_from_amplitudes_us"] = 1e6 * s.per_call(
        "core.distribution_from_amplitudes", api.find("distribution_from_amplitudes"),
        amplitudes)
    polar_jp = s.per_call("polarization.polar_joint_probabilities",
                          api.find("polar_joint_probabilities"), polar_points)
    s.metrics["polarization.joint_probabilities_us"] = 1e6 * polar_jp

    from eprsim.pathbench import AliceMode

    mz_points = s.angles(POINT_CALLS // 3, (0.0, 2 * math.pi), (0.0, 2 * math.pi),
                         (0.0, 2 * math.pi))
    marginals, joints = api.find("mz_bob_marginals"), api.find("mz_joint_probabilities")
    per_mode = {}
    for mode in AliceMode:
        inputs = [p + (mode,) for p in mz_points]
        per_mode[f"marginals_{mode.value}"] = s.per_call(
            f"pathbench.mz_bob_marginals.{mode.value}", marginals, inputs)
        if mode is not AliceMode.BEAM_STOP:
            per_mode[f"joints_{mode.value}"] = s.per_call(
                f"pathbench.mz_joint_probabilities.{mode.value}", joints, inputs)
    s.metrics["pathbench.bob_marginals_us"] = 1e6 * sum(
        per_mode[f"marginals_{m.value}"] for m in AliceMode) / len(AliceMode)
    s.metrics["pathbench.joint_probabilities_us"] = 1e6 * (
        per_mode["joints_in"] + per_mode["joints_out"]) / 2
    per_mode["polar"] = polar_jp
    return per_mode


def measure_sweeps(s: Suite) -> None:
    """The sweep workload's tables, built and rendered."""
    from eprsim.pathbench import AliceMode

    alphas, thetas = checks.linspace(math.pi / 2, 200), checks.linspace(math.pi, 200)
    polar, seconds = s.timed("polarization.polar_sweep", api.find("polar_sweep"),
                             alphas, thetas, rows=len(alphas) * len(thetas))
    s.metrics["polarization.sweep_us_per_row"] = 1e6 * seconds / (len(alphas) * len(thetas))
    half, full = checks.linspace(math.pi / 2, 30), checks.linspace(2 * math.pi, 30)
    rows = len(half) * len(full) ** 2
    mz, seconds = s.timed("pathbench.mz_sweep", api.find("mz_sweep"),
                          half, full, full, (AliceMode.SPLITTER_OUT,), rows=rows)
    s.metrics["pathbench.sweep_us_per_row"] = 1e6 * seconds / rows

    render_csv, render_json = api.find("render_csv"), api.find("render_json")
    text, seconds = s.timed("output.render_csv.sweep", render_csv, polar, rows=len(alphas) ** 2)
    s.metrics["output.render_csv_sweep_ns_per_row"] = 1e9 * seconds / len(alphas) ** 2
    s.check("polar sweep", checks.polar_table(alphas, thetas).run(text.encode()))
    _, seconds = s.timed("output.render_json", render_json, polar, rows=len(alphas) ** 2)
    s.metrics["output.render_json_ns_per_row"] = 1e9 * seconds / len(alphas) ** 2
    s.check("mz sweep", checks.mz_table(half, full, full, "out").run(render_csv(mz).encode()))


def measure_audits(s: Suite) -> None:
    for bench, grid, configurations in (("polar", 200, 200 ** 2), ("mz", 50, 3 * 50 ** 3)):
        report, seconds = s.timed(f"audit.{bench}", api.find(f"audit_{bench}"),
                                  grid, 1e-12, configurations=configurations)
        s.metrics[f"audit.{bench}_s"] = seconds
        s.check(f"audit {bench}", checks.audit_report(bench, configurations, 1e-12)
                .run(report.line().encode()))
        if bench == "mz":
            s.metrics["audit.mz_max_deviation"] = report.max_deviation


def measure_wedge(s: Suite) -> dict[str, float]:
    """Aperture fields, the residual map cold and warm, and the wedge audit.

    Returns the seconds of the cold maps acceptance tests 08 and 09 make
    on geometries of their own.
    """
    from eprsim.wedge import WedgeGeometry

    geom = WedgeGeometry()
    aperture = api.find("truncated_aperture_field")
    s.metrics["wedge.aperture_field_ms"] = 1e3 * s.per_call(
        "wedge.truncated_aperture_field", aperture, [(geom, 1), (geom, 2)] * 10)

    alphas, phis = checks.linspace(math.pi / 2, 20), checks.linspace(2 * math.pi, 20)
    cells = len(alphas) * len(phis)
    diffmap = api.find("signal_difference_map")
    propagate = api.find("fresnel_propagate")
    # The field cache is private, so "cold" is the first map in this process;
    # propagation spans come from a stand-in for fresnel_propagate.
    replaced = api.replace(propagate, s.tracer.wrap("wedge.fresnel_propagate", propagate))
    try:
        table, cold = s.timed("wedge.signal_difference_map.cold", diffmap,
                              alphas, phis, math.pi / 2, geom, cells=cells)
    finally:
        api.restore(replaced)
    beams = [duration(sp) for sp in s.tracer.spans if sp["name"] == "wedge.fresnel_propagate"]
    if not beams:  # propagation no longer goes through fresnel_propagate
        _, seconds = s.timed("wedge.fresnel_propagate", propagate,
                             aperture(geom, 1), geom, -geom.tilt_angle)
        beams = [seconds]
    s.metrics["wedge.propagate_s_per_beam"] = sum(beams) / len(beams)
    s.metrics["wedge.diffmap_cold_s"] = cold

    warm_table, warm = s.timed("wedge.signal_difference_map.warm", diffmap,
                               alphas, phis, math.pi / 2, geom, cells=cells)
    s.metrics["wedge.diffmap_warm_s"] = warm
    integrate = api.find("integrate_detector")
    with s.tracer.span("wedge.signal_difference_map.quadrature", cells=cells) as outer:
        replaced = api.replace(integrate, s.tracer.wrap("wedge.integrate_detector", integrate))
        try:
            diffmap(alphas, phis, math.pi / 2, geom)
        finally:
            api.restore(replaced)
    quad = [duration(sp) for sp in s.tracer.spans
            if sp["name"] == "wedge.integrate_detector" and sp["parent"] == outer["id"]]
    s.metrics["wedge.quadrature_us_per_cell"] = 1e6 * (sum(quad) if quad else warm) / cells

    render_csv = api.find("render_csv")
    text = render_csv(table).encode()
    s.check("diffmap cold", checks.diffmap_reference(workloads.REFERENCE.read_bytes()).run(text))
    s.check("diffmap warm", [] if render_csv(warm_table).encode() == text
            else ["warm map differs from cold map"])
    _, rows = checks.parse_table(text)
    s.metrics["wedge.quad_err_max"] = max(max(float(r[4]), float(r[5])) for r in rows)
    s.metrics["wedge.residual_max"] = max(max(abs(float(r[2])), abs(float(r[3]))) for r in rows)

    report, seconds = s.timed("audit.wedge", api.find("audit_wedge"), 3, 1e-4, geom)
    s.metrics["audit.wedge_s"] = seconds
    s.check("audit wedge", [] if report.passed else [report.line()])

    # Test 08: the 20x20 map on the untruncated, untilted geometry.  Test
    # 09: after the default map, 5x5 maps at apertures of 5..10 sigma; the
    # 10-sigma one is the default geometry, so five of them are cold.
    timings = {}
    _, timings["test08"] = s.timed(
        "wedge.signal_difference_map.test08", diffmap, alphas, phis, 0.0,
        WedgeGeometry(aperture_halfwidth=math.inf, tilt_angle=0.0), cells=cells)
    small = checks.linspace(math.pi / 2, 5), checks.linspace(2 * math.pi, 5)
    _, timings["test09_small"] = s.timed(
        "wedge.signal_difference_map.test09", diffmap, *small, math.pi / 2,
        WedgeGeometry(aperture_halfwidth=5 * geom.beam_sigma), cells=25)
    return timings


def measure_sampler(s: Suite) -> None:
    from eprsim.pathbench import AliceMode, PathConfig
    from eprsim.sampler import SamplerSpec

    alpha, phi_a, phi_b, sample_seed = workloads.stream_settings(s.seed)
    config = PathConfig(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN)
    sample = api.find("sample_outcome_codes")
    spec = SamplerSpec(config, n=SUMMARY_EVENTS, seed=sample_seed)
    digests = []
    for tag, workers in (("w1", 1), ("wN", s.workers)):
        result, seconds = s.timed(f"sampler.sample_outcome_codes.{tag}", sample,
                                  spec, workers, events=SUMMARY_EVENTS, workers=workers)
        s.metrics[f"sampler.codes_ns_per_event_{tag}"] = 1e9 * seconds / SUMMARY_EVENTS
        digests.append(checks.digest(result.codes.tobytes()))
        del result
    s.check("codes at 1 and N workers", [] if digests[0] == digests[1]
            else ["outcome codes differ between 1 and N workers"])

    _, seconds = s.timed("sampler.estimate_chsh", api.find("estimate_chsh"),
                         checks.CHSH_ANGLES, STREAM_EVENTS, sample_seed,
                         events=4 * STREAM_EVENTS)
    s.metrics["sampler.chsh_s"] = seconds

    result = sample(SamplerSpec(config, n=STREAM_EVENTS, seed=sample_seed), 1)
    table, seconds = s.timed("sampler.events_table", api.find("events_table"), result,
                             rows=STREAM_EVENTS)
    s.metrics["sampler.events_table_ns_per_row"] = 1e9 * seconds / STREAM_EVENTS
    del result
    text, seconds = s.timed("output.render_csv.events", api.find("render_csv"), table,
                            rows=STREAM_EVENTS)
    s.metrics["output.render_csv_ns_per_row"] = 1e9 * seconds / STREAM_EVENTS
    del table
    s.check("events", checks.events_csv(alpha, phi_a, phi_b, STREAM_EVENTS)
            .run(text.encode()))


def budget_shares(m: dict[str, float], per_call: dict[str, float],
                  maps: dict[str, float]) -> dict[str, float]:
    """Percent of each acceptance test's timing budget, from layer timings.

    01: 10^4 random points, each one polar call and one mz call in a
        rotating mode (joints for in/out, Bob's marginals for the stop).
    04: the mz audit at grid 50.  07: CHSH from 10^6 events per setting.
    08: its own 20x20 map, timed as such.  09: the default 20x20 map
        cold, five cold 5x5 maps on new geometries, and one warm one.
    """
    cell = m["wedge.diffmap_warm_s"] / 400
    seconds = {
        "01": 1e4 * (per_call["polar"] + (per_call["joints_in"] + per_call["joints_out"]
                                          + per_call["marginals_stop"]) / 3),
        "04": m["audit.mz_s"],
        "07": m["sampler.chsh_s"],
        "08": maps["test08"],
        "09": m["wedge.diffmap_cold_s"] + 5 * maps["test09_small"] + 25 * cell,
    }
    return {f"budget.test{k}_pct": 100.0 * v / BUDGETS[k] for k, v in seconds.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--parent", default=None, help="span id of the caller's span")
    args = parser.parse_args(argv)

    s = Suite(args.seed, args.workers, args.parent)
    with s.tracer.span("layers"):
        measure_config_cli(s)
        per_call = measure_bench_kernels(s)
        measure_sweeps(s)
        measure_audits(s)
        maps = measure_wedge(s)
        measure_sampler(s)
    s.metrics.update(budget_shares(s.metrics, per_call, maps))
    s.tracer.dump(args.spans)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        json.dump({"metrics": s.metrics, "checks": s.checks, "failures": s.failures}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
