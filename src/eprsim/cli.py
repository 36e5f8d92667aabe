"""Command line front end.

One subcommand per bench plus ``sample`` (event streams), ``chsh``
(Bell-inequality estimate), ``diffmap`` (wedge signal-difference scan),
``audit`` (no-signaling sweep with a pass/fail exit code), and ``run``
(any of the above, driven by a config file).  ``COMMANDS`` declares each
subcommand's handler and parameters once; the parser, config-file
validation and ``run`` are all built from it.

Exit codes: 0 success, 1 usage or config error, 2 audit found a
deviation above tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import pathbench, polarization, sampler, wedge
from .config import Command, ConfigError, Param, geometry_item, make_geometry, parse_config
from .output import Table, emit_table
from .pathbench import AliceMode
from .wedge import WedgeGeometry


@dataclass(frozen=True)
class NoSignalReport:
    """Outcome of one no-signaling audit sweep."""

    bench: str
    configurations: int
    max_deviation: float
    worst_at: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        where = ", ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                          for v in self.worst_at)
        return (
            f"[{verdict}] {self.bench}: max marginal deviation "
            f"{self.max_deviation:.3e} at ({where}) over "
            f"{self.configurations} configurations "
            f"(tolerance {self.tolerance:.1e})"
        )


class _Worst:
    """Largest deviation an audit has seen, where, and over how many points.

    Ties go to the later point.  A NaN difference becomes the worst and
    stays, so an audit that computed a NaN anywhere cannot pass.
    """

    def __init__(self) -> None:
        self.dev, self.at, self.count = 0.0, (), 0

    def see(self, at: tuple, diff_b1: float, diff_b0: float) -> None:
        self.count += 1
        if math.isnan(diff_b1) or math.isnan(diff_b0):
            dev = math.nan
        else:
            dev = max(abs(diff_b1), abs(diff_b0))
        if not dev < self.dev and not math.isnan(self.dev):
            self.dev, self.at = dev, at

    def report(self, bench: str, tolerance: float) -> NoSignalReport:
        return NoSignalReport(bench, self.count, self.dev, self.at, tolerance)


def _linspace(stop: float, count: int) -> list[float]:
    if count < 2:
        return [0.0]
    step = stop / (count - 1)
    return [i * step for i in range(count)]


def audit_polar(grid: int = 200, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's polarization marginals must be (1/2, 1/2) for every setting."""
    worst = _Worst()
    for alpha in _linspace(math.pi / 2, grid):
        for theta in _linspace(math.pi, grid):
            marg = polarization.polar_bob_marginals(alpha, theta)
            worst.see((alpha, theta), marg.p_b1 - 0.5, marg.p_b0 - 0.5)
    return worst.report("polar", tolerance)


def audit_mz(grid: int = 50, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's path marginals must not depend on phi_a or on Alice's mode."""
    worst = _Worst()
    modes = [(mode, mode.value) for mode in AliceMode]
    for alpha in _linspace(math.pi / 2, grid):
        for phi_b in _linspace(2 * math.pi, grid):
            want = pathbench.expected_bob_marginals(alpha, phi_b)
            for phi_a in _linspace(2 * math.pi, grid):
                for mode, label in modes:
                    got = pathbench.mz_bob_marginals(alpha, phi_a, phi_b, mode)
                    worst.see((alpha, phi_a, phi_b, label),
                              got.p_b1 - want.p_b1, got.p_b0 - want.p_b0)
    return worst.report("mz", tolerance)


def audit_wedge(
    grid: int = 3,
    tolerance: float = 1e-4,
    geometry: WedgeGeometry | None = None,
) -> NoSignalReport:
    """Integrated wedge singles must track the phi_a-free closed form."""
    geom = geometry if geometry is not None else WedgeGeometry()
    worst = _Worst()
    for alpha in _linspace(math.pi / 2, max(grid, 2)):
        for phi_b in _linspace(2 * math.pi, max(grid, 2)):
            want = pathbench.expected_bob_marginals(alpha, phi_b)
            for phi_a in (0.0, math.pi / 2):
                got = wedge.wedge_bob_singles(alpha, phi_a, phi_b, geom)
                worst.see((alpha, phi_a, phi_b),
                          got[0].value - want.p_b1, got[1].value - want.p_b0)
    return worst.report("wedge", tolerance)


def run_no_signal_audit(
    bench: str = "all",
    grid: int | None = None,
    tolerance: float | None = None,
    geometry: WedgeGeometry | None = None,
) -> list[NoSignalReport]:
    """Run one audit or all three; a grid or tolerance of None keeps each audit's default."""
    given = {k: v for k, v in (("grid", grid), ("tolerance", tolerance)) if v is not None}
    reports = []
    if bench in ("polar", "all"):
        reports.append(audit_polar(**given))
    if bench in ("mz", "all"):
        reports.append(audit_mz(**given))
    if bench in ("wedge", "all"):
        reports.append(audit_wedge(geometry=geometry, **given))
    if not reports:
        raise ConfigError(f"unknown audit bench {bench!r}")
    return reports


def _emit(table: Table, args) -> int:
    text = emit_table(table, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        sys.stderr.write(f"wrote {args.out}\n")
    return 0


def _cmd_polar(args) -> int:
    if args.grid:
        alphas = _linspace(math.pi / 2, args.grid)
        thetas = _linspace(math.pi, args.grid)
        table = polarization.polar_sweep(alphas, thetas)
    else:
        probs = polarization.polar_joint_probabilities(args.alpha, args.theta)
        table = Table(
            columns=("alpha", "theta", "p_hh", "p_hv", "p_vh", "p_vv"),
            rows=[(args.alpha, args.theta) + probs.as_tuple()],
        )
    return _emit(table, args)


def _cmd_mz(args) -> int:
    mode = AliceMode(args.mode)
    if args.marginals:
        n = max(args.grid, 2)
        table = pathbench.mz_marginal_sweep(
            _linspace(math.pi / 2, n), _linspace(2 * math.pi, n)
        )
    elif args.grid:
        alphas = _linspace(math.pi / 2, args.grid)
        phis = _linspace(2 * math.pi, args.grid)
        table = pathbench.mz_sweep(alphas, phis, phis, (mode,))
    else:
        marg = pathbench.mz_bob_marginals(args.alpha, args.phi_a, args.phi_b, mode)
        if mode is AliceMode.BEAM_STOP:
            joints = (math.nan,) * 4
        else:
            joints = pathbench.mz_joint_probabilities(
                args.alpha, args.phi_a, args.phi_b, mode
            ).as_tuple()
        table = Table(
            columns=(
                "alpha", "phi_a", "phi_b", "mode",
                "p_a1b1", "p_a1b0", "p_a0b1", "p_a0b0", "p_b1", "p_b0",
            ),
            rows=[(args.alpha, args.phi_a, args.phi_b, mode.value)
                  + joints + (marg.p_b1, marg.p_b0)],
        )
    return _emit(table, args)


def _cmd_wedge(args) -> int:
    geom = make_geometry(args.geom)
    if args.profile:
        table = wedge.wedge_profile_table(args.alpha, args.phi_a, args.phi_b, geom)
    else:
        b1, b0 = wedge.wedge_bob_singles(args.alpha, args.phi_a, args.phi_b, geom)
        table = Table(
            columns=("alpha", "phi_a", "phi_b", "p_b1", "p_b0", "err_b1", "err_b0"),
            rows=[(args.alpha, args.phi_a, args.phi_b,
                   b1.value, b0.value, b1.error_estimate, b0.error_estimate)],
        )
    return _emit(table, args)


def _cmd_diffmap(args) -> int:
    n = max(args.grid, 2)
    table = wedge.signal_difference_map(
        _linspace(math.pi / 2, n), _linspace(2 * math.pi, n), args.phi_a, make_geometry(args.geom)
    )
    return _emit(table, args)


def _sampler_config(args):
    if args.bench == "polar":
        return polarization.PolarizationConfig(args.alpha, args.theta)
    return pathbench.PathConfig(args.alpha, args.phi_a, args.phi_b, AliceMode(args.mode))


def _cmd_sample(args) -> int:
    spec = sampler.SamplerSpec(_sampler_config(args), n=args.n, seed=args.seed)
    result = sampler.sample_outcome_codes(spec, workers=args.workers)
    if args.summary:
        marg = sampler.empirical_marginals(result)
        table = Table(
            columns=("n", "p_b1", "p_b0", "se_b1", "se_b0"),
            rows=[(marg.n, marg.p_b1, marg.p_b0, marg.se_b1, marg.se_b0)],
        )
    else:
        table = sampler.events_table(result)
    return _emit(table, args)


def _cmd_chsh(args) -> int:
    est = sampler.estimate_chsh(angles=args.angles, n=args.n, seed=args.seed)
    table = Table(
        columns=("s_value", "std_error", "n_per_setting",
                 "e_ab", "e_abp", "e_apb", "e_apbp"),
        rows=[(est.s_value, est.std_error, est.n_per_setting or 0)
              + est.correlations],
    )
    return _emit(table, args)


def _cmd_audit(args) -> int:
    reports = run_no_signal_audit(args.bench, args.grid, args.tolerance,
                                  make_geometry(args.geom))
    for report in reports:
        sys.stdout.write(report.line() + "\n")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    ns = args.parser.parse_args([cfg.bench])  # the subcommand with its flag defaults
    vars(ns).update(cfg.parameters, geom=list(cfg.geometry.items()))
    return ns.handler(ns)


def _angle(name: str, default: str = "0") -> Param:
    return Param(name, "angle", default, f"radians or a pi fraction (default {default})")


_ALPHA, _THETA, _PHI_A, _PHI_B = map(_angle, ("alpha", "theta", "phi_a", "phi_b"))
_MODE = Param("mode", "choice", "in",
              "Alice's analyzer: splitter in place, removed, or beam stop",
              choices=tuple(m.value for m in AliceMode), flag="--bs-a")
_SEED = Param("seed", "int", 0, minimum=0)
_OUTPUT = (Param("out", "text", help="write the table here instead of stdout"),
           Param("format", "choice", "csv", choices=("csv", "json")))

#: Every subcommand but ``run``: its handler, help line and parameters.
COMMANDS = {
    "polar": Command(_cmd_polar, "polarization bench probabilities", (
        _ALPHA, _THETA,
        Param("grid", "int", 0, "sweep an NxN grid instead", minimum=0),
        *_OUTPUT,
    )),
    "mz": Command(_cmd_mz, "path-interferometer bench probabilities", (
        _ALPHA, _PHI_A, _PHI_B, _MODE,
        Param("grid", "int", 0, "sweep an NxNxN grid instead", minimum=0),
        Param("marginals", "flag", False,
              "emit only Bob's singles over an (alpha, phi_b) grid"),
        *_OUTPUT,
    )),
    "wedge": Command(_cmd_wedge, "wedge-mirror bench integrated singles", (
        _ALPHA, _PHI_A, _PHI_B,
        Param("profile", "flag", False,
              "emit the detector-plane profile instead of integrals"),
        *_OUTPUT,
    ), geometry=True),
    "diffmap": Command(_cmd_diffmap, "wedge singles difference over a settings grid", (
        _angle("phi_a", "pi/2"),
        Param("grid", "int", 3, minimum=0),
        *_OUTPUT,
    ), geometry=True),
    "sample": Command(_cmd_sample, "draw a deterministic event stream", (
        Param("bench", "choice", "polar", choices=("polar", "mz")),
        _ALPHA, _THETA, _PHI_A, _PHI_B, _MODE,
        Param("n", "int", 1000, minimum=0),
        _SEED,
        Param("workers", "int", 1, minimum=1),
        Param("summary", "flag", False, "emit empirical marginals instead of raw events"),
        *_OUTPUT,
    )),
    "chsh": Command(_cmd_chsh, "CHSH estimate at alpha=0", (
        Param("angles", "angles", "0,pi/8,pi/4,3*pi/8",
              "a,b,a',b' as four comma-separated angles"),
        Param("n", "int", None,
              "events per setting pair (omit for the analytic value)", minimum=1),
        _SEED,
        *_OUTPUT,
    )),
    "audit": Command(_cmd_audit, "no-signaling sweep; exit 2 on failure", (
        Param("bench", "choice", "all", choices=("polar", "mz", "wedge", "all")),
        Param("grid", "int", None, minimum=1),
        Param("tolerance", "float", None),
    ), geometry=True),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 like config errors.

    argparse would exit 2, which ``audit`` uses to report a deviation.
    """

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eprsim",
        description="Two-photon entanglement benches and no-signaling audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for param in command.params:
            option = param.flag or "--" + param.name.replace("_", "-")
            if param.kind == "flag":
                p.add_argument(option, dest=param.name, action="store_true",
                               help=param.help)
            else:
                p.add_argument(option, dest=param.name, type=param.coerce,
                               default=param.default, choices=param.choices or None,
                               help=param.help)
        if command.geometry:
            p.add_argument("--geom", action="append", type=geometry_item,
                           metavar="KEY=VALUE", help="override a geometry field (repeatable)")
        p.set_defaults(handler=command.handler)

    p = sub.add_parser("run", help="execute a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_run, parser=parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ConfigError and SamplingError included
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
