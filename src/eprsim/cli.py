"""Command line front end.

One subcommand per bench plus ``sample`` (event streams), ``chsh``
(Bell-inequality estimate), ``diffmap`` (wedge signal-difference scan),
``audit`` (no-signaling sweep with a pass/fail exit code), and ``run``
(any of the above, driven by a config file).  ``COMMANDS`` declares each
subcommand's handler and parameters once; the parser, config-file
validation and ``run`` are all built from it.  A handler returns what it
computed, a ``Table`` (one per chunk for an event listing) or the audit's
reports, and writes nothing; ``main`` alone writes it and picks the exit code.

Exit codes: 0 success, 1 usage or config error, 2 audit found a
deviation above tolerance.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Iterator

from . import pathbench, polarization
from .config import Command, ConfigError, Param, geometry_item, make_geometry, parse_config
from .output import NoSignalReport, Table, emit_table, grid_axes
from .pathbench import AliceMode


def run_no_signal_audit(bench: str = "all", grid: int | None = None,
                        tolerance: float | None = None,
                        geometry=None) -> list[NoSignalReport]:
    """Run one audit or all three; a grid or tolerance of None keeps each audit's default,
    and a geometry of None the wedge's."""
    if bench not in ("polar", "mz", "wedge", "all"):
        raise ConfigError(f"unknown audit bench {bench!r}")
    given = {k: v for k, v in (("grid", grid), ("tolerance", tolerance)) if v is not None}
    reports = [audit(**given) for name, audit in (("polar", polarization.audit_polar),
                                                  ("mz", pathbench.audit_mz))
               if bench in (name, "all")]
    if bench in ("wedge", "all"):
        from .wedge import audit_wedge
        reports.append(audit_wedge(geometry=geometry, **given))
    return reports


def _cmd_polar(args) -> Table:
    axes = grid_axes(args.grid, math.pi) if args.grid else ([args.alpha], [args.theta])
    return polarization.polar_sweep(*axes)


def _cmd_mz(args) -> Table:
    if args.marginals and not args.grid:
        raise ConfigError("mz --marginals needs --grid N with N >= 1")
    if args.marginals:
        return pathbench.mz_marginal_sweep(*grid_axes(args.grid, 2 * math.pi))
    axes = (grid_axes(args.grid, 2 * math.pi, 2 * math.pi) if args.grid
            else ([args.alpha], [args.phi_a], [args.phi_b]))
    return pathbench.mz_sweep(*axes, (AliceMode(args.mode),))


def _cmd_wedge(args) -> Table:
    from . import wedge
    geom, settings = make_geometry(args.geom), (args.alpha, args.phi_a, args.phi_b)
    if args.profile:
        return wedge.wedge_profile_table(*settings, geom)
    b1, b0 = wedge.wedge_bob_singles(*settings, geom)
    return Table.from_rows(("alpha", "phi_a", "phi_b", "p_b1", "p_b0", "err_b1", "err_b0"),
                           [settings + (b1.value, b0.value, b1.error_estimate, b0.error_estimate)])


def _cmd_diffmap(args) -> Table:
    from . import wedge
    return wedge.signal_difference_map(*grid_axes(args.grid, 2 * math.pi), args.phi_a,
                                       make_geometry(args.geom))


def _cmd_sample(args) -> Table | Iterator[Table]:
    from . import sampler
    config = (polarization.PolarizationConfig(args.alpha, args.theta) if args.bench == "polar"
              else pathbench.PathConfig(args.alpha, args.phi_a, args.phi_b, AliceMode(args.mode)))
    spec = sampler.SamplerSpec(config, n=args.n, seed=args.seed)
    if args.summary:
        marg = sampler.empirical_marginals(sampler.sample_outcome_counts(spec, args.workers))
        return Table.from_rows(
            ("n", "p_b1", "p_b0", "se_b1", "se_b0"),
            [(marg.n, marg.p_b1, marg.p_b0, marg.se_b1, marg.se_b0)],
        )
    return sampler.sample_events(spec, workers=args.workers)


def _cmd_chsh(args) -> Table:
    from . import sampler
    est = sampler.estimate_chsh(angles=args.angles, n=args.n, seed=args.seed)
    return Table.from_rows(
        ("s_value", "std_error", "n_per_setting", "e_ab", "e_abp", "e_apb", "e_apbp"),
        [(est.s_value, est.std_error, est.n_per_setting or 0) + est.correlations],
    )


def _cmd_audit(args) -> list[NoSignalReport]:
    geometry = make_geometry(args.geom) if args.geom else None  # None: the wedge default
    return run_no_signal_audit(args.bench, args.grid, args.tolerance, geometry)


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
        Param("grid", "int", 3, minimum=1),
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
        Param("tolerance", "float", None, minimum=0),
    ), geometry=True),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 like config errors.

    argparse would exit 2, which ``audit`` uses to report a deviation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # adds -h under argparse's own matcher
        # '-' then a non-dash naming no option is a value: --alpha -pi/4 as --alpha=-pi/4
        self._negative_number_matcher = re.compile(r"^-[^-]")

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
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "run":  # the subcommand the file names, with its flag defaults
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            args = parser.parse_args([cfg.bench])
            vars(args).update(cfg.parameters, geom=list(cfg.geometry.items()))
        result = args.handler(args)
        if isinstance(result, list):  # the audit's reports
            sys.stdout.writelines(report.line() + "\n" for report in result)
            return 0 if all(report.passed for report in result) else 2
        emit_table(result, fmt=args.format, path=args.out)
        if args.out is not None:
            sys.stderr.write(f"wrote {args.out}\n")
        return 0
    except (ValueError, OSError) as exc:  # ConfigError and SamplingError included
        sys.stderr.write(f"error: {exc}\n")
        return 1
