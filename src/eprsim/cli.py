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

import numpy as np

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


def _linspace(stop: float, count: int) -> list[float]:
    if count < 2:
        return [0.0]
    step = stop / (count - 1)
    return [i * step for i in range(count)]


def _audit(bench, tolerance, axes, diff, at=lambda *point: point) -> NoSignalReport:
    """Report the worst of Bob's marginal differences ``diff``, shaped (2, *axes).

    In visiting (C) order the first NaN wins, so an audit that computed a NaN
    anywhere cannot pass; otherwise the last of equal maxima does.  ``at``
    orders the worst point's coordinates for the report."""
    dev = np.maximum(np.abs(diff[0]), np.abs(diff[1])).ravel()
    nan = np.flatnonzero(np.isnan(dev))
    i = nan[0] if nan.size else dev.size - 1 - int(np.argmax(dev[::-1]))
    index = np.unravel_index(i, [len(axis) for axis in axes])
    return NoSignalReport(bench, dev.size, float(dev[i]),
                          at(*(axis[k] for axis, k in zip(axes, index))), tolerance)


def audit_polar(grid: int = 200, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's polarization marginals must be (1/2, 1/2) for every setting."""
    alphas, thetas = _linspace(math.pi / 2, grid), _linspace(math.pi, grid)
    theta = np.array(thetas)
    bob = [polarization.polar_bob_marginals(alpha, theta).as_tuple() for alpha in alphas]
    return _audit("polar", tolerance, (alphas, thetas), np.stack(bob, axis=1) - 0.5)


def audit_mz(grid: int = 50, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's path marginals must not depend on phi_a or on Alice's mode."""
    alphas, phis = _linspace(math.pi / 2, grid), _linspace(2 * math.pi, grid)
    phi_a, modes = np.array(phis), list(AliceMode)
    phi_b = phi_a[:, None]

    def diff(alpha):  # axes (phi_b, phi_a, mode)
        want = np.array(pathbench.expected_bob_marginals(alpha, phi_b).as_tuple())[..., None]
        got = [np.array(pathbench.mz_bob_marginals(alpha, phi_a, phi_b, mode).as_tuple())
               for mode in modes]  # BEAM_STOP's lack the phi_a axis
        return np.stack(np.broadcast_arrays(*got), axis=-1) - want

    return _audit("mz", tolerance, (alphas, phis, phis, [mode.value for mode in modes]),
                  np.stack([diff(alpha) for alpha in alphas], axis=1),
                  lambda alpha, phi_b, phi_a, mode: (alpha, phi_a, phi_b, mode))


def audit_wedge(grid: int = 3, tolerance: float = 1e-4,
                geometry: WedgeGeometry | None = None) -> NoSignalReport:
    """Integrated wedge singles must track the phi_a-free closed form."""
    geom = geometry if geometry is not None else WedgeGeometry()
    alphas, phis_b = _linspace(math.pi / 2, grid), _linspace(2 * math.pi, grid)
    phis_a = (0.0, math.pi / 2)
    phi_a, phi_b = np.array(phis_a), np.array(phis_b)[:, None]

    def diff(alpha):  # axes (phi_b, phi_a)
        got, _ = wedge._bob_singles(alpha, phi_a, phi_b, geom)
        return np.subtract(got, pathbench.expected_bob_marginals(alpha, phi_b).as_tuple())

    return _audit("wedge", tolerance, (alphas, phis_b, phis_a),
                  np.stack([diff(alpha) for alpha in alphas], axis=1),
                  lambda alpha, phi_b, phi_a: (alpha, phi_a, phi_b))


def run_no_signal_audit(bench: str = "all", grid: int | None = None,
                        tolerance: float | None = None,
                        geometry: WedgeGeometry | None = None) -> list[NoSignalReport]:
    """Run one audit or all three; a grid or tolerance of None keeps each audit's default."""
    given = {k: v for k, v in (("grid", grid), ("tolerance", tolerance)) if v is not None}
    audits = {"polar": audit_polar, "mz": audit_mz,
              "wedge": lambda **kw: audit_wedge(geometry=geometry, **kw)}
    if bench != "all" and bench not in audits:
        raise ConfigError(f"unknown audit bench {bench!r}")
    return [audit(**given) for name, audit in audits.items() if bench in (name, "all")]


def _emit(table: Table, args) -> int:
    text = emit_table(table, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        sys.stderr.write(f"wrote {args.out}\n")
    return 0


def _cmd_polar(args) -> int:
    axes = ((_linspace(math.pi / 2, args.grid), _linspace(math.pi, args.grid)) if args.grid
            else ([args.alpha], [args.theta]))
    return _emit(polarization.polar_sweep(*axes), args)


def _cmd_mz(args) -> int:
    if args.marginals and not args.grid:
        raise ConfigError("mz --marginals needs --grid N with N >= 1")
    alphas, phis = _linspace(math.pi / 2, args.grid), _linspace(2 * math.pi, args.grid)
    if args.marginals:
        return _emit(pathbench.mz_marginal_sweep(alphas, phis), args)
    axes = (alphas, phis, phis) if args.grid else ([args.alpha], [args.phi_a], [args.phi_b])
    return _emit(pathbench.mz_sweep(*axes, (AliceMode(args.mode),)), args)


def _cmd_wedge(args) -> int:
    geom, settings = make_geometry(args.geom), (args.alpha, args.phi_a, args.phi_b)
    if args.profile:
        return _emit(wedge.wedge_profile_table(*settings, geom), args)
    singles, errors = wedge._bob_singles(*settings, geom)
    return _emit(Table.from_rows(("alpha", "phi_a", "phi_b", "p_b1", "p_b0", "err_b1", "err_b0"),
                                 [settings + singles + errors]), args)


def _cmd_diffmap(args) -> int:
    grid = (_linspace(math.pi / 2, args.grid), _linspace(2 * math.pi, args.grid))
    table = wedge.signal_difference_map(*grid, args.phi_a, make_geometry(args.geom))
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
        table = Table.from_rows(
            ("n", "p_b1", "p_b0", "se_b1", "se_b0"),
            [(marg.n, marg.p_b1, marg.p_b0, marg.se_b1, marg.se_b0)],
        )
    else:
        table = sampler.events_table(result)
    return _emit(table, args)


def _cmd_chsh(args) -> int:
    est = sampler.estimate_chsh(angles=args.angles, n=args.n, seed=args.seed)
    table = Table.from_rows(
        ("s_value", "std_error", "n_per_setting", "e_ab", "e_abp", "e_apb", "e_apbp"),
        [(est.s_value, est.std_error, est.n_per_setting or 0) + est.correlations],
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
