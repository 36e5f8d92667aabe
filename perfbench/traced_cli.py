"""Run one eprsim CLI command with a span around each call into a layer.

    python3 perfbench/traced_cli.py SPANS.jsonl PARENT_SPAN_ID ARGV...

Behaves like ``python -m eprsim ARGV...`` (same output, same exit code),
but first points the package's module-level references to the functions
in TRACED at stand-ins that record a span per call, then writes the
spans to SPANS.jsonl when the command is done.  Only calls that happen a
handful of times per command are traced; the per-point functions inside
the sweeps and audits are not, so tracing adds little to the command.
"""

from __future__ import annotations

import sys

from spans import Tracer

#: eprsim function -> span name ("<layer>.<what>").
TRACED = {
    "build_parser": "cli.build_parser",
    "parse_config": "config.parse_config",
    "parse_angle": "config.parse_angle",
    "audit_polar": "audit.polar",
    "audit_mz": "audit.mz",
    "audit_wedge": "audit.wedge",
    "polar_sweep": "polarization.polar_sweep",
    "mz_sweep": "pathbench.mz_sweep",
    "mz_marginal_sweep": "pathbench.mz_marginal_sweep",
    "signal_difference_map": "wedge.signal_difference_map",
    "wedge_profile_table": "wedge.wedge_profile_table",
    "fresnel_propagate": "wedge.fresnel_propagate",
    "integrate_detector": "wedge.integrate_detector",
    "sample_outcome_codes": "sampler.sample_outcome_codes",
    "empirical_marginals": "sampler.empirical_marginals",
    "estimate_chsh": "sampler.estimate_chsh",
    "events_table": "sampler.events_table",
    "render_csv": "output.render_csv",
    "render_json": "output.render_json",
    "emit_table": "output.emit_table",
}


def sizes(args: tuple, result) -> dict:
    """Work sizes read off a call's arguments and result."""
    out = {}
    for name, attr in (("rows", "rows"), ("events", "codes"), ("points", "grid")):
        value = getattr(result, attr, None)
        if value is not None:
            try:
                out[name] = len(value)
            except TypeError:
                pass
    if isinstance(result, str):
        out["chars"] = len(result)
    configurations = getattr(result, "configurations", None)
    if isinstance(configurations, int):
        out["configurations"] = configurations
    if args and hasattr(args[0], "grid"):
        out["points_in"] = len(args[0].grid)
    return out


def install(tracer: Tracer) -> None:
    import api

    for name, span_name in TRACED.items():
        try:
            fn = api.find(name)
        except LookupError:
            continue
        api.replace(fn, tracer.wrap(span_name, fn, sizes))


def main(argv: list[str]) -> int:
    spans_path, parent, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(root_parent=parent)
    with tracer.span("import.eprsim"):
        import eprsim.cli
    install(tracer)
    try:
        with tracer.span("cli.main", args=len(cli_argv)):
            return eprsim.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
