"""Config parsing and the command line front end."""

import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import eprsim
from eprsim import output, pathbench, polarization, wedge
from eprsim.cli import COMMANDS, build_parser, main, run_no_signal_audit
from eprsim.config import (
    ConfigError,
    RunConfig,
    format_angle,
    make_geometry,
    parse_angle,
    parse_config,
    serialize_config,
)
from eprsim.output import NoSignalReport, Table, grid_audit, grid_axes, render_csv
from eprsim.pathbench import audit_mz
from eprsim.polarization import audit_polar
from eprsim.wedge import WedgeGeometry, audit_wedge

README = Path(__file__).resolve().parent.parent / "README.md"

# small fast geometry for any CLI path that actually propagates
GEOM_FLAGS = [
    "--geom", "beam_sigma=3e-4",
    "--geom", "samples_aperture=2049",
    "--geom", "samples_detector=8193",
]
SMALL_GEOMETRY = {"beam_sigma": 3e-4, "samples_aperture": 2049, "samples_detector": 8193}


class TestParseAngle:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("pi/4", math.pi / 4),
            ("3*pi/8", 3 * math.pi / 8),
            ("3pi/8", 3 * math.pi / 8),
            ("-pi/2", -math.pi / 2),
            ("2pi", 2 * math.pi),
            ("pi", math.pi),
            ("0.5", 0.5),
            ("-1e-3", -1e-3),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_angle(text) == expected

    def test_numbers_pass_through(self):
        assert parse_angle(0.25) == 0.25
        assert parse_angle(2) == 2.0

    def test_error_names_the_key(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_angle("garbage", "theta")

    def test_zero_divisor_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            parse_angle("pi/0", "alpha")


class TestFormatAngle:
    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0"),
            (math.pi, "pi"),
            (math.pi / 4, "pi/4"),
            (3 * math.pi / 8, "3*pi/8"),
            (2 * math.pi, "2*pi"),
        ],
    )
    def test_exact_fractions(self, value, text):
        assert format_angle(value) == text

    def test_round_trips_through_parse(self):
        for value in (0.3, math.pi / 12, 5 * math.pi / 16, -0.125):
            assert parse_angle(format_angle(value)) == value


class TestParseConfig:
    def test_one_pair_per_line(self):
        cfg = parse_config("bench=polar\nalpha=pi/4\ntheta=pi/8\n")
        assert cfg.bench == "polar"
        assert cfg.parameters == {"alpha": math.pi / 4, "theta": math.pi / 8}

    def test_many_pairs_on_one_line(self):
        cfg = parse_config("bench=polar alpha=0 theta=pi/8")
        assert cfg.parameters["theta"] == math.pi / 8

    def test_comments_and_blank_lines_skipped(self):
        cfg = parse_config("# a comment\n\nbench=polar  # trailing\nalpha=0 theta=0\n")
        assert cfg.bench == "polar"

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"duplicate key 'alpha'.*3"):
            parse_config("bench=polar\nalpha=0\nalpha=1\ntheta=0\n")

    def test_unknown_key_names_key_and_bench(self):
        with pytest.raises(ConfigError, match=r"'phi_q'.*'polar'"):
            parse_config("bench=polar phi_q=0")

    def test_bad_angle_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"theta.*line.*2"):
            parse_config("bench=polar\ntheta=huh\n")

    @pytest.mark.parametrize("text, line", [
        ("bench=chsh\nangles=0,0,0,x\n", "2: angles=0,0,0,x"),
        ("bench=polar\nbogus=1\n", "2: bogus=1"),
        ("bench=polar beam_sigma=1", "1: beam_sigma=1"),
        ("bench=wedge\ngeometry.sigma=1\n", "2: geometry.sigma=1"),
        ("bench=audit\ntolerance=nan\n", "2: tolerance=nan"),
    ], ids=["angles-element", "unknown-parameter", "geometry-without-geom", "unknown-geometry",
            "nan-tolerance"])
    def test_every_error_names_its_line(self, text, line):
        with pytest.raises(ConfigError, match=re.escape(f"(line {line!r})") + "$"):
            parse_config(text)

    def test_missing_bench_rejected(self):
        with pytest.raises(ConfigError, match="bench"):
            parse_config("alpha=0\n")

    def test_bare_token_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("bench=polar\nalpha\n")

    def test_geometry_fields_inline(self):
        cfg = parse_config("bench=wedge alpha=pi/4 beam_sigma=3e-4 samples_aperture=2049")
        assert cfg.geometry == {"beam_sigma": 3e-4, "samples_aperture": 2049}
        assert isinstance(cfg.geometry["samples_aperture"], int)

    def test_json_form_with_nesting(self):
        doc = {
            "bench": "mz",
            "parameters": {"alpha": "pi/8", "phi_a": 0.5, "phi_b": "pi/5", "mode": "out"},
            "format": "json",
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.bench == "mz"
        assert cfg.parameters["alpha"] == math.pi / 8
        assert cfg.parameters["mode"] == "out"
        assert cfg.parameters["format"] == "json"

    def test_json_geometry_object(self):
        cfg = parse_config('{"bench": "wedge", "geometry": {"beam_sigma": 3e-4}}')
        assert cfg.geometry == {"beam_sigma": 3e-4}

    def test_json_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config("[1, 2]")

    def test_bad_json_reported(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{bench: polar}")

    def test_chsh_angles_list(self):
        cfg = parse_config("bench=chsh angles=0,pi/8,pi/4,3*pi/8 n=1000 seed=3")
        assert cfg.parameters["angles"] == (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
        assert cfg.parameters["n"] == 1000

    def test_round_trips_through_serialize(self):
        texts = [
            "bench=polar alpha=pi/4 theta=0.3",
            "bench=chsh angles=0,pi/8,pi/4,3*pi/8 n=500 seed=2",
            "bench=wedge alpha=pi/4 phi_b=pi/2 beam_sigma=3e-4 samples_aperture=2049",
            "bench=wedge profile=true alpha=0.3",
            "bench=mz marginals=false grid=3 mode=stop",
            "bench=sample parameters.bench=mz summary=true workers=2 n=10",
            "bench=audit parameters.bench=wedge grid=2 tolerance=1e-6 beam_sigma=3e-4",
        ]
        for text in texts:
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg


class TestRunConfig:
    def test_unknown_bench_rejected(self):
        with pytest.raises(ConfigError, match="unknown bench"):
            RunConfig(bench="laser")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("bench=polar format=xml")

    def test_unknown_geometry_field_rejected(self):
        with pytest.raises(ConfigError, match="geometry field"):
            RunConfig(bench="wedge", geometry={"sigma": 1.0})

    def test_default_geometry_builds(self):
        assert make_geometry(RunConfig(bench="wedge").geometry) == WedgeGeometry()

    def test_geometry_values_are_stored_coerced(self):
        cfg = RunConfig(bench="wedge", geometry={"beam_sigma": "3e-4"})
        assert cfg.geometry == {"beam_sigma": 3e-4}
        assert make_geometry(cfg.geometry).beam_sigma == 3e-4

    def test_parameter_values_are_stored_coerced(self):
        cfg = RunConfig(bench="polar", parameters={"alpha": "pi/4", "grid": "3"})
        assert cfg.parameters == {"alpha": math.pi / 4, "grid": 3}
        assert "alpha=pi/4\n" in serialize_config(cfg)
        with pytest.raises(ConfigError, match="grid: must be >= 0"):
            RunConfig(bench="polar", parameters={"grid": -3})

    def test_bad_geometry_value_reported(self):
        cfg = RunConfig(bench="wedge", geometry={"beam_sigma": -1.0})
        with pytest.raises(ConfigError, match="bad geometry"):
            make_geometry(cfg.geometry)


class TestAudits:
    def test_polar_audit_passes(self):
        report = audit_polar(grid=20)
        assert report.passed
        assert report.configurations == 400
        assert report.max_deviation < 1e-12
        assert "[PASS] polar" in report.line()

    def test_mz_audit_passes(self):
        report = audit_mz(grid=8)
        assert report.passed
        assert report.configurations == 8 * 8 * 8 * 3
        assert report.max_deviation < 1e-12

    def test_impossible_tolerance_fails(self):
        report = audit_polar(grid=5, tolerance=0.0)
        assert not report.passed
        assert "[FAIL]" in report.line()

    def test_unknown_bench_rejected(self):
        with pytest.raises(ConfigError, match="audit bench"):
            run_no_signal_audit("foo")

    def test_worst_point_is_the_last_of_equal_maxima(self):
        diff = np.array([[0.1, -0.3, 0.3, 0.2], [0.0, 0.0, -0.3, 0.0]])  # (P_B1, P_B0)
        report = grid_audit("x", 1.0, ([10, 20, 30, 40],), lambda alphas: diff)
        assert (report.max_deviation, report.worst_at, report.configurations) == (0.3, (30,), 4)

    @pytest.mark.parametrize("grid", [0, -3, 2.5, True, None])
    @pytest.mark.parametrize("audit", [audit_polar, audit_mz, audit_wedge])
    def test_rejects_a_grid_below_one_or_not_an_integer(self, audit, grid):
        with pytest.raises(ValueError, match="^grid must be"):
            audit(grid=grid)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1e-300])
    @pytest.mark.parametrize("audit", [audit_polar, audit_mz, audit_wedge])
    def test_rejects_a_tolerance_not_finite_or_below_zero(self, audit, tolerance):
        with pytest.raises(ValueError, match="^tolerance must be finite and >= 0, got "):
            audit(grid=2, tolerance=tolerance)

    def test_wedge_audit_grid_of_one_is_one_cell(self):
        report = audit_wedge(grid=1, geometry=WedgeGeometry(**SMALL_GEOMETRY))
        assert report.configurations == 2  # alpha = phi_b = 0, two phi_a
        assert report.passed


class TestGridOfOne:
    """A grid of 1 is the one-point axis [0.0]; it is never widened to 2."""

    def test_mz_marginals_grid_one_is_one_row(self, capsys):
        assert main(["mz", "--marginals", "--grid", "1"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "alpha,phi_b,p_b1,p_b0"
        assert [row.split(",")[:2] for row in rows] == [["0", "0"]]

    @pytest.mark.parametrize("argv", [[], ["--grid", "0"]])
    def test_mz_marginals_needs_a_grid(self, argv, capsys):
        assert main(["mz", "--marginals"] + argv) == 1
        assert "--grid" in capsys.readouterr().err

    def test_diffmap_grid_one_is_one_row(self, capsys):
        assert main(["diffmap", "--grid", "1"] + GEOM_FLAGS) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[:2] for row in rows] == [["0", "0"]]

    def test_diffmap_grid_zero_rejected(self, capsys):
        assert main(["diffmap", "--grid", "0"] + GEOM_FLAGS) == 1
        assert "grid: must be >= 1" in capsys.readouterr().err


class TestCliCommands:
    def test_polar_point_to_stdout(self, capsys):
        assert main(["polar", "--alpha", "0", "--theta", "pi/4"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        assert header == "alpha,theta,p_hh,p_hv,p_vh,p_vv"
        assert float(row.split(",")[2]) == pytest.approx(0.25, abs=1e-15)

    def test_polar_json_format(self, capsys):
        assert main(["polar", "--theta", "pi/4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"][0] == "alpha"

    def test_mz_point_includes_marginals(self, capsys):
        assert main(["mz", "--alpha", "pi/8", "--phi-b", "pi/2", "--bs-a", "stop"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        expected = (1 + math.sin(math.pi / 4)) / 2
        assert float(cells["p_b1"]) == pytest.approx(expected, abs=1e-12)
        assert cells["p_a1b1"] == "nan"  # joints undefined with the beam stopped

    def test_mz_marginal_sweep_schema(self, capsys):
        assert main(["mz", "--marginals", "--grid", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "alpha,phi_b,p_b1,p_b0"

    def test_sample_events_schema(self, capsys):
        assert main(["sample", "--bench", "polar", "--n", "5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,outcome,alpha,setting_a,setting_b"
        assert len(lines) == 6

    def test_sample_summary(self, capsys):
        assert main([
            "sample", "--bench", "mz", "--alpha", "pi/4", "--phi-b", "pi/2",
            "--bs-a", "stop", "--n", "100", "--summary",
        ]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["p_b1"] == "1"

    def test_chsh_analytic(self, capsys):
        assert main(["chsh"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["s_value"]) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_audit_pass_exit_code(self, capsys):
        assert main(["audit", "--bench", "polar", "--grid", "10"]) == 0
        assert "[PASS] polar" in capsys.readouterr().out

    def test_audit_fail_exit_code(self, capsys):
        assert main(["audit", "--bench", "mz", "--grid", "5", "--tolerance", "1e-300"]) == 2
        assert "[FAIL] mz" in capsys.readouterr().out

    def test_error_exit_code_and_message(self, capsys):
        assert main(["sample", "--n", "-5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_geom_item(self, capsys):
        assert main(["wedge", "--geom", "beam_sigma"]) == 1
        assert "key=value" in capsys.readouterr().err


class TestCliFiles:
    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "polar.csv"
        assert main(["polar", "--theta", "pi/4", "--out", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err
        assert path.read_text(encoding="utf-8").startswith("alpha,theta,")

    def test_sample_outputs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        base = ["sample", "--bench", "mz", "--alpha", "pi/8", "--n", "70000", "--seed", "9"]
        assert main(base + ["--out", str(paths[0])]) == 0
        assert main(base + ["--out", str(paths[1])]) == 0
        assert main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_chsh_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chsh", "--n", "50000", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_config_matches_direct_flags(self, tmp_path):
        direct = tmp_path / "direct.csv"
        via_cfg = tmp_path / "config.csv"
        assert main(["polar", "--alpha", "pi/4", "--theta", "pi/8",
                     "--out", str(direct)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"bench=polar alpha=pi/4 theta=pi/8\nout={via_cfg}\n", encoding="utf-8"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert direct.read_bytes() == via_cfg.read_bytes()

    def test_run_config_json_chsh(self, tmp_path, capsys):
        cfg = tmp_path / "chsh.json"
        cfg.write_text(
            json.dumps({"bench": "chsh", "parameters": {"n": 20000, "seed": 1}}),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert 2.7 < float(cells["s_value"]) < 2.95

    def test_diffmap_with_geometry_overrides(self, capsys):
        assert main(["diffmap", "--grid", "2", "--phi-a", "pi/2"] + GEOM_FLAGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,phi_b,diff_b1,diff_b0,err_b1,err_b0"
        assert len(lines) == 5
        for line in lines[1:]:
            assert abs(float(line.split(",")[2])) < 1e-3

    def test_wedge_profile_table(self, capsys):
        assert main(["wedge", "--alpha", "pi/4", "--profile"] + GEOM_FLAGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,mag_a1,mag_a2,density_b1,density_b0"
        assert len(lines) > 1000


class TestConfigKeys:
    def test_boolean_keys(self):
        cfg = parse_config("bench=sample summary=true\n")
        assert cfg.parameters == {"summary": True}
        cfg = parse_config('{"bench": "mz", "parameters": {"marginals": false}}')
        assert cfg.parameters == {"marginals": False}

    def test_boolean_key_rejects_other_values(self):
        with pytest.raises(ConfigError, match=r"profile.*true or false.*line"):
            parse_config("bench=wedge profile=1\n")

    def test_inner_bench_key_value(self):
        cfg = parse_config("bench=sample parameters.bench=mz\n")
        assert (cfg.bench, cfg.parameters) == ("sample", {"bench": "mz"})

    def test_inner_bench_json(self):
        cfg = parse_config('{"bench": "audit", "parameters": {"bench": "polar"}}')
        assert (cfg.bench, cfg.parameters) == ("audit", {"bench": "polar"})

    def test_prefixed_and_plain_key_are_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate key 'parameters.alpha'"):
            parse_config("bench=polar alpha=0 parameters.alpha=1")
        with pytest.raises(ConfigError, match="duplicate key 'geometry.beam_sigma'"):
            parse_config("bench=wedge beam_sigma=3e-4 geometry.beam_sigma=3e-4")

    @pytest.mark.parametrize("text, key", [
        ("bench=mz grid=-2", "grid"),
        ("bench=sample workers=0", "workers"),
        ("bench=sample n=-1", "n"),
        ("bench=audit grid=0", "grid"),
        ("bench=diffmap grid=0", "grid"),
    ])
    def test_integer_minimum(self, text, key):
        with pytest.raises(ConfigError, match=rf"{key}: must be >="):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["2.5", "true", '"many"'])
    def test_json_integer_must_be_an_integer(self, raw):
        with pytest.raises(ConfigError, match="n: expected an integer"):
            parse_config('{"bench": "sample", "parameters": {"n": %s}}' % raw)
        assert parse_config('{"bench": "sample", "parameters": {"n": 1e6}}').parameters == {
            "n": 1000000}

    @pytest.mark.parametrize("key, raw, expected", [
        ("beam_sigma", "true", "a number"),
        ("beam_sigma", '"wide"', "a number"),
        ("samples_detector", "8193.7", "an integer"),
        ("samples_aperture", "true", "an integer"),
    ])
    def test_json_geometry_values_follow_their_kind(self, key, raw, expected):
        with pytest.raises(ConfigError, match=f"{key}: expected {expected}"):
            parse_config('{"bench": "wedge", "geometry": {"%s": %s}}' % (key, raw))
        assert parse_config('{"bench": "wedge", "geometry": {"%s": 2049.0}}' % key).geometry == {
            key: 2049}

    def test_geometry_only_where_the_flag_exists(self):
        with pytest.raises(ConfigError, match="takes no geometry"):
            parse_config("bench=polar beam_sigma=3e-4")

    def test_audit_takes_no_output_keys(self):
        with pytest.raises(ConfigError, match="unknown parameter 'format'"):
            parse_config("bench=audit format=json")

    @pytest.mark.parametrize("text, message", [
        ("bench=polar beam_sigma=3e-4",
         "bench 'polar' takes no geometry fields (line '1: beam_sigma=3e-4')"),
        ("bench=polar geometry.beam_sigma=3e-4",
         "bench 'polar' takes no geometry fields (line '1: geometry.beam_sigma=3e-4')"),
        ('{"bench": "polar", "geometry": {"beam_sigma": 3e-4}}',
         "bench 'polar' takes no geometry fields"),
        ('{"bench": "polar", "beam_sigma": 3e-4}', "bench 'polar' takes no geometry fields"),
        ("bench=polar parameters.beam_sigma=3e-4",
         "unknown parameter 'beam_sigma' for bench 'polar'; expected one of ['alpha', 'format', "
         "'grid', 'out', 'theta'] (line '1: parameters.beam_sigma=3e-4')"),
        ("bench=polar phi_a=1", "unknown parameter 'phi_a' for bench 'polar'; expected one of "
         "['alpha', 'format', 'grid', 'out', 'theta'] (line '1: phi_a=1')"),
        ('{"bench": "audit", "parameters": {"foo": 1}}',
         "unknown parameter 'foo' for bench 'audit'; expected one of ['bench', 'grid', "
         "'tolerance']"),
        ("bench=wedge foo=1", "unknown parameter 'foo' for bench 'wedge'; expected one of "
         "['alpha', 'format', 'out', 'phi_a', 'phi_b', 'profile'] (line '1: foo=1')"),
        ('{"bench": "wedge", "geometry": {"foo": 1}}',
         "unknown geometry field 'foo'; expected one of ['aperture_halfwidth', 'apex_offset', "
         "'beam_sigma', 'detector_halfwidth', 'propagation_distance', 'samples_aperture', "
         "'samples_detector', 'tilt_angle', 'wavelength']"),
    ])
    def test_key_error_messages(self, text, message):
        # the geometry fields are read from the wedge only when a key needs them
        with pytest.raises(ConfigError) as raised:
            parse_config(text)
        assert str(raised.value) == message


def _config_files(tmp_path, bench: str, keys: dict) -> list[Path]:
    """The same configuration written once as key=value text and once as JSON."""
    params = {k: v for k, v in keys.items() if k != "format" and k not in SMALL_GEOMETRY}
    geometry = {k: v for k, v in keys.items() if k in SMALL_GEOMETRY}

    def text(value) -> str:
        return str(value).lower() if isinstance(value, bool) else str(value)

    lines = [f"bench={bench}"] + [
        f"{'parameters.' if k == 'bench' else ''}{k}={text(v)}" for k, v in params.items()
    ] + [f"{k}={v}" for k, v in geometry.items()]
    if "format" in keys:
        lines.append(f"format={keys['format']}")
    doc = {"bench": bench, "parameters": params, "geometry": geometry}
    if "format" in keys:
        doc["format"] = keys["format"]
    kv, js = tmp_path / "run.cfg", tmp_path / "run.json"
    kv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    js.write_text(json.dumps(doc), encoding="utf-8")
    return [kv, js]


# flags -> the config keys that mean the same; every subcommand has a
# defaults-only case (audit's names its bench: all three at default
# grids take tens of seconds)
RUN_CASES = {
    "polar-defaults": ([], {}),
    "polar-point-json": (["--alpha", "pi/4", "--theta", "0.3", "--format", "json"],
                         {"alpha": "pi/4", "theta": 0.3, "format": "json"}),
    "polar-grid": (["--grid", "3"], {"grid": 3}),
    "mz-defaults": ([], {}),
    "mz-point": (["--alpha", "pi/8", "--phi-a", "pi/3", "--phi-b", "pi/5", "--bs-a", "out"],
                 {"alpha": "pi/8", "phi_a": "pi/3", "phi_b": "pi/5", "mode": "out"}),
    "mz-grid": (["--grid", "2", "--bs-a", "stop"], {"grid": 2, "mode": "stop"}),
    "mz-marginals": (["--marginals", "--grid", "3"], {"marginals": True, "grid": 3}),
    "wedge-defaults": ([], {}),
    "wedge-point": (["--alpha", "pi/4", "--phi-b", "pi/2", "--profile"] + GEOM_FLAGS,
                    {"alpha": "pi/4", "phi_b": "pi/2", "profile": True, **SMALL_GEOMETRY}),
    "diffmap-defaults": ([], {}),
    "diffmap-grid": (["--grid", "2", "--phi-a", "0"] + GEOM_FLAGS,
                     {"grid": 2, "phi_a": 0, **SMALL_GEOMETRY}),
    "sample-defaults": ([], {}),
    "sample-mz-events": (["--bench", "mz", "--alpha", "pi/8", "--phi-b", "pi/3",
                          "--bs-a", "stop", "--n", "50", "--seed", "3"],
                         {"bench": "mz", "alpha": "pi/8", "phi_b": "pi/3", "mode": "stop",
                          "n": 50, "seed": 3}),
    "sample-summary": (["--bench", "mz", "--alpha", "pi/4", "--n", "70000",
                        "--workers", "2", "--summary"],
                       {"bench": "mz", "alpha": "pi/4", "n": 70000, "workers": 2,
                        "summary": True}),
    "chsh-defaults": ([], {}),
    "chsh-sampled": (["--angles", "0,pi/4,pi/8,pi/2", "--n", "2000", "--seed", "4"],
                     {"angles": "0,pi/4,pi/8,pi/2", "n": 2000, "seed": 4}),
    "audit-defaults": (["--bench", "polar"], {"bench": "polar"}),
    "audit-wedge": (["--bench", "wedge", "--grid", "2", "--tolerance", "1e-300"] + GEOM_FLAGS,
                    {"bench": "wedge", "grid": 2, "tolerance": 1e-300, **SMALL_GEOMETRY}),
}


class TestRunEqualsFlags:
    @pytest.mark.parametrize("form", [0, 1], ids=["key=value", "json"])
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_same_bytes(self, case, form, tmp_path, capsys):
        bench = case.split("-")[0]
        flags, keys = RUN_CASES[case]
        want_code = main([bench] + flags)
        want = capsys.readouterr().out
        config = _config_files(tmp_path, bench, keys)[form]
        assert main(["run", "--config", str(config)]) == want_code
        assert capsys.readouterr().out == want

    def test_every_subcommand_has_a_case(self):
        assert {case.split("-")[0] for case in RUN_CASES} == set(COMMANDS)

    @pytest.mark.parametrize("form", [0, 1], ids=["key=value", "json"])
    def test_out_writes_the_same_file(self, form, tmp_path, capsys):
        out = tmp_path / "t.json"
        flags, keys = RUN_CASES["polar-point-json"]
        assert main(["polar", *flags, "--out", str(out)]) == 0
        want = out.read_bytes(), capsys.readouterr()
        assert want[1] == ("", f"wrote {out}\n")
        out.unlink()
        config = _config_files(tmp_path, "polar", {**keys, "out": str(out)})[form]
        assert main(["run", "--config", str(config)]) == 0
        assert (out.read_bytes(), capsys.readouterr()) == want

    @pytest.mark.parametrize("form", [0, 1], ids=["key=value", "json"])
    def test_bad_choice_exits_1_naming_the_key(self, form, tmp_path, capsys):
        config = _config_files(tmp_path, "mz", {"mode": "foo"})[form]
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mode:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, key", [
        ({"bench": "polar", "parameters": {"alpha": None}}, "alpha"),
        ({"bench": "polar", "parameters": {"theta": [0.3]}}, "theta"),
        ({"bench": "mz", "parameters": {"phi_a": {"pi": 1}}}, "phi_a"),
        ({"bench": "mz", "parameters": {"phi_b": True}}, "phi_b"),
        ({"bench": "chsh", "parameters": {"angles": [None, 0, 0, 0]}}, "angles"),
        ({"bench": "polar", "parameters": {"out": None}}, "out"),
        ({"bench": "polar", "parameters": {"out": 5}}, "out"),
        ({"bench": "wedge", "geometry": {"beam_sigma": True}}, "beam_sigma"),
        ({"bench": "wedge", "geometry": {"samples_detector": 8193.7}}, "samples_detector"),
    ])
    def test_bad_json_value_exits_1_naming_the_key(self, doc, key, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(tmp_path)  # a stray output file would land here
        config = tmp_path / "run.json"
        doc = {**doc, "parameters": {"out": "t.csv", **doc.get("parameters", {})}}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}:")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


class TestHandlers:
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_return_what_they_computed_and_write_nothing(self, case, capsys):
        bench = case.split("-")[0]
        args = build_parser().parse_args([bench] + RUN_CASES[case][0])
        result = args.handler(args)
        if bench == "audit":
            assert isinstance(result, list) and result
            assert all(isinstance(r, NoSignalReport) for r in result)
        else:
            assert isinstance(result, Table)
        assert capsys.readouterr().out == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv, named", [
        (["polar", "--alpha", "huh"], "alpha"),
        (["polar", "--bogus"], "--bogus"),
        (["mz", "--bs-a", "foo"], "--bs-a"),
        (["mz", "--grid", "-2"], "grid"),
        (["sample", "--workers", "-3"], "workers"),
        (["audit", "--grid", "0"], "grid"),
        (["wedge", "--geom", "propagation_distance=inf"], "propagation_distance"),
        (["wedge", "--geom", "samples_aperture=4097.5"], "samples_aperture"),
        (["chsh", "--angles", "0,1,2"], "angles: expected 4 comma-separated values"),
        ([], "command"),
    ])
    def test_exit_1_with_message(self, argv, named, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("argv", [["wedge"], ["wedge", "--profile"], ["diffmap"],
                                      ["audit", "--bench", "wedge"]])
    def test_zero_propagation_distance(self, argv, capsys):
        # rejected by the geometry before any propagation starts
        assert main([*argv, "--geom", "propagation_distance=0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "propagation_distance must be positive and finite" in captured.err

    @pytest.mark.parametrize("argv", [["wedge"], ["wedge", "--profile"],
                                      ["audit", "--bench", "wedge"]])
    def test_coarse_detector_grid(self, argv, capsys):
        # too few samples per fringe period, named before a propagation onto the grid
        assert main([*argv, "--geom", "samples_detector=65"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: detector spacing ")
        assert captured.err.endswith(" fringe period; need at least 9485 samples\n")

    @pytest.mark.parametrize("argv", [["wedge"], ["wedge", "--profile"], ["diffmap", "--grid", "2"],
                                      ["audit", "--bench", "wedge"]])
    @pytest.mark.parametrize("sigma, message", [
        ("5e-324", "beam_sigma 5e-324 is too small"),  # its square underflows to 0
        ("1e-160", "beam_sigma 1e-160 is too small"),  # its square is subnormal
        ("1e300", "no sample count can resolve the 8.100e-308 m fringe period"),
    ])
    def test_extreme_beam_sigma(self, argv, sigma, message, capsys):
        assert main([*argv, "--geom", f"beam_sigma={sigma}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_coarse_detector_grid_gives_a_nan_map(self, capsys):
        assert main(["diffmap", "--grid", "2", "--geom", "samples_detector=65"]) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[2:] == ["nan"] * 4 for line in lines)

    @pytest.mark.parametrize("doc, key", [
        ({"bench": "polar", "alpha": 10 ** 400}, "alpha"),  # an angle
        ({"bench": "chsh", "angles": [0, 10 ** 400, 0, 0]}, "angles"),
        ({"bench": "audit", "parameters": {"bench": "polar", "tolerance": 10 ** 400}},
         "tolerance"),  # a float
        ({"bench": "wedge", "geometry": {"beam_sigma": 10 ** 400}}, "beam_sigma"),
    ])
    def test_json_integer_too_large_for_a_double(self, doc, key, tmp_path, capsys):
        # float() of the integer overflows: a usage error naming the key, not a traceback
        config = tmp_path / "big.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["polar"], ["mz"], ["mz", "--marginals"], ["diffmap"],
                                      ["audit", "--bench", "polar"], ["run"]])
    def test_grid_too_large_for_a_double(self, argv, tmp_path, capsys):
        # far above the grid - 1 = 2**53 bound, so no axis is built; only such values are run
        # here, as a grid within the bound would allocate its axes
        grid = "1" + "0" * 400
        if argv == ["run"]:
            config = tmp_path / "big.cfg"
            config.write_text(f"bench=polar grid={grid}\n", encoding="utf-8")
            argv = ["run", "--config", str(config)]
        else:
            argv = [*argv, "--grid", grid]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid must fit in a double, got 1329 bits\n"

    @pytest.mark.parametrize("grid", [2**53 + 2, 10**20, 2**1024 - 2**970])
    @pytest.mark.parametrize("argv", [["polar"], ["mz", "--marginals"], ["diffmap"],
                                      ["audit", "--bench", "polar"]])
    def test_grid_beyond_evenly_spaced_doubles(self, argv, grid, capsys):
        # above grid - 1 = 2**53 neighbouring indices round to one double, so these are
        # rejected before any axis is built; a grid below the limit that does not fit in
        # memory is not run here
        assert main([*argv, "--grid", str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid must fit in a double, got {grid.bit_length()} bits\n"

    def test_numpy_grid_beyond_evenly_spaced_doubles(self):
        with pytest.raises(ValueError, match="^grid must fit in a double, got 61 bits$"):
            grid_axes(np.int64(2**60), math.pi)

    @pytest.mark.parametrize("key", ["geometry", "parameters"])
    def test_json_section_must_be_an_object(self, key, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bench": "wedge", key: [1, 2]}), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key!r} must be an object\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "--summary" in capsys.readouterr().out


class TestNegativeValueAfterASpace:
    """``--opt -value`` parses as ``--opt=-value`` even where argparse's own
    negative-number test (only ``-<digits>`` and ``-<digits>.<digits>``) fails."""

    @pytest.mark.parametrize("argv", [
        ["polar", "--alpha", "-1e-3"],
        ["polar", "--alpha", "-pi/4"],
        ["mz", "--phi-a", "-2*pi/3"],
        ["audit", "--bench", "polar", "--grid", "5", "--tolerance", "-1e-300"],
        ["polar", "--alpha", "-x"],
    ])
    def test_same_as_the_equals_form(self, argv, capsys):
        spaced = (main(argv), *capsys.readouterr())
        joined = (main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]), *capsys.readouterr())
        assert spaced == joined

    def test_values_are_used(self, capsys):
        assert main(["polar", "--alpha", "-1e-3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("-0.001,0,")
        assert main(["mz", "--phi-a", "-2*pi/3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("0,-2.0943951023931953,")

    def test_negative_tolerance_is_range_checked(self, capsys):
        assert main(["audit", "--bench", "polar", "--tolerance", "-1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance: must be >= 0, got -1e-300" in captured.err

    def test_an_option_is_still_no_value(self, capsys):
        assert main(["polar", "--alpha", "--theta", "1"]) == 1
        assert "--alpha: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["-h"], ["polar", "-h"], ["polar", "--alpha", "1", "-h"]])
    def test_short_help_still_works(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eprsim")


class TestAuditInputs:
    def test_zero_tolerance_is_kept(self, capsys):
        assert main(["audit", "--bench", "polar", "--grid", "5", "--tolerance", "0"]) == 2
        assert "[FAIL] polar" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan"])
    def test_negative_or_nan_tolerance_is_a_usage_error(self, value, capsys):
        # exit 2 would read as a deviation found by the audit
        assert main(["audit", "--bench", "polar", "--grid", "5", "--tolerance", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance: must be >= 0, got " in captured.err

    @pytest.mark.parametrize("bench", ["polar", "mz", "wedge", "all"])
    def test_infinite_tolerance_is_a_usage_error(self, bench, capsys):
        # it would pass any finite deviation
        assert main(["audit", "--bench", bench, "--grid", "5", "--tolerance", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be finite and >= 0, got inf\n"

    def test_nan_deviation_fails_under_an_infinite_tolerance(self):
        # grid_audit rejects an infinite tolerance, so the report is built by hand
        assert not NoSignalReport("x", 1, math.nan, (0.0,), math.inf).passed

    def test_none_keeps_each_audit_default(self):
        (polar,) = run_no_signal_audit("polar", tolerance=0.0)
        assert (polar.configurations, polar.tolerance) == (200 * 200, 0.0)

    @pytest.mark.parametrize("nan_call", ["first", "last"])
    @pytest.mark.parametrize("audit", ["polar", "mz", "wedge"])
    def test_nan_deviation_fails(self, audit, nan_call, monkeypatch):
        module, name = {"polar": (polarization, "polar_bob_marginals"),
                        "mz": (pathbench, "expected_bob_marginals"),
                        "wedge": (wedge, "expected_bob_marginals")}[audit]
        real = getattr(module, name)
        # each audit's grid here is one block of settings, so one call
        calls = {"polar": 1, "mz": 1, "wedge": 1}[audit]
        seen = []

        def with_nan(*args):
            marg = real(*args)
            seen.append(args)
            if len(seen) != (1 if nan_call == "first" else calls):
                return marg
            # NaN in p_b0 only, at the call's first or last setting:
            # max(finite, nan) would keep the finite value
            p_b0 = np.array(marg.p_b0, dtype=float)
            p_b0.flat[0 if nan_call == "first" else -1] = math.nan
            # a plain stand-in: MarginalDistribution itself rejects a NaN sum
            p_b0 = p_b0 if p_b0.ndim else float(p_b0)
            return SimpleNamespace(p_b1=marg.p_b1, p_b0=p_b0,
                                   as_tuple=lambda: (marg.p_b1, p_b0))

        monkeypatch.setattr(module, name, with_nan)
        report = {
            "polar": lambda: audit_polar(grid=3),
            "mz": lambda: audit_mz(grid=3),
            "wedge": lambda: audit_wedge(grid=2, geometry=WedgeGeometry(**SMALL_GEOMETRY)),
        }[audit]()
        assert len(seen) == calls
        assert math.isnan(report.max_deviation)
        assert not report.passed
        assert report.line().startswith(f"[FAIL] {audit}: max marginal deviation nan")
        # the first NaN in visiting order is the reported point, however
        # large the finite deviations visited after it
        last = {"polar": (math.pi / 2, math.pi), "mz": (math.pi / 2, 0.0, 2 * math.pi, "in"),
                "wedge": (math.pi / 2, 0.0, 2 * math.pi)}[audit]
        first = tuple(0.0 if isinstance(v, float) else v for v in last)
        assert report.worst_at == (first if nan_call == "first" else last)

    @pytest.mark.parametrize("nan_at", ["first", "last"])
    def test_nan_in_a_later_mz_block_fails(self, nan_at, monkeypatch):
        # grid 50 takes seven calls, on blocks of 8 alphas; the NaN is in the second (8-15)
        real, seen = pathbench.expected_bob_marginals, []

        def with_nan(*args):
            marg = real(*args)
            seen.append(args)
            if len(seen) != 2:
                return marg
            p_b0 = np.array(marg.p_b0, dtype=float)
            p_b0.flat[0 if nan_at == "first" else -1] = math.nan
            return SimpleNamespace(p_b1=marg.p_b1, p_b0=p_b0, as_tuple=lambda: (marg.p_b1, p_b0))

        monkeypatch.setattr(pathbench, "expected_bob_marginals", with_nan)
        report = audit_mz(grid=50)
        assert len(seen) == 7
        assert math.isnan(report.max_deviation) and not report.passed
        alphas, phis = grid_axes(50, 2 * math.pi)
        # every phi_a and mode of that (alpha, phi_b) is NaN: the first in visiting order
        assert report.worst_at == ((alphas[8], 0.0, 0.0, "in") if nan_at == "first"
                                   else (alphas[15], 0.0, phis[49], "in"))


def _per_alpha_polar(grid: int) -> NoSignalReport:
    """``audit_polar`` as one kernel call per alpha, each on a float alpha."""
    alphas, thetas = grid_axes(grid, math.pi)
    theta = np.array(thetas)

    def diff(block):  # axes (alpha, theta)
        bob = [polarization.polar_bob_marginals(alpha, theta).as_tuple()
               for alpha in block.tolist()]
        return np.stack(bob, axis=1) - 0.5

    return grid_audit("polar", 1e-12, (alphas, thetas), diff)


def _per_alpha_mz(grid: int) -> NoSignalReport:
    """``audit_mz`` as one kernel call per alpha, each on a float alpha."""
    alphas, phis = grid_axes(grid, 2 * math.pi)
    phi_a, modes = np.array(phis), list(pathbench.AliceMode)
    phi_b = phi_a[:, None]

    def diff(alpha):  # axes (phi_b, phi_a, mode)
        want = np.array(pathbench.expected_bob_marginals(alpha, phi_b).as_tuple())[..., None]
        got = [np.array(pathbench.mz_bob_marginals(alpha, phi_a, phi_b, mode).as_tuple())
               for mode in modes]
        return np.stack(np.broadcast_arrays(*got), axis=-1) - want

    return grid_audit("mz", 1e-12, (alphas, phis, phis, [mode.value for mode in modes]),
                      lambda block: np.stack([diff(alpha) for alpha in block.tolist()], axis=1),
                      lambda alpha, phi_b, phi_a, mode: (alpha, phi_a, phi_b, mode))


def _per_alpha_wedge(grid: int, geom: WedgeGeometry) -> NoSignalReport:
    """``audit_wedge`` as one kernel call per alpha, each on a float alpha."""
    alphas, phis_b = grid_axes(grid, 2 * math.pi)
    phi_a, phi_b = np.array([0.0, math.pi / 2]), np.array(phis_b)[:, None]

    def diff(alpha):  # axes (phi_b, phi_a)
        got, _ = wedge._bob_singles(alpha, phi_a, phi_b, geom)
        return np.subtract(got, pathbench.expected_bob_marginals(alpha, phi_b).as_tuple())

    return grid_audit("wedge", 1e-4, (alphas, phis_b, [0.0, math.pi / 2]),
                      lambda block: np.stack([diff(alpha) for alpha in block.tolist()], axis=1),
                      lambda alpha, phi_b, phi_a: (alpha, phi_a, phi_b))


class TestAuditBlocks:
    """The audits evaluate a block of settings per kernel call, as ``output.grid_blocks``
    cuts them, and ``grid_audit`` reduces each block as it comes; their reports equal those of
    a call per alpha, across the edges of the blocks (mz's grid 50 takes blocks of 8
    alphas, 41 of 12, 100 of 2)."""

    @pytest.mark.parametrize("grid", [1, 7, 8, 9, 17, 41, 50, 100])
    def test_mz_equals_a_call_per_alpha(self, grid):
        report, reference = audit_mz(grid=grid), _per_alpha_mz(grid)
        assert report == reference
        assert report.line() == reference.line()

    @pytest.mark.parametrize("nans, worst_at", [({}, (2, 7)), ({1: 0, 2: 3}, (1, 0))])
    def test_blocks_reduce_to_the_first_nan_else_the_last_maximum(self, nans, worst_at):
        row = output.BLOCK_SETTINGS  # so each block is one alpha row

        def diff(alphas):  # equal maxima at alphas 0 and 2; NaNs where ``nans`` puts them
            (alpha,) = alphas.tolist()
            block = np.zeros((2, 1, row))
            block[1, 0, 7] = 0.25 if alpha == 1 else -0.5
            if alpha in nans:
                block[0, 0, nans[alpha]] = math.nan
            return block

        report = grid_audit("x", 1.0, ([0, 1, 2], range(row)), diff)
        assert (report.worst_at, report.configurations) == (worst_at, 3 * row)
        assert math.isnan(report.max_deviation) if nans else report.max_deviation == 0.5

    @pytest.mark.parametrize("grid", [1, 13, 200, 600])
    def test_polar_equals_a_call_per_alpha(self, grid):
        report, reference = audit_polar(grid=grid), _per_alpha_polar(grid)
        assert report == reference
        assert report.line() == reference.line()

    @pytest.mark.parametrize("grid", [1, 4])
    def test_wedge_equals_a_call_per_alpha(self, grid):
        geom = WedgeGeometry(**SMALL_GEOMETRY)
        report, reference = audit_wedge(grid=grid, geometry=geom), _per_alpha_wedge(grid, geom)
        assert report == reference
        assert report.line() == reference.line()


def _alphas_per_call(monkeypatch, module, name) -> list[int]:
    """The number of alphas of each call of ``module.name`` from now on: the length of its
    first argument, a sweep's or audit's alphas widened against its other axes."""
    real, sizes = getattr(module, name), []

    def counted(alpha, *args):
        sizes.append(len(alpha))
        return real(alpha, *args)

    monkeypatch.setattr(module, name, counted)
    return sizes


def _blocks(alphas: int, per_alpha: int) -> list[int]:
    """The alphas of each block: as many as fit in BLOCK_SETTINGS settings, at least one."""
    rows = max(1, output.BLOCK_SETTINGS // per_alpha)
    return [min(rows, alphas - start) for start in range(0, alphas, rows)]


def _one_alpha_at_a_time(sweep, alphas, *axes) -> Table:
    """``sweep`` as one table per alpha, joined."""
    tables = [sweep([alpha], *axes) for alpha in alphas]
    return Table(tables[0].columns, tuple(map(np.concatenate, zip(*(t.data for t in tables)))))


class TestBlockPolicy:
    """Every sweep and audit hands its kernel whole alpha rows, as many as fit in
    ``output.BLOCK_SETTINGS`` settings (at least one row) per call."""

    SWEEPS = {  # the sweep, the kernel its values call once, its grid, settings per alpha
        "polar 600x600": (polarization.polar_sweep, (polarization, "polar_joint_probabilities"),
                          600, 600),
        "mz 64x64x64": (pathbench.mz_sweep, (pathbench, "_probabilities"), 64, 64 * 64),
        "mz marginals 300x300": (pathbench.mz_marginal_sweep, (pathbench, "mz_bob_marginals"),
                                 300, 300),
    }

    @staticmethod
    def sweep_axes(sweep, grid):
        axes = grid_axes(grid, 2 * math.pi, 2 * math.pi)
        return axes if sweep is pathbench.mz_sweep else axes[:2]

    @pytest.mark.parametrize("name", SWEEPS)
    def test_sweep_calls(self, name, monkeypatch):
        sweep, kernel, grid, per_alpha = self.SWEEPS[name]
        sizes = _alphas_per_call(monkeypatch, *kernel)
        table = sweep(*self.sweep_axes(sweep, grid))
        assert sizes == _blocks(grid, per_alpha)
        assert len(sizes) > 1 and len(table) == grid * per_alpha

    @pytest.mark.parametrize("name", SWEEPS)
    def test_sweep_bytes_equal_one_alpha_at_a_time(self, name):
        sweep, _, grid, _ = self.SWEEPS[name]
        axes = self.sweep_axes(sweep, grid)
        assert render_csv(sweep(*axes)) == render_csv(_one_alpha_at_a_time(sweep, *axes))

    @pytest.mark.parametrize("audit, kernel, grid, per_alpha", [
        (audit_polar, (polarization, "polar_bob_marginals"), 200, 200),
        (audit_polar, (polarization, "polar_bob_marginals"), 600, 600),
        (audit_mz, (pathbench, "expected_bob_marginals"), 50, 50 * 50 * 3),
        (audit_mz, (pathbench, "expected_bob_marginals"), 100, 100 * 100 * 3),
    ])
    def test_audit_calls(self, audit, kernel, grid, per_alpha, monkeypatch):
        sizes = _alphas_per_call(monkeypatch, *kernel)
        assert audit(grid=grid).configurations == grid * per_alpha
        assert sizes == _blocks(grid, per_alpha)

    @pytest.mark.parametrize("grid", [3, 5])
    def test_wedge_calls(self, grid, monkeypatch):
        # the audit and the map each take one call on all their alphas, with the detector
        # integrals taken once in it
        sizes = _alphas_per_call(monkeypatch, wedge, "_bob_singles")
        geom = WedgeGeometry(**SMALL_GEOMETRY)
        assert audit_wedge(grid=grid, geometry=geom).configurations == grid * grid * 2
        (alphas,) = grid_axes(grid)
        assert len(wedge.signal_difference_map(alphas, alphas, 0.0, geom)) == grid * grid
        assert sizes == [grid, grid]


def _readme_blocks(section: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced block in one README section."""
    text = README.read_text(encoding="utf-8")
    body = re.split(r"\n##+ ", text.split(section + "\n", 1)[1], maxsplit=1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", body, flags=re.S)


# every ``eprsim ...`` line of the README's shell blocks, as an argument list
README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                                           flags=re.S)
                   for line in block.splitlines() if line.startswith("eprsim ")]


class TestReadme:
    def test_commands_parse(self):
        assert len(README_COMMANDS) > 10
        parser = build_parser()
        for argv in README_COMMANDS:
            args = parser.parse_args(argv)
            assert callable(args.handler)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_command_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # for the commands that write --out files
        assert main(argv) == 0, capsys.readouterr().err

    def test_config_examples_parse(self):
        blocks = [block for lang, block in _readme_blocks("### Config files") if lang != "sh"]
        assert len(blocks) >= 3
        for block in blocks:
            cfg = parse_config(block)
            assert parse_config(serialize_config(cfg)) == cfg


class TestStartup:
    @staticmethod
    def run_python(*argv, **env):
        """``python argv`` in a subprocess, with this package on its path.

        ``env`` sets variables for it; a value of None unsets one.
        """
        path = os.pathsep.join(filter(None, [str(Path(eprsim.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        env = {key: value for key, value in {**os.environ, **env, "PYTHONPATH": path}.items()
               if value is not None}
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                              timeout=60)

    def run_module(self, *argv, **env):
        """``python -m eprsim argv`` in a subprocess."""
        return self.run_python("-m", "eprsim", *argv, **env)

    def test_module_exit_codes(self, capsys):
        done = self.run_module("chsh")
        assert main(["chsh"]) == 0
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out), done.stderr
        done = self.run_module("sample", "--n", "-5")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ")
        done = self.run_module("audit", "--bench", "mz", "--grid", "5", "--tolerance", "1e-300")
        assert done.returncode == 2, done.stderr
        assert done.stdout.startswith("[FAIL] mz: ")

    def test_parser_loads_neither_json_nor_threads(self):
        # imported where they are used: JSON output or config, more than one worker
        done = self.run_python("-c", "import sys, eprsim.cli; eprsim.cli.build_parser(); "
                               "print(sorted({'json', 'concurrent.futures'} & set(sys.modules)))")
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_commands_without_sampler_or_wedge_load_neither(self, tmp_path):
        # each loads in the handlers that use it; chsh, the control, loads the sampler
        config = tmp_path / "polar.cfg"
        config.write_text("bench=polar alpha=pi/8\ntheta=pi/3\n", encoding="utf-8")
        commands = [["polar"], ["mz"], ["mz", "--bs-a", "stop"], ["audit", "--bench", "polar"],
                    ["run", "--config", str(config)], ["chsh"]]
        done = self.run_python("-c", "import json, sys; from eprsim.cli import main\n"
                               "for argv in json.loads(sys.argv[1]):\n"
                               "    print(main(argv), sorted(m for m in sys.modules if m in "
                               "('eprsim.sampler', 'eprsim.wedge')), file=sys.stderr)",
                               json.dumps(commands))
        assert done.returncode == 0, done.stderr
        assert done.stderr == "0 []\n" * 5 + "0 ['eprsim.sampler']\n"

    def test_package_import_loads_nothing(self):
        # each public name loads its module on first use, so numpy starts after __main__ runs
        done = self.run_python("-c", "import sys, eprsim; "
                               "print(sorted(name for name in sys.modules "
                               "if name == 'numpy' or name.startswith('eprsim.'))); "
                               "print(eprsim.AliceMode.__module__, eprsim.WedgeGeometry.__module__, "
                               "hasattr(eprsim, 'no_such_name'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\neprsim.pathbench eprsim.wedge False\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_entry_point_starts_no_blas_threads(self):
        done = self.run_python("-c", "import os, sys; from eprsim.__main__ import main; "
                               "sys.argv = ['eprsim', 'chsh']; main(); "
                               "print(len(os.listdir('/proc/self/task')))",
                               OPENBLAS_NUM_THREADS="4")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "1"

    def test_blas_threads_leave_output_alone(self):
        unset, one, four = (self.run_module("chsh", OPENBLAS_NUM_THREADS=blas)
                            for blas in (None, "1", "4"))
        assert (unset.returncode, one.returncode, four.returncode) == (0, 0, 0), unset.stderr
        assert unset.stdout == one.stdout == four.stdout != ""

    def test_source_makes_no_blas_call(self):
        # the premise of the single-thread cap in eprsim/__main__.py
        blas = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg", "lstsq",
                "polyfit"}
        found = []
        for path in sorted(Path(eprsim.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.alias):
                    names = set(node.name.split("."))
                elif isinstance(node, ast.ImportFrom):
                    names = set((node.module or "").split("."))
                else:
                    names = {"@"} if isinstance(getattr(node, "op", None), ast.MatMult) else set()
                found += [f"{path.name}:{node.lineno}: {name}" for name in names & (blas | {"@"})]
        assert found == [], ("a BLAS call was added; drop the single-thread cap in "
                             f"eprsim/__main__.py or justify it: {found}")
