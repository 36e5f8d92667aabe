"""Config parsing and the command line front end."""

import json
import math
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eprsim import pathbench, polarization
from eprsim.cli import (
    COMMANDS,
    _audit,
    audit_mz,
    audit_polar,
    audit_wedge,
    build_parser,
    main,
    run_no_signal_audit,
)
from eprsim.config import (
    ConfigError,
    RunConfig,
    format_angle,
    make_geometry,
    parse_angle,
    parse_config,
    serialize_config,
)
from eprsim.wedge import WedgeGeometry

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
        report = _audit("x", 1.0, ([10, 20, 30, 40],), diff)
        assert (report.max_deviation, report.worst_at, report.configurations) == (0.3, (30,), 4)

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

    def test_geometry_only_where_the_flag_exists(self):
        with pytest.raises(ConfigError, match="takes no geometry"):
            parse_config("bench=polar beam_sigma=3e-4")

    def test_audit_takes_no_output_keys(self):
        with pytest.raises(ConfigError, match="unknown parameter 'format'"):
            parse_config("bench=audit format=json")


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
    def test_bad_choice_exits_1_naming_the_key(self, form, tmp_path, capsys):
        config = _config_files(tmp_path, "mz", {"mode": "foo"})[form]
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mode:")
        assert "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv, named", [
        (["polar", "--alpha", "huh"], "alpha"),
        (["polar", "--bogus"], "--bogus"),
        (["mz", "--bs-a", "foo"], "--bs-a"),
        (["mz", "--grid", "-2"], "grid"),
        (["sample", "--workers", "-3"], "workers"),
        (["audit", "--grid", "0"], "grid"),
        (["wedge", "--geom", "propagation_distance=inf"], "propagation_distance"),
        ([], "command"),
    ])
    def test_exit_1_with_message(self, argv, named, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "--summary" in capsys.readouterr().out


class TestAuditInputs:
    def test_zero_tolerance_is_kept(self, capsys):
        assert main(["audit", "--bench", "polar", "--grid", "5", "--tolerance", "0"]) == 2
        assert "[FAIL] polar" in capsys.readouterr().out

    def test_none_keeps_each_audit_default(self):
        (polar,) = run_no_signal_audit("polar", tolerance=0.0)
        assert (polar.configurations, polar.tolerance) == (200 * 200, 0.0)

    @pytest.mark.parametrize("nan_call", ["first", "last"])
    @pytest.mark.parametrize("audit", ["polar", "mz", "wedge"])
    def test_nan_deviation_fails(self, audit, nan_call, monkeypatch):
        module, name = ((polarization, "polar_bob_marginals") if audit == "polar"
                        else (pathbench, "expected_bob_marginals"))
        real = getattr(module, name)
        # each audit takes one call per alpha on arrays
        calls = {"polar": 3, "mz": 3, "wedge": 2}[audit]
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


def _readme_blocks(section: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced block in one README section."""
    text = README.read_text(encoding="utf-8")
    body = re.split(r"\n##+ ", text.split(section + "\n", 1)[1], maxsplit=1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", body, flags=re.S)


class TestReadme:
    def test_commands_parse(self):
        lines = [line for lang, block in _readme_blocks("## Command line")
                 if lang == "sh" for line in block.splitlines()
                 if line.startswith("eprsim ")]
        assert len(lines) > 10
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert callable(args.handler)

    def test_config_examples_parse(self):
        blocks = [block for lang, block in _readme_blocks("### Config files") if lang != "sh"]
        assert len(blocks) >= 3
        for block in blocks:
            cfg = parse_config(block)
            assert parse_config(serialize_config(cfg)) == cfg
