"""Table rendering: exact float round-trips and stable bytes."""

import json
import math

import numpy as np
import pytest

from eprsim.output import BLOCK_ROWS, Table, emit_table, render_csv, render_json

from conftest import rows

SAMPLE = Table.from_rows(
    ("name", "count", "value"),
    [("a", 3, 1.0 / 3.0), ("b", -1, math.pi)],
)


class TestTable:
    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            Table.from_rows(("x", "y"), [(1.0,)])

    def test_rejects_column_count_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            Table(("x", "y"), (np.zeros(3),))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="length"):
            Table(("x", "y"), (np.zeros(3), np.zeros(2)))

    def test_rejects_two_dimensional_column(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Table(("x",), (np.zeros((2, 2)),))

    def test_empty_rows_allowed(self):
        assert render_csv(Table.from_rows(("x",), [])) == "x\n"
        assert len(Table(("x", "y"), (np.zeros(0), np.zeros(0)))) == 0

    def test_columns_are_arrays(self):
        assert [c.dtype.kind for c in SAMPLE.data] == ["U", "i", "f"]
        assert rows(SAMPLE) == [("a", 3, 1.0 / 3.0), ("b", -1, math.pi)]


class TestCsv:
    def test_header_then_rows(self):
        lines = render_csv(SAMPLE).splitlines()
        assert lines[0] == "name,count,value"
        assert len(lines) == 3

    def test_floats_round_trip_exactly(self):
        cell = render_csv(SAMPLE).splitlines()[1].split(",")[2]
        assert float(cell) == 1.0 / 3.0

    def test_ints_render_bare(self):
        assert render_csv(SAMPLE).splitlines()[2].split(",")[1] == "-1"

    def test_nan_renders_as_nan(self):
        row = render_csv(Table.from_rows(("v",), [(math.nan,)])).splitlines()[1]
        assert row == "nan"

    def test_rendering_is_deterministic(self):
        assert render_csv(SAMPLE) == render_csv(SAMPLE)


class TestJson:
    def test_document_is_valid_json(self):
        doc = json.loads(render_json(SAMPLE))
        assert doc["columns"] == ["name", "count", "value"]
        assert doc["rows"][0][0] == "a"

    def test_floats_round_trip_exactly(self):
        doc = json.loads(render_json(SAMPLE))
        assert doc["rows"][1][2] == math.pi

    def test_nan_becomes_null(self):
        doc = json.loads(render_json(Table.from_rows(("v",), [(math.nan,)])))
        assert doc["rows"][0][0] is None


class TestEmit:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table(SAMPLE, fmt="csv", path=path)
        assert path.read_text(encoding="utf-8") == render_csv(SAMPLE)

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("fmt, render", [("csv", render_csv), ("json", render_json)])
    def test_many_blocks_equal_the_rendered_text(self, fmt, render, to_file, tmp_path, capsys):
        n = BLOCK_ROWS + 5
        table = Table(("i", "x", "s"), (np.arange(n), np.arange(n) / 7, np.array(["a"] * n)))
        path = tmp_path / "t.out" if to_file else None
        emit_table(table, fmt=fmt, path=path)
        out = capsys.readouterr().out
        if to_file:
            assert out == ""
            out = path.read_text(encoding="utf-8")
        assert out == render(table)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_table(SAMPLE, fmt="yaml")
