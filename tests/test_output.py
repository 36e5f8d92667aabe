"""Table rendering: exact float round-trips and stable bytes."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim.output import (BLOCK_ROWS, FLOAT_FORMAT, Table, _constant, emit_table, render_csv,
                           render_json)
from eprsim.pathbench import AliceMode

from conftest import rows
from test_output_oracle import Frozen

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


def nans(*payloads: int) -> np.ndarray:
    """Quiet NaNs with the given low payload bits."""
    return (np.array(payloads, dtype=np.uint64) | np.uint64(0x7FF8000000000000)).view(np.float64)


def constant_and_varying(n: int) -> dict[str, np.ndarray]:
    """For each column kind, one column constant over ``n`` rows and one that varies."""
    i = np.arange(n)
    modes = np.array(list(AliceMode), dtype=object)
    return {
        "f64": np.full(n, 0.1), "f64_v": i / 7,
        "f32": np.full(n, 0.1, np.float32), "f32_v": (i / 7).astype(np.float32),
        "i64": np.full(n, -3), "i64_v": i - 5,
        "u8": np.full(n, 200, np.uint8), "u8_v": (i % 256).astype(np.uint8),
        "bool": np.full(n, True), "bool_v": i % 3 == 0,
        "comma": np.full(n, "a,b"), "percent": np.full(n, "%"),
        "str_v": np.array(["a,b", "%", "", "x"])[i % 4],
        "mode": np.full(n, AliceMode.BEAM_STOP, dtype=object), "mode_v": modes[i % 3],
        "neg_zero": np.full(n, -0.0), "zeros": np.where(i % 2, 0.0, -0.0),
        "nan": np.full(n, math.nan), "nan_v": nans(0, 1)[i % 2],
        "empty": np.full(n, ""),
    }


class TestFold:
    """Columns that print one text throughout a render block are folded into
    the row's fixed strings; the bytes must be those of the frozen row-based
    renderer, which formats one cell at a time."""

    SIZES = [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1]

    @staticmethod
    def assert_matches(columns: dict[str, np.ndarray]) -> None:
        table = Table(tuple(columns), tuple(columns.values()))
        assert render_csv(table) == Frozen.render_csv(Frozen.Table(table.columns, rows(table)))

    @pytest.mark.parametrize("n", SIZES)
    def test_each_kind_constant_and_varying(self, n):
        columns = constant_and_varying(n)
        self.assert_matches(columns)  # first column and last column constant
        self.assert_matches(dict(reversed(columns.items())))

    @pytest.mark.parametrize("n", SIZES)
    def test_varying_between_constants(self, n):
        columns = constant_and_varying(n)
        self.assert_matches({"a": columns["f64_v"], "b": columns["i64"], "c": columns["str_v"]})
        self.assert_matches({"a": columns["i64"], "b": columns["f64_v"], "c": columns["empty"]})

    @pytest.mark.parametrize("n", SIZES)
    def test_every_column_constant(self, n):
        columns = {k: v for k, v in constant_and_varying(n).items()
                   if not k.endswith("_v") and k not in ("mode", "zeros")}
        self.assert_matches(columns)
        table = Table(tuple(columns), tuple(columns.values()))
        assert len(set(render_csv(table).splitlines()[1:])) == min(n, 1)

    @pytest.mark.parametrize("first, second", [
        (np.full(BLOCK_ROWS, 2.5), np.arange(5.0)),
        (np.arange(BLOCK_ROWS) / 3, np.full(5, 2.5)),
        (np.full(BLOCK_ROWS, -0.0), np.full(5, 0.0)),
        (np.full(BLOCK_ROWS, 7), np.arange(5)),
        (np.array(["x", "y"] * (BLOCK_ROWS // 2)), np.full(5, "a,b")),
        (np.full(BLOCK_ROWS, False), np.array([True, False] * 2 + [True])),
    ], ids=["float-then-varying", "varying-then-float", "neg-zero-then-zero", "int", "str",
            "bool"])
    def test_constant_in_one_block_only(self, first, second):
        column = np.concatenate([first, second])
        n = len(column)
        self.assert_matches({"i": np.arange(n), "x": column, "y": np.full(n, 0.5)})
        self.assert_matches({"x": column, "i": np.arange(n)})

    def test_what_counts_as_constant(self):
        assert _constant(np.full(3, math.nan)) and _constant(np.full(3, -0.0))
        assert not _constant(np.full(3, "")) and _constant(np.full(3, 2**63, np.uint64))
        assert not _constant(np.array([0.0, -0.0]))
        assert not _constant(nans(0, 1))  # both print as nan, but differ in bits
        assert not _constant(np.full(3, AliceMode.SPLITTER_IN, dtype=object))
        assert not _constant(np.array([0j, complex(-0.0, 0.0)]))

    def test_equal_values_that_print_apart(self):
        # == holds for each pair, yet the texts differ; neither column is folded
        signed_zeros = [0j, complex(-0.0, 0.0)] * 3
        self.assert_matches({"c": np.array(signed_zeros),
                             "o": np.array(signed_zeros, dtype=object)})


def shared_floats(n: int) -> dict[str, dict[str, np.ndarray]]:
    """Tables of float columns whose cells share bit patterns across columns, or
    share values that differ in bits."""
    i = np.arange(n)
    v = i / 7
    return {
        "equal": {"a": v, "b": v.copy(), "c": -v},
        "signed_zeros": {"a": np.where(i % 2, v, 0.0), "b": np.where(i % 2, v, -0.0)},
        "nan_payloads": {"a": np.where(i % 2, v, nans(0)), "b": np.where(i % 2, v, nans(1))},
        "f32_f64": {"a": v.astype(np.float32), "b": v.astype(np.float32).astype(np.float64)},
        "f32_only": {"a": v.astype(np.float32), "b": -v.astype(np.float32), "i": i},
        "one_block": {"a": np.where(i < BLOCK_ROWS, v, 2.5), "b": v,
                      "c": np.where(i < BLOCK_ROWS, 2.5, -v)},
    }


class TestSharedFloats:
    """A block's float columns format each distinct 64-bit pattern once between
    them; the bytes must be those of the frozen renderer."""

    @pytest.mark.parametrize("case", sorted(shared_floats(0)))
    @pytest.mark.parametrize("n", TestFold.SIZES)
    def test_matches_frozen(self, n, case):
        TestFold.assert_matches(shared_floats(n)[case])

    def test_cases_hold_what_they_name(self):
        tables = shared_floats(BLOCK_ROWS + 1)
        zeros = tables["signed_zeros"]
        assert (zeros["a"] == zeros["b"]).all()
        assert not (zeros["a"].view(np.uint64) == zeros["b"].view(np.uint64)).all()
        payloads = tables["nan_payloads"]
        assert np.isnan(payloads["a"][::2]).all()
        assert set(payloads["a"][::2].view(np.uint64)) != set(payloads["b"][::2].view(np.uint64))


def cell_texts(column: np.ndarray) -> list[str]:
    """Each cell's CSV text, one Python value at a time: floats by FLOAT_FORMAT,
    bools in lower case, everything else by str."""
    if column.dtype.kind == "f":
        return [FLOAT_FORMAT % v for v in column.astype(np.float64).tolist()]
    if column.dtype.kind == "b":
        return [str(v).lower() for v in column.tolist()]
    return [str(v) for v in column.tolist()]


def reference_csv(columns: dict[str, np.ndarray]) -> str:
    rows = zip(*map(cell_texts, columns.values()))
    return "".join([",".join(columns) + "\n", *(",".join(row) + "\n" for row in rows)])


def assert_cells(columns: dict[str, np.ndarray]) -> None:
    assert render_csv(Table(tuple(columns), tuple(columns.values()))) == reference_csv(columns)


INT64 = np.iinfo(np.int64)


class TestCells:
    """Every cell kind's bytes, where a slot is padded and where it is not, against
    the cell-by-cell reference."""

    @pytest.mark.parametrize("k", range(19))
    def test_ints_around_powers_of_ten(self, k):
        near = [10**k - 1, 10**k, 10**k + 1]
        assert_cells({"pos": np.array(near * 2), "neg": -np.array(near * 2),
                      "both": np.array(near + [-v for v in near]),
                      "u": np.array(near * 2, dtype=np.uint64), "i": np.arange(6)})

    @pytest.mark.parametrize("values, dtype", [
        ([INT64.min, INT64.max, 0, -1], np.int64),
        ([INT64.min + 1, -1, 7], np.int64),
        ([-10**18 + 1, 10**18 - 1, 0], np.int64),
        ([0, 2**64 - 1, 1], np.uint64),
        ([2**63 - 1, 2**63, 5], np.uint64),
        ([-128, 127, 0, -1, 9, -10], np.int8),
        ([0, 255, 10], np.uint8),
        ([-32768, 32767, 5], np.int16),
        ([-2**31, 2**31 - 1, 10**9, 999_999_999], np.int32),
        ([2**32, 10**10 - 1, 0], np.int64),
        ([0, 2**32 - 1, 10**9], np.uint32),
    ])
    def test_int_extremes(self, values, dtype):
        column = np.array(values, dtype=dtype)
        assert_cells({"v": column, "w": column[::-1].copy(), "i": np.arange(len(column))})

    def test_strs(self):
        assert_cells({"any": np.array(["é", "中文", "", "a,b", "a\x00b", "x"]),
                      "ascii": np.array(["", "a,b", "a\x00b", "x", "\x00a", "abc"]),
                      "same_width": np.array(["ab", "cd", "a\x00", "ef", "gh", "ij"]),
                      "label": np.array(["A0B1", "A1B0"] * 3),
                      "latin": np.array(["é", "ß", "", "ü", "a", "ÿ"])})

    def test_other_kinds(self):
        modes = list(AliceMode)
        assert_cells({
            "object": np.array(["a\x00", modes[0], "", "中", 3, True], dtype=object),
            "complex": np.array([0j, complex(-0.0, 0.0), 1 + 2j, complex(math.nan, 1), 0j,
                                 complex(math.inf, -0.0)]),
            "bool": np.array([True, False, False, True, True, False]),
            "float": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
            "f32": np.array([math.nan, -0.0, 0.1, 1e-45, 3.4e38, -math.inf], dtype=np.float32),
        })

    def test_index_crossing_a_decade_in_a_block(self):
        # the first block is all 6-digit indices, unpadded; the second crosses 10**6
        i = np.arange(BLOCK_ROWS + 100) + (10**6 - BLOCK_ROWS - 50)
        assert_cells({"index": i, "outcome": np.array(["A0B0", "A1B1", "A0B1"])[i % 3],
                      "alpha": np.full(len(i), 0.1)})
        assert_cells({"outcome": np.array(["in", "out", "stop"])[i % 3], "index": -i})

    def test_some_rows_padded(self):
        i = np.arange(BLOCK_ROWS + 3)
        assert_cells({"x": np.where(i % 1000 == 0, 1.0 / 3, 0.5), "n": np.where(i < 5, 7, 10),
                      "s": np.where(i == 17, "", "ab")})

    TEXT = st.characters(blacklist_categories=("Cs",))  # a lone surrogate has no UTF-8
    KINDS = {
        "int64": st.integers(INT64.min, INT64.max),
        "small": st.integers(-10**4, 10**4),
        "uint64": st.integers(0, 2**64 - 1),
        "int8": st.integers(-128, 127),
        "float64": st.floats(),
        "float32": st.floats(width=32),
        "bool": st.booleans(),
        "str": st.text(TEXT, max_size=6),
        "ascii": st.text(st.characters(max_codepoint=127), max_size=6),
        "object": st.one_of(st.integers(), st.text(TEXT, max_size=3)),
        "complex": st.complex_numbers(),
    }
    DTYPES = {"uint64": np.uint64, "int8": np.int8, "float32": np.float32, "object": object}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=4),
           st.one_of(st.integers(0, BLOCK_ROWS + 3), st.integers(BLOCK_ROWS - 1, BLOCK_ROWS + 3)),
           st.data())
    def test_random_columns(self, kinds, n, data):
        columns = {}
        for k, (kind, seed) in enumerate(kinds):
            pool = data.draw(st.lists(self.KINDS[kind], min_size=1, max_size=5))
            values = np.array(pool, dtype=self.DTYPES.get(kind))
            columns[f"c{k}"] = values[np.random.default_rng(seed).integers(0, len(pool), n)]
        assert_cells(columns)


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

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("fmt, render", [("csv", render_csv), ("json", render_json)])
    def test_tables_in_turn_equal_their_rows_as_one(self, fmt, render, to_file, parts, tmp_path,
                                                    capsys):
        # a table's rows cut at block boundaries, as a sampler chunk's are, into tables
        # written in turn: the header once, then every row
        n = 2 * BLOCK_ROWS + 5
        table = Table(("i", "x", "s"), (np.arange(n), np.arange(n) / 7, np.array(["a"] * n)))
        cuts = [0, *range(BLOCK_ROWS, n, BLOCK_ROWS)][:parts] + [n]
        path = tmp_path / "t.out" if to_file else None
        emit_table((Table(table.columns, [c[a:b] for c in table.data])
                    for a, b in zip(cuts, cuts[1:])), fmt=fmt, path=path)
        out = capsys.readouterr().out
        if to_file:
            assert out == ""
            out = path.read_text(encoding="utf-8")
        assert out == render(table)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_table(SAMPLE, fmt="yaml")

    def test_takes_each_table_once_the_one_before_is_written(self, monkeypatch):
        taken, written = [], []

        def tables():
            for k in range(3):
                taken.append(k)
                yield Table(("i",), (np.arange(k * BLOCK_ROWS, (k + 1) * BLOCK_ROWS),))

        class Out:
            @staticmethod
            def writelines(texts):
                written.extend((len(taken), text.count("\n")) for text in texts)

        monkeypatch.setattr(sys, "stdout", Out())
        emit_table(tables())
        # the header once, then each table's one block, written before the next is taken
        assert written == [(1, 1), (1, BLOCK_ROWS), (2, BLOCK_ROWS), (3, BLOCK_ROWS)]
        # JSON likewise: the head, each table's one block, the tail
        written.clear()
        taken.clear()
        emit_table(tables(), fmt="json")
        assert [n for n, _ in written] == [1, 1, 2, 3, 3]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_table_is_made_before_the_file_opens(self, fmt, tmp_path):
        def failing():
            raise ValueError("no table")
            yield

        path = tmp_path / "t.out"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="no table"):
            emit_table(failing(), fmt=fmt, path=path)
        assert path.read_bytes() == b"kept\n"
