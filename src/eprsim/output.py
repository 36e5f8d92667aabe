"""Deterministic table emission for the CLI and sweeps.

CSV uses '.' as the decimal separator and 17 significant digits for
floats so round-tripping through text preserves the double exactly and
repeated runs are byte-identical.  Tables are columnar: CSV is rendered
column by column in blocks of rows, each written out as it is rendered,
and a block's float columns format each distinct 64-bit pattern once
between them.  A column printing one text throughout a block is formatted
once, inside the fixed string of separators between the varying cells.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT_FORMAT = "%.17g"
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Table:
    """Column names plus one equal-length 1-D array per column, in sweep order.

    Float columns print with ``FLOAT_FORMAT``, bool columns as true/false,
    and int, str and object columns with ``str``.
    """

    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        data = tuple(np.asarray(column) for column in self.data)
        if len(data) != len(self.columns):
            raise ValueError(f"{len(data)} arrays for a width of {len(self.columns)} columns")
        if any(column.ndim != 1 for column in data):
            raise ValueError("every column must be one-dimensional")
        if len({len(column) for column in data}) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in data]}")
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return len(self.data[0]) if self.data else 0

    @classmethod
    def from_rows(cls, columns: tuple[str, ...], rows: list[tuple]) -> Table:
        """A table of rows of (float | int | str) cells, each column of one type."""
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row of width {len(row)} does not match {len(columns)} columns")
        return cls(columns, tuple(map(np.array, list(zip(*rows)) or [()] * len(columns))))


def grid_table(columns: tuple[str, ...], axes: tuple, values) -> Table:
    """One row per point of the product of ``axes`` (last fastest): the point, then
    its cells of ``values(first)``, one array per column over the remaining axes."""
    if not all(len(axis) for axis in axes):
        raise ValueError("sweep grids must be non-empty")
    shape = tuple(len(axis) for axis in axes)
    points = [np.broadcast_to(axis, shape).ravel()
              for axis in np.ix_(*(np.asarray(axis) for axis in axes))]
    cells = [np.concatenate([np.broadcast_to(v, shape[1:]).ravel() for v in column])
             for column in zip(*map(values, axes[0]))]
    return Table(columns, (*points, *cells))


def _float_texts(columns: list[np.ndarray]) -> list[list[str]]:
    """Equal-length float columns' CSV texts as float64, one format per distinct 64-bit
    pattern across them all (keying on the value would merge -0.0 with 0.0, split NaNs)."""
    bits = np.array(columns, dtype=np.float64).view(np.uint64)
    unique, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([FLOAT_FORMAT % v for v in unique.view(np.float64).tolist()], dtype=object)
    return texts[inverse].reshape(bits.shape).tolist()


def _texts(column: np.ndarray) -> list[str]:
    """Each cell's CSV text, a float cell's by ``_float_texts``."""
    kind = column.dtype.kind
    if kind == "f":
        return _float_texts([column])[0]
    if kind == "b":
        return np.where(column, "true", "false").tolist()
    cells = column.tolist()
    return cells if kind == "U" else list(map(str, cells))


def _constant(column: np.ndarray) -> bool:
    """Whether every cell prints as the first: float cells by 64-bit pattern, int,
    bool and str cells by ``==``; object and complex cells, equal or not, never."""
    if column.dtype.kind == "f":
        column = column.astype(np.float64, copy=False).view(np.uint64)
    return column.dtype.kind in "iubU" and bool((column == column[0]).all())


def _csv_blocks(table: Table):
    """The CSV header, then the text of each block of ``BLOCK_ROWS`` rows."""
    yield ",".join(table.columns) + "\n"
    for start in range(0, len(table), BLOCK_ROWS):
        block = [column[start:start + BLOCK_ROWS] for column in table.data]
        varying = [not _constant(column) for column in block]
        varying_floats = [c for c, vary in zip(block, varying) if vary and c.dtype.kind == "f"]
        floats = iter(_float_texts(varying_floats) if varying_floats else [])
        # a row: varying cells, fixed strings of separators and constant cells between
        parts = [""]
        for column, vary, sep in zip(block, varying, [","] * (len(block) - 1) + ["\n"]):
            if not vary:
                parts[-1] += _texts(column[:1])[0] + sep
            else:
                parts += [next(floats) if column.dtype.kind == "f" else _texts(column), sep]
        parts = [part for part in parts if part]
        cells = [""] * (len(parts) * len(column))  # one join per block
        for k, part in enumerate(parts):
            cells[k::len(parts)] = [part] * len(column) if isinstance(part, str) else part
        yield "".join(cells)


def render_csv(table: Table) -> str:
    return "".join(_csv_blocks(table))


def render_json(table: Table) -> str:
    import json  # imported here, so that a CSV command does not load it at start
    payload = {
        "columns": list(table.columns),
        "rows": list(zip(*map(_json_values, table.data))),
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _json_values(column: np.ndarray) -> list:
    if column.dtype.kind == "f":
        # NaN becomes null to keep the document valid JSON; any other double
        # equals its 17-digit FLOAT_FORMAT text read back, so it goes in as is
        return [None if v != v else v for v in column.astype(np.float64, copy=False).tolist()]
    return column.tolist()


def emit_table(table: Table, fmt: str = "csv", path: str | Path | None = None) -> None:
    """Write a table to ``path``, or to stdout when it is None, one CSV block at a time."""
    if fmt == "csv":
        blocks = _csv_blocks(table)
    elif fmt == "json":
        blocks = [render_json(table)]
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    if path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
