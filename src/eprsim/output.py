"""Deterministic table emission for the CLI and sweeps.

CSV uses '.' as the decimal separator and 17 significant digits for
floats so round-tripping through text preserves the double exactly and
repeated runs are byte-identical.  Tables are columnar: CSV is rendered
column by column in blocks of rows, and a float column formats each
distinct 64-bit pattern once.
"""

from __future__ import annotations

import json
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


def _texts(column: np.ndarray) -> list[str]:
    """Each cell's CSV text; a float column formats each distinct bit pattern
    once (keying on the value would merge -0.0 with 0.0 and split NaNs)."""
    kind = column.dtype.kind
    if kind == "f":
        bits, inverse = np.unique(column.astype(np.float64, copy=False).view(np.uint64),
                                  return_inverse=True)
        texts = [FLOAT_FORMAT % v for v in bits.view(np.float64).tolist()]
        return np.array(texts, dtype=object)[inverse].tolist()
    if kind == "b":
        return np.where(column, "true", "false").tolist()
    cells = column.tolist()
    return cells if kind == "U" else list(map(str, cells))


def render_csv(table: Table) -> str:
    width = len(table.columns)
    parts = [",".join(table.columns) + "\n"]
    for start in range(0, len(table), BLOCK_ROWS):
        block = [_texts(column[start:start + BLOCK_ROWS]) for column in table.data]
        rows = len(block[0])
        # cell, separator, cell, ..., newline: one join per block
        cells = [""] * (2 * width * rows)
        for j, texts in enumerate(block):
            cells[2 * j::2 * width] = texts
            cells[2 * j + 1::2 * width] = ["\n" if j == width - 1 else ","] * rows
        parts.append("".join(cells))
    return "".join(parts)


def render_json(table: Table) -> str:
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


def emit_table(table: Table, fmt: str = "csv", path: str | Path | None = None) -> str:
    """Render a table and optionally write it; returns the rendered text."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
