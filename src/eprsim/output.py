"""Deterministic table emission for the CLI and sweeps.

CSV uses '.' as the decimal separator and 17 significant digits for
floats so round-tripping through text preserves the double exactly and
repeated runs are byte-identical.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class Table:
    """Column names plus rows of (float | int | str) cells, in sweep order."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row of width {len(row)} does not match "
                    f"{len(self.columns)} columns"
                )


def grid_table(columns: tuple[str, ...], axes: tuple, values) -> Table:
    """One row per point of the product of ``axes`` (last fastest): the point, then
    its cells of ``values(first)``, one array per column over the remaining axes."""
    if not all(len(axis) for axis in axes):
        raise ValueError("sweep grids must be non-empty")
    shape = tuple(len(axis) for axis in axes[1:])
    rows = []
    for first in axes[0]:
        cells = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in values(first)))
        rows.extend((first, *point, *cell)
                    for point, cell in zip(itertools.product(*axes[1:]), cells))
    return Table(columns=columns, rows=rows)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def render_csv(table: Table) -> str:
    buf = io.StringIO()
    buf.write(",".join(table.columns) + "\n")
    for row in table.rows:
        buf.write(",".join(_format_cell(v) for v in row) + "\n")
    return buf.getvalue()


def render_json(table: Table) -> str:
    payload = {
        "columns": list(table.columns),
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _json_cell(value):
    if isinstance(value, float):
        # keep NaN readable and the document valid JSON
        if value != value:
            return None
        return float(FLOAT_FORMAT % value)
    return value


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
