"""Settings grids, their audit reduction, and deterministic table emission.

Every sweep and audit takes its axes from ``grid_axes`` and its blocks of
settings from ``grid_blocks``; ``grid_table`` joins the blocks into a table
and ``grid_audit`` reduces them to a ``NoSignalReport``.

CSV uses '.' as the decimal separator and 17 significant digits for
floats so round-tripping through text preserves the double exactly and
repeated runs are byte-identical.  CSV is rendered in blocks of rows,
each written out as one Python string.  A block is a 2-D byte matrix, a
row per table row, with one fixed-width slot of UTF-8 bytes per varying
cell, ``PAD`` past the end of its text; a float, int or bool column
printing one text throughout the block is formatted once, into the fixed
bytes between the slots.  A block holding a PAD byte drops them all.
Non-negative int cells and ASCII str cells that fill their width take no
Python object per cell, and a block's floats format each distinct 64-bit
pattern once; other int and str cells are formatted with ``str``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import _check_count

FLOAT_FORMAT = "%.17g"
BLOCK_ROWS = 8192
BLOCK_SETTINGS = 1 << 16  # points per sweep or audit kernel call: bounds its temporaries
PAD = 0xFF  # fills a slot past the end of its text: UTF-8 never uses this byte


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


def grid_axes(grid: int, *stops: float) -> tuple[list[float], ...]:
    """The alpha axis over [0, pi/2], then one axis over [0, stop] per stop: ``grid`` evenly
    spaced points each, the one point 0.0 for a grid of 1."""
    _check_count("grid", grid, 1)
    if grid - 1 > 2**53:  # beyond it, neighbouring indices round to one double
        raise ValueError(f"grid must fit in a double, got {int(grid).bit_length()} bits")
    steps = [stop / max(grid - 1, 1) for stop in (math.pi / 2, *stops)]
    return tuple([i * step for i in range(grid)] for step in steps)


def grid_blocks(axes: tuple, values):
    """Each block of whole first-axis rows of the product of ``axes`` (last fastest), at most
    ``BLOCK_SETTINGS`` points or one row: its point columns, then the cells of one ``values``
    call on its first-axis values as a 1-D float array, each a view of the block's shape."""
    if not all(len(axis) for axis in axes):
        raise ValueError("sweep grids must be non-empty")
    rows = max(1, BLOCK_SETTINGS // math.prod(map(len, axes[1:])))
    for start in range(0, len(axes[0]), rows):
        points = np.ix_(*map(np.asarray, (axes[0][start:start + rows], *axes[1:])))
        yield np.broadcast_arrays(*points, *values(points[0].ravel().astype(float)))


def grid_table(columns: tuple[str, ...], axes: tuple, values) -> Table:
    """One row per point of ``grid_blocks(axes, values)``: the point, then its cells; a
    lone block's columns are taken as they are, with no concatenated copy."""
    return Table(columns, tuple((blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
                                .ravel() for blocks in zip(*grid_blocks(axes, values))))


def grid_audit(bench: str, tolerance: float, axes: tuple, diff,
               at=lambda *point: point) -> NoSignalReport:
    """Report the worst of Bob's marginal differences ``diff(alphas)``, shaped (2, *axes).

    ``grid_blocks`` calls it on each block of alphas.  In visiting (C) order the first NaN
    wins, so an audit that computed a NaN anywhere cannot pass; otherwise the last of equal
    maxima does.  ``at`` orders the worst point's coordinates for the report.  An infinite
    tolerance would pass any finite deviation, so it is rejected."""
    if not 0.0 <= tolerance < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    worst, worst_at = -math.inf, ()
    for *points, diff_b1, diff_b0 in grid_blocks(axes, diff):
        dev = np.maximum(np.abs(diff_b1), np.abs(diff_b0)).ravel()
        nan = np.flatnonzero(np.isnan(dev))
        i = nan[0] if nan.size else dev.size - 1 - int(np.argmax(dev[::-1]))
        if worst == worst and not dev[i] < worst:  # a NaN found stays
            worst, worst_at = float(dev[i]), [column.flat[i].item() for column in points]
    return NoSignalReport(bench, math.prod(map(len, axes)), worst, at(*worst_at), tolerance)


def _text_slot(texts: list[str]) -> np.ndarray:
    """Each text's UTF-8 bytes as one row, PAD past its end."""
    data = "".join(texts).encode()
    lengths = np.fromiter(map(len, texts if data.isascii() else map(str.encode, texts)), np.intp)
    text = np.arange(lengths.max()) < lengths[:, None]
    cells = np.full(text.shape, PAD, np.uint8)
    cells[text] = np.frombuffer(data, np.uint8)  # row by row, each text from its row's start
    return cells


def _float_slots(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Float columns' slots as float64, one format per distinct 64-bit pattern across
    them all (keying on the value would merge -0.0 with 0.0, split NaNs)."""
    bits = np.concatenate(columns, dtype=np.float64).view(np.uint64)
    unique, inverse = np.unique(bits, return_inverse=True)
    texts = _text_slot([FLOAT_FORMAT % v for v in unique.view(np.float64).tolist()])
    rows = np.split(inverse, np.cumsum([len(column) for column in columns[:-1]]))
    return [np.take(texts, row, axis=0) for row in rows]


def _int_slot(column: np.ndarray, digits: int) -> np.ndarray:
    """Right-aligned digits of ints in [0, 10**digits)."""
    cells = np.empty((digits, len(column)), np.uint8)  # one row per position
    q = column = column.astype(np.uint32 if digits < 10 else np.uint64)
    for k in range(1, digits + 1):
        q, cells[-k] = np.divmod(q, 10)
    cells += ord("0")
    places = np.array([10 ** k for k in range(digits - 1, 0, -1)] + [0], column.dtype)
    cells[column < places[:, None]] = PAD  # leading zeros
    return cells.T


def _slot(column: np.ndarray) -> np.ndarray:
    """A non-float column's slot: each cell's CSV text as a row of UTF-8 bytes, PAD past
    its end."""
    kind = column.dtype.kind
    if kind == "b":
        return _text_slot(["false", "true"])[column.astype(np.intp)]
    if kind in "iu" and column.min() >= 0:
        return _int_slot(column, len(str(column.max())))
    if kind == "U":
        codes = np.ascontiguousarray(column).view(np.uint32).reshape(len(column), -1)
        if codes.max() < 128 and codes[:, -1].all():  # full-width ASCII: a byte per code point
            return codes.astype(np.uint8)
    return _text_slot(list(map(str, column.tolist())))


def _constant(column: np.ndarray) -> bool:
    """Whether every cell prints as the next: floats by 64-bit pattern, ints and bools by
    ``==``; str, object and complex cells never."""
    if column.dtype.kind == "f":
        column = column.astype(np.float64, copy=False).view(np.uint64)
    return column.dtype.kind in "iub" and bool((column[1:] == column[:-1]).all())


def _csv_blocks(table: Table):
    """The CSV header, then the text of each block of ``BLOCK_ROWS`` rows."""
    yield ",".join(table.columns) + "\n"
    for start in range(0, len(table), BLOCK_ROWS):
        block = [column[start:start + BLOCK_ROWS] for column in table.data]
        varying = [not _constant(column) for column in block]
        shown = [column if vary else column[:1] for column, vary in zip(block, varying)]
        floats = [column for column in shown if column.dtype.kind == "f"]
        floats = iter(_float_slots(floats) if floats else [])
        # a row: varying slots, fixed bytes of separators and constant cells between
        parts = [b""]
        for column, vary, sep in zip(shown, varying, [b","] * (len(block) - 1) + [b"\n"]):
            slot = next(floats) if column.dtype.kind == "f" else _slot(column)
            if vary:
                parts += [slot, sep]
            else:
                parts[-1] += slot[slot != PAD].tobytes() + sep
        n = len(block[0])
        rows = np.concatenate([np.broadcast_to(np.frombuffer(part, np.uint8), (n, len(part)))
                               if isinstance(part, bytes) else part for part in parts], axis=1)
        yield (rows[rows != PAD] if PAD in rows else rows).tobytes().decode()


def render_csv(table: Table) -> str:
    return "".join(_csv_blocks(table))


def _json_blocks(table: Table, more: Iterable[Table] = ()):
    """``render_json``'s document in pieces: its head, the rows of each block of
    ``BLOCK_ROWS`` of ``table`` and then of each of ``more``, and its tail."""
    import json  # imported here, so that a CSV command does not load it at start
    yield json.dumps({"columns": list(table.columns), "rows": []}, indent=2)[:-4]  # no "[]\n}"
    sep = "["
    for t in chain([table], more):
        for start in range(0, len(t), BLOCK_ROWS):
            rows = zip(*(_json_values(column[start:start + BLOCK_ROWS]) for column in t.data))
            # the list's items without its brackets, one level deeper
            yield sep + json.dumps(list(rows), indent=2)[1:-2].replace("\n", "\n  ")
            sep = ","
    yield "[]\n}\n" if sep == "[" else "\n  ]\n}\n"


def render_json(table: Table, more: Iterable[Table] = ()) -> str:
    """One document of ``table``'s columns, then its rows and those of each of ``more``."""
    return "".join(_json_blocks(table, more))


def _json_values(column: np.ndarray) -> list:
    if column.dtype.kind == "f":
        # NaN becomes null to keep the document valid JSON; any other double
        # equals its 17-digit FLOAT_FORMAT text read back, so it goes in as is
        return [None if v != v else v for v in column.astype(np.float64, copy=False).tolist()]
    return column.tolist()


def emit_table(table: Table | Iterable[Table], fmt: str = "csv",
               path: str | Path | None = None) -> None:
    """Write a table, or an iterable of same-column tables as one, to ``path``, or to stdout
    when it is None.  Either format goes one block at a time and takes each table once the
    one before is written, so an event listing's memory does not grow with its length.  The
    first table is made before the file opens: a failure there writes nothing."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    tables = iter([table] if isinstance(table, Table) else table)
    if fmt == "csv":  # the header once; map, unlike a loop, frees each table before the next
        rest = map(lambda later: islice(_csv_blocks(later), 1, None), tables)
        blocks = chain(_csv_blocks(next(tables)), chain.from_iterable(rest))
    else:
        blocks = _json_blocks(next(tables), tables)
    if path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
