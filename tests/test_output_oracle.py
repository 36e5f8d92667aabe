"""Byte-for-byte oracle for the columnar table renderer.

``Frozen`` below is a copy of the row-based tables as they stood before
``Table`` became columnar: rows of Python cells, each formatted on its
own by ``_format_cell`` (CSV) or ``_json_cell`` (JSON), and the row
loops of the table producers.  Every table the package builds now must
render to the same CSV and JSON bytes as the frozen copy does for the
same data: special floats (signed zeros, NaNs of either sign, infinities,
subnormals), bools, ints, strs and ``AliceMode``s, empty and one-row
tables, event streams on either side of the render block size, the
three analytic sweeps and the wedge residual map and profile.
"""

import itertools
import json
import math

import numpy as np
import pytest

from eprsim import pathbench, polarization, sampler
from eprsim.output import BLOCK_ROWS, FLOAT_FORMAT, Table, render_csv, render_json
from eprsim.pathbench import AliceMode, PathConfig, expected_bob_marginals
from eprsim.polarization import PolarizationConfig
from eprsim.wedge import (
    SamplingError,
    WedgeGeometry,
    detector_grid,
    joint_densities_at_detector,
    signal_difference_map,
    wedge_bob_singles,
    wedge_profile_table,
)
from eprsim import wedge

# the golden digests' small wedge geometry (tests/test_golden.py SMALL_GEOM)
SMALL_GEOM = WedgeGeometry(beam_sigma=3e-4, samples_aperture=2049, samples_detector=8193)


class Frozen:
    """The row-based tables and renderers, copied before the columnar rewrite."""

    class Table:
        def __init__(self, columns, rows):
            self.columns, self.rows = tuple(columns), list(rows)

    @staticmethod
    def _format_cell(value) -> str:
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return FLOAT_FORMAT % value
        return str(value)

    @classmethod
    def render_csv(cls, table) -> str:
        lines = [",".join(table.columns) + "\n"]
        for row in table.rows:
            lines.append(",".join(cls._format_cell(v) for v in row) + "\n")
        return "".join(lines)

    @staticmethod
    def _json_cell(value):
        if isinstance(value, float):
            if value != value:
                return None
            return float(FLOAT_FORMAT % value)
        return value

    @classmethod
    def render_json(cls, table) -> str:
        payload = {
            "columns": list(table.columns),
            "rows": [[cls._json_cell(v) for v in row] for row in table.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def grid_table(cls, columns, axes, values):
        shape = tuple(len(axis) for axis in axes[1:])
        rows = []
        for first in axes[0]:
            cells = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in values(first)))
            rows.extend((first, *point, *cell)
                        for point, cell in zip(itertools.product(*axes[1:]), cells))
        return cls.Table(columns, rows)

    @classmethod
    def events_table(cls, result):
        labels = result.labels()
        alpha, set_a, set_b = result.spec.settings()
        rows = [(i, labels[int(c)], alpha, set_a, set_b) for i, c in enumerate(result.codes)]
        return cls.Table(("index", "outcome", "alpha", "setting_a", "setting_b"), rows)

    @classmethod
    def signal_difference_map(cls, alpha_grid, phi_b_grid, phi_a, geom):
        rows = []
        for alpha in alpha_grid:
            for phi_b in phi_b_grid:
                try:
                    q1, q0 = wedge_bob_singles(alpha, phi_a, phi_b, geom)
                    expected = expected_bob_marginals(alpha, phi_b)
                    row = (alpha, phi_b, q1.value - expected.p_b1, q0.value - expected.p_b0,
                           q1.error_estimate, q0.error_estimate)
                except SamplingError:
                    row = (alpha, phi_b, math.nan, math.nan, math.nan, math.nan)
                rows.append(row)
        return cls.Table(("alpha", "phi_b", "diff_b1", "diff_b0", "err_b1", "err_b0"), rows)

    @classmethod
    def wedge_profile_table(cls, alpha, phi_a, phi_b, geom):
        f1, f2 = wedge._propagated_fields(geom)
        p1, p0 = joint_densities_at_detector(alpha, phi_a, phi_b, geom)
        x = detector_grid(geom)
        rows = [(float(x[i]), float(abs(f1.field[i])), float(abs(f2.field[i])),
                 float(p1[i]), float(p0[i])) for i in range(len(x))]
        return cls.Table(("x", "mag_a1", "mag_a2", "density_b1", "density_b0"), rows)


def _rendered(render, table):
    """The rendered text, or the type of the error rendering raised."""
    try:
        return render(table)
    except TypeError as exc:  # json: an AliceMode is not serializable
        return type(exc)


def assert_same_bytes(table: Table, frozen, json_too: bool = True) -> None:
    assert table.columns == frozen.columns
    assert len(table) == len(frozen.rows)
    assert render_csv(table) == Frozen.render_csv(frozen)
    if json_too:
        assert _rendered(render_json, table) == _rendered(Frozen.render_json, frozen)


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e308, -1.7976931348623157e308, 2.2250738585072014e-308, 1.0 / 3.0,
                  0.1, 1e16, 123456789.0, -2.5]


def _special_rows(n: int) -> list[tuple]:
    modes = list(AliceMode)
    return [(SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)], i % 3 == 0, i - 7 * (i % 5),
             ("HH", "a,b", "", "nan")[i % 4], modes[i % 3],
             SPECIAL_FLOATS[(7 * i) % len(SPECIAL_FLOATS)])
            for i in range(n)]


class TestCells:
    COLUMNS = ("f", "flag", "count", "label", "mode", "g")
    DTYPES = (float, bool, np.int64, str, object, float)

    @pytest.mark.parametrize("n", [0, 1, len(SPECIAL_FLOATS), BLOCK_ROWS + 5])
    def test_special_values(self, n):
        rows = _special_rows(n)
        columns = list(zip(*rows)) or [()] * len(self.COLUMNS)
        data = tuple(np.array(c, dtype=d) for c, d in zip(columns, self.DTYPES))
        assert_same_bytes(Table(self.COLUMNS, data), Frozen.Table(self.COLUMNS, rows))
        # without the AliceMode column, which JSON cannot hold
        keep = [0, 1, 2, 3, 5]
        assert_same_bytes(Table(tuple(self.COLUMNS[k] for k in keep), tuple(data[k] for k in keep)),
                          Frozen.Table([self.COLUMNS[k] for k in keep],
                                       [tuple(row[k] for k in keep) for row in rows]))

    def test_from_rows(self):
        rows = _special_rows(50)
        assert_same_bytes(Table.from_rows(self.COLUMNS, rows), Frozen.Table(self.COLUMNS, rows))

    def test_negative_zero_and_zero_stay_apart(self):
        lines = render_csv(Table(("v",), (np.array([0.0, -0.0, 0.0, -0.0]),))).splitlines()
        assert lines[1:] == ["0", "-0", "0", "-0"]

    def test_header_only_and_one_row(self):
        assert_same_bytes(Table.from_rows(("a", "b"), []), Frozen.Table(("a", "b"), []))
        row = [(0.3, 7, "in", math.nan, False)]
        columns = ("a", "n", "mode", "p", "ok")
        assert_same_bytes(Table.from_rows(columns, row), Frozen.Table(columns, row))

    def test_float32_reads_as_its_double(self):
        values = np.array([0.1, -0.0, np.nan, 3.0], dtype=np.float32)
        assert_same_bytes(Table(("v",), (values,)),
                          Frozen.Table(("v",), [(v,) for v in values.tolist()]))


EVENT_SPECS = [
    PathConfig(0.3, 1.1, 2.2, AliceMode.SPLITTER_IN),
    PolarizationConfig(0.7, math.pi / 8),
    PathConfig(math.pi / 8, 0.4, math.pi / 3, AliceMode.BEAM_STOP),
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1, 65536, 3 * 65536 + 17])
def test_events_table(n, workers):
    # 65536 is one sampler chunk.  The frozen renderer takes about a second
    # per 10^5 rows, so the longest stream runs one bench, and JSON (which
    # is not rendered in blocks) runs up to one block past the first
    for i, config in enumerate(EVENT_SPECS if n <= 65536 else EVENT_SPECS[:1]):
        spec = sampler.SamplerSpec(config, n=n, seed=11 + i)
        result = sampler.sample_outcome_codes(spec, workers=workers)
        assert_same_bytes(sampler.events_table(result), Frozen.events_table(result),
                          json_too=n <= BLOCK_ROWS + 1)


def _frozen_sweep(monkeypatch, module, sweep, *args):
    monkeypatch.setattr(module, "grid_table", Frozen.grid_table)
    frozen = sweep(*args)
    monkeypatch.undo()
    return frozen


EIGHTHS = [k * math.pi / 8 for k in range(-3, 6)]
LINSPACE = [i * (2 * math.pi) / 12 for i in range(13)]


@pytest.mark.parametrize("axes", [(EIGHTHS, LINSPACE), ([0.0], [0.0]), ([0.3], [-1e-300])])
def test_polar_sweep(axes, monkeypatch):
    frozen = _frozen_sweep(monkeypatch, polarization, polarization.polar_sweep, *axes)
    assert_same_bytes(polarization.polar_sweep(*axes), frozen)


@pytest.mark.parametrize("modes", [[AliceMode.SPLITTER_IN], [AliceMode.SPLITTER_OUT],
                                   [AliceMode.BEAM_STOP], list(AliceMode)])
def test_mz_sweep(modes, monkeypatch):
    axes = (EIGHTHS[::2], LINSPACE[::2], LINSPACE[1::3], modes)
    frozen = _frozen_sweep(monkeypatch, pathbench, pathbench.mz_sweep, *axes)
    assert_same_bytes(pathbench.mz_sweep(*axes), frozen)


def test_mz_marginal_sweep(monkeypatch):
    axes = (EIGHTHS, LINSPACE)
    frozen = _frozen_sweep(monkeypatch, pathbench, pathbench.mz_marginal_sweep, *axes)
    assert_same_bytes(pathbench.mz_marginal_sweep(*axes), frozen)


def test_difference_map():
    axes = ([0.0, math.pi / 4, math.pi / 2], [0.0, math.pi, 2 * math.pi], math.pi / 2)
    assert_same_bytes(signal_difference_map(*axes, SMALL_GEOM),
                      Frozen.signal_difference_map(*axes, SMALL_GEOM))


@pytest.mark.parametrize("coarse", [
    # 65 detector samples undersample the fringes of any tilted geometry
    WedgeGeometry(beam_sigma=3e-4, samples_aperture=2049, samples_detector=65),
    # 65 aperture samples exceed the propagation's Nyquist spacing
    WedgeGeometry(samples_aperture=65),
], ids=["detector", "aperture"])
def test_difference_map_marks_failed_cells_nan(coarse):
    axes = ([0.0, math.pi / 4], [0.5], 0.0)
    table = signal_difference_map(*axes, coarse)
    assert np.isnan(table.data[2]).all()
    assert_same_bytes(table, Frozen.signal_difference_map(*axes, coarse))


def test_profile_table():
    args = (math.pi / 4, 0.3, math.pi / 2, SMALL_GEOM)
    assert_same_bytes(wedge_profile_table(*args), Frozen.wedge_profile_table(*args))
