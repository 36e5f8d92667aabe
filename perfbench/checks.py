"""Checks of eprsim's outputs against closed forms, a stored reference
table, and each other.

Every check takes the bytes a command produced (its ``--out`` file, or
its standard output) and returns a list of problems; an empty list means
the output is correct.  Each check also carries corruptions of a correct
output that it must reject, so a run can show that the check would
catch a wrong answer.

The closed forms here are written out independently of the package:

* polar:  P_HH = P_VV = [1 - cos 2a cos 2t] / 4,  P_HV = P_VH = [1 + cos 2a cos 2t] / 4
* mz, Bob:  P_B1 = [1 + S] / 2 with S = sin 2a sin phi_b
* mz, splitter out:  P_A1B1 = P_A0B1 = [1 + S] / 4,  P_A1B0 = P_A0B0 = [1 - S] / 4
* mz, splitter in, with X = cos 2a cos phi_a cos phi_b + sin phi_a sin phi_b
  and Y = sin 2a sin phi_a:
  P_A1B1 = [1 + S - X - Y] / 4,  P_A1B0 = [1 - S + X - Y] / 4,
  P_A0B1 = [1 + S + X + Y] / 4,  P_A0B0 = [1 - S - X + Y] / 4
* CHSH at alpha = 0 and angles (0, pi/8, pi/4, 3pi/8):
  E = (-r, +r, -r, -r) with r = cos(pi/4), so S = 2 sqrt 2
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXACT_TOL = 1e-12  # closed-form tables
DIFFMAP_TOL = 1e-9  # wedge residual map against the stored reference
SE_LIMIT = 5.0  # sampled estimates, in standard errors

POLAR_COLUMNS = ("alpha", "theta", "p_hh", "p_hv", "p_vh", "p_vv")
MZ_COLUMNS = ("alpha", "phi_a", "phi_b", "mode",
              "p_a1b1", "p_a1b0", "p_a0b1", "p_a0b0", "p_b1", "p_b0")
EVENT_COLUMNS = ("index", "outcome", "alpha", "setting_a", "setting_b")
SUMMARY_COLUMNS = ("n", "p_b1", "p_b0", "se_b1", "se_b0")
CHSH_COLUMNS = ("s_value", "std_error", "n_per_setting",
                "e_ab", "e_abp", "e_apb", "e_apbp")
DIFFMAP_COLUMNS = ("alpha", "phi_b", "diff_b1", "diff_b0", "err_b1", "err_b0")


@dataclass
class Check:
    """A check and the corruptions of a correct output it must reject."""

    run: Callable[[bytes], list[str]]
    mutations: list[tuple[str, Callable[[bytes], bytes]]] = field(default_factory=list)


# ---------------------------------------------------------------- parsing


def parse_table(data: bytes, fmt: str = "csv") -> tuple[tuple[str, ...], list[list]]:
    """Header and rows of a CSV or JSON table, cells left as text or JSON values."""
    if fmt == "json":
        doc = json.loads(data)
        return tuple(doc["columns"]), doc["rows"]
    lines = data.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return (), []
    return tuple(lines[0].split(",")), [line.split(",") for line in lines[1:]]


def _numeric(rows: list[list], index: int) -> np.ndarray:
    return np.array([row[index] for row in rows], dtype=float)


def _table(data: bytes, fmt: str, columns: tuple[str, ...], n_rows: int | None,
           errors: list[str]) -> dict | None:
    """Columns by name, or None after recording why the table is unusable."""
    try:
        header, rows = parse_table(data, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"unparsable {fmt} table: {exc}")
        return None
    if header != columns:
        errors.append(f"header {header} != {columns}")
        return None
    if n_rows is not None and len(rows) != n_rows:
        errors.append(f"{len(rows)} rows, expected {n_rows}")
        return None
    if any(len(row) != len(columns) for row in rows):
        errors.append("ragged rows")
        return None
    out = {}
    for i, name in enumerate(columns):
        if name == "mode" or name == "outcome":
            out[name] = [str(row[i]) for row in rows]
            continue
        try:
            out[name] = _numeric(rows, i)
        except (ValueError, TypeError):
            errors.append(f"non-numeric cell in column {name}")
            return None
    return out


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float,
           errors: list[str]) -> None:
    both_nan = np.isnan(got) & np.isnan(want)
    dev = np.where(both_nan, 0.0, np.abs(got - want))
    dev = np.where(np.isnan(dev), np.inf, dev)
    worst = float(dev.max()) if dev.size else 0.0
    if not worst <= tol:
        errors.append(f"{name}: max deviation {worst:.3e} > {tol:.1e}")


# ------------------------------------------------------------ closed forms


def linspace(stop: float, count: int) -> list[float]:
    """The CLI's sweep grid: count points from 0 to stop inclusive."""
    step = stop / (count - 1)
    return [i * step for i in range(count)]


def polar_joint(alpha, theta) -> tuple:
    c = np.cos(2.0 * np.asarray(alpha)) * np.cos(2.0 * np.asarray(theta))
    return ((1.0 - c) / 4.0, (1.0 + c) / 4.0, (1.0 + c) / 4.0, (1.0 - c) / 4.0)


def bob_b1(alpha, phi_b):
    return (1.0 + np.sin(2.0 * np.asarray(alpha)) * np.sin(np.asarray(phi_b))) / 2.0


def mz_joint(alpha, phi_a, phi_b, mode: str) -> tuple:
    """(A1B1, A1B0, A0B1, A0B0); NaN for the beam stop, which has no joints."""
    alpha, phi_a, phi_b = (np.asarray(v, dtype=float) for v in (alpha, phi_a, phi_b))
    s = np.sin(2.0 * alpha) * np.sin(phi_b)
    if mode == "stop":
        nan = np.full(np.broadcast(alpha, phi_a, phi_b).shape, np.nan)
        return (nan, nan, nan, nan)
    if mode == "out":
        return ((1.0 + s) / 4.0, (1.0 - s) / 4.0, (1.0 + s) / 4.0, (1.0 - s) / 4.0)
    x = np.cos(2.0 * alpha) * np.cos(phi_a) * np.cos(phi_b) + np.sin(phi_a) * np.sin(phi_b)
    y = np.sin(2.0 * alpha) * np.sin(phi_a)
    return ((1.0 + s - x - y) / 4.0, (1.0 - s + x - y) / 4.0,
            (1.0 + s + x + y) / 4.0, (1.0 - s - x + y) / 4.0)


CHSH_ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)
CHSH_CORRELATIONS = tuple(r * math.cos(math.pi / 4.0) for r in (-1.0, 1.0, -1.0, -1.0))
CHSH_S = 2.0 * math.sqrt(2.0)


# -------------------------------------------------------------- mutations


def drop_last_row(data: bytes) -> bytes:
    cut = data.rstrip(b"\n").rfind(b"\n")
    return data[: cut + 1]


def edit_cell(row: int, column: int, edit: Callable[[str], str]):
    """Corruption that rewrites one CSV cell (row 0 is the first data row)."""

    def mutate(data: bytes) -> bytes:
        lines = data.split(b"\n")
        cells = lines[row + 1].decode().split(",")
        cells[column] = edit(cells[column])
        lines[row + 1] = ",".join(cells).encode()
        return b"\n".join(lines)

    return mutate


def edit_json_cell(row: int, column: int, edit: Callable[[object], object]):
    def mutate(data: bytes) -> bytes:
        doc = json.loads(data)
        doc["rows"][row][column] = edit(doc["rows"][row][column])
        return (json.dumps(doc, indent=2) + "\n").encode()

    return mutate


def shift(delta: float) -> Callable[[str], str]:
    return lambda text: "%.17g" % (float(text) + delta)


def flip_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:]


# ------------------------------------------------------------------ checks


def shift_cell(fmt: str, row: int, column: int, delta: float):
    """Corruption that adds delta to one cell of a CSV or JSON table."""
    if fmt == "json":
        return edit_json_cell(row, column, lambda v: v + delta)
    return edit_cell(row, column, shift(delta))


def polar_table(alphas: list[float], thetas: list[float], fmt: str = "csv") -> Check:
    """Every (alpha, theta) of the grid, alpha outermost, at the closed form."""
    want_a = np.repeat(alphas, len(thetas))
    want_t = np.tile(thetas, len(alphas))

    def run(data: bytes) -> list[str]:
        errors: list[str] = []
        t = _table(data, fmt, POLAR_COLUMNS, len(want_a), errors)
        if t is None:
            return errors
        _close("alpha grid", t["alpha"], want_a, EXACT_TOL, errors)
        _close("theta grid", t["theta"], want_t, EXACT_TOL, errors)
        for name, want in zip(POLAR_COLUMNS[2:], polar_joint(t["alpha"], t["theta"])):
            _close(name, t[name], want, EXACT_TOL, errors)
        return errors

    last = len(want_a) - 1
    mutations = [("probability off by 1e-9", shift_cell(fmt, last // 2, 3, 1e-9)),
                 ("angle off by 1e-9", shift_cell(fmt, last, 1, 1e-9))]
    if fmt == "csv":
        mutations.append(("row missing", drop_last_row))
    return Check(run, mutations)


def mz_table(alphas, phi_as, phi_bs, mode: str) -> Check:
    """Every (alpha, phi_a, phi_b) of the grid, alpha outermost, in one mode."""
    mesh = np.meshgrid(alphas, phi_as, phi_bs, indexing="ij")
    want_a, want_pa, want_pb = (m.ravel() for m in mesh)

    def run(data: bytes) -> list[str]:
        errors: list[str] = []
        t = _table(data, "csv", MZ_COLUMNS, len(want_a), errors)
        if t is None:
            return errors
        _close("alpha grid", t["alpha"], want_a, EXACT_TOL, errors)
        _close("phi_a grid", t["phi_a"], want_pa, EXACT_TOL, errors)
        _close("phi_b grid", t["phi_b"], want_pb, EXACT_TOL, errors)
        if any(m != mode for m in t["mode"]):
            errors.append(f"mode column is not all {mode!r}")
        joints = mz_joint(t["alpha"], t["phi_a"], t["phi_b"], mode)
        for name, want in zip(MZ_COLUMNS[4:8], joints):
            _close(name, t[name], want, EXACT_TOL, errors)
        p1 = bob_b1(t["alpha"], t["phi_b"])
        _close("p_b1", t["p_b1"], p1, EXACT_TOL, errors)
        _close("p_b0", t["p_b0"], 1.0 - p1, EXACT_TOL, errors)
        return errors

    mid = len(want_a) // 2
    mutations = [("Bob marginal off by 1e-9", edit_cell(mid, 8, shift(1e-9))),
                 ("mode relabelled", edit_cell(0, 3, lambda _: "in" if mode != "in" else "out")),
                 ("row missing", drop_last_row)]
    if mode != "stop":
        mutations.append(("joint off by 1e-9", edit_cell(mid, 5, shift(1e-9))))
    else:
        mutations.append(("joint present for the beam stop", edit_cell(mid, 5, lambda _: "0.25")))
    return Check(run, mutations)


_AUDIT_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (\w+): max marginal deviation (\S+) at \(.*\) over "
    r"(\d+) configurations \(tolerance (\S+)\)$"
)


def audit_report(bench: str, configurations: int, tolerance: float) -> Check:
    """One PASS line for the bench over the expected number of settings."""

    def run(data: bytes) -> list[str]:
        lines = data.decode("utf-8").splitlines()
        if len(lines) != 1:
            return [f"expected one report line, got {len(lines)}"]
        m = _AUDIT_LINE.match(lines[0])
        if m is None:
            return [f"unrecognized report line {lines[0]!r}"]
        errors = []
        verdict, name, dev, count, _tol = m.groups()
        if verdict != "PASS":
            errors.append(f"verdict {verdict}")
        if name != bench:
            errors.append(f"bench {name!r}, expected {bench!r}")
        if int(count) != configurations:
            errors.append(f"{count} configurations, expected {configurations}")
        if not float(dev) <= tolerance:
            errors.append(f"max deviation {dev} above {tolerance:g}")
        return errors

    return Check(run, [
        ("verdict FAIL", lambda d: d.replace(b"[PASS]", b"[FAIL]")),
        ("configuration count short", lambda d: d.replace(
            f" {configurations} configurations".encode(),
            f" {configurations - 1} configurations".encode())),
        ("deviation above tolerance", lambda d: re.sub(
            rb"deviation \S+ at", b"deviation 1.000e-03 at", d)),
    ])


def diffmap_reference(reference: bytes) -> Check:
    """Every cell within DIFFMAP_TOL of the reference table, none NaN."""
    ref_errors: list[str] = []
    ref = _table(reference, "csv", DIFFMAP_COLUMNS, None, ref_errors)
    if ref is None:
        raise ValueError(f"bad diffmap reference: {ref_errors}")
    n_rows = len(ref["alpha"])

    def run(data: bytes) -> list[str]:
        errors: list[str] = []
        t = _table(data, "csv", DIFFMAP_COLUMNS, n_rows, errors)
        if t is None:
            return errors
        for name in DIFFMAP_COLUMNS:
            if np.isnan(t[name]).any():
                errors.append(f"{name}: NaN cells")
            _close(name, t[name], ref[name], DIFFMAP_TOL, errors)
        return errors

    return Check(run, [
        ("residual off by 2e-9", edit_cell(n_rows // 2, 2, shift(2e-9))),
        ("cell NaN", edit_cell(n_rows - 1, 3, lambda _: "nan")),
        ("row missing", drop_last_row),
    ])


def _within_se(name: str, got: float, p: float, n: int, errors: list[str]) -> None:
    se = math.sqrt(p * (1.0 - p) / n)
    if not abs(got - p) <= SE_LIMIT * se:
        errors.append(f"{name} = {got!r}, closed form {p!r}: more than "
                      f"{SE_LIMIT:g} standard errors ({se:.2e}) away")


def events_csv(alpha: float, phi_a: float, phi_b: float, n: int) -> Check:
    """Splitter-in mz event stream: layout, settings, and frequencies.

    Scans the bytes instead of parsing a million rows: the line count,
    the outcome label counts, and the settings suffix every row must end
    with.  Outcome frequencies must lie within SE_LIMIT binomial standard
    errors of the closed-form joints, and Bob's singles of his marginal.
    """
    labels = ("A1B1", "A1B0", "A0B1", "A0B0")
    probs = [float(p) for p in mz_joint(alpha, phi_a, phi_b, "in")]
    suffix = (",%.17g,%.17g,%.17g\n" % (alpha, phi_a, phi_b)).encode()
    header = (",".join(EVENT_COLUMNS) + "\n").encode()

    def run(data: bytes) -> list[str]:
        errors = []
        if not data.startswith(header):
            return ["bad header"]
        rows = data.count(b"\n") - 1
        if rows != n:
            return [f"{rows} rows, expected {n}"]
        if data.count(suffix) != n:
            errors.append("rows whose settings differ from the command's")
        if not data[len(header):].startswith(b"0,"):
            errors.append("first index is not 0")
        last = data[data.rstrip(b"\n").rfind(b"\n") + 1:]
        if not last.startswith(f"{n - 1},".encode()):
            errors.append(f"last index is not {n - 1}")
        counts = [data.count(b"," + lab.encode() + b",") for lab in labels]
        if sum(counts) != n:
            errors.append(f"{n - sum(counts)} rows with an unknown outcome")
            return errors
        for lab, count, p in zip(labels, counts, probs):
            _within_se(f"P({lab})", count / n, p, n, errors)
        _within_se("P(B1)", (counts[0] + counts[2]) / n,
                   float(bob_b1(alpha, phi_b)), n, errors)
        return errors

    def relabel(data: bytes) -> bytes:
        # B1 outcomes reported as B0: counts still add up, frequencies do not
        return data.replace(b",A1B1,", b",A1B0,").replace(b",A0B1,", b",A0B0,")

    return Check(run, [
        ("row missing", drop_last_row),
        ("Bob's outcomes swapped", relabel),
        ("one setting changed", lambda d: d.replace(suffix, suffix.replace(b",", b",1", 1), 1)),
        ("unknown outcome", lambda d: d.replace(b",A0B0,", b",A2B0,", 1)),
    ])


def summary(p_b1: float, n: int) -> Check:
    """Empirical Bob singles within SE_LIMIT standard errors of p_b1."""

    def run(data: bytes) -> list[str]:
        errors: list[str] = []
        t = _table(data, "csv", SUMMARY_COLUMNS, 1, errors)
        if t is None:
            return errors
        if t["n"][0] != n:
            errors.append(f"n = {t['n'][0]!r}, expected {n}")
        got = float(t["p_b1"][0])
        _within_se("p_b1", got, p_b1, n, errors)
        _close("p_b0", t["p_b0"], np.array([1.0 - got]), EXACT_TOL, errors)
        se = math.sqrt(got * (1.0 - got) / n)
        _close("se_b1", t["se_b1"], np.array([se]), EXACT_TOL, errors)
        _close("se_b0", t["se_b0"], np.array([se]), EXACT_TOL, errors)
        return errors

    offset = 6.0 * math.sqrt(p_b1 * (1.0 - p_b1) / n) + 1.0 / n

    def biased(data: bytes) -> bytes:
        # a consistent row whose estimate sits 6 standard errors off
        p = p_b1 + offset if p_b1 + offset < 1.0 else p_b1 - offset
        se = math.sqrt(p * (1.0 - p) / n)
        row = ",".join("%.17g" % v for v in (p, 1.0 - p, se, se))
        return (",".join(SUMMARY_COLUMNS) + f"\n{n},{row}\n").encode()

    return Check(run, [
        ("estimate 6 standard errors off", biased),
        ("standard error wrong", edit_cell(0, 3, shift(1e-6))),
        ("event count wrong", edit_cell(0, 0, lambda v: str(int(v) + 1))),
    ])


def chsh(n: int | None, fmt: str = "csv") -> Check:
    """CHSH table at the maximally entangled point.

    Analytic (n None): every correlation and S at the closed form, zero
    error.  Sampled: every correlation within SE_LIMIT standard errors,
    S and its error consistent with the printed correlations, and S
    within SE_LIMIT errors of 2 sqrt 2.
    """

    def run(data: bytes) -> list[str]:
        errors: list[str] = []
        t = _table(data, fmt, CHSH_COLUMNS, 1, errors)
        if t is None:
            return errors
        es = [float(t[c][0]) for c in CHSH_COLUMNS[3:]]
        s_value = float(t["s_value"][0])
        std_error = float(t["std_error"][0])
        if n is None:
            _close("correlations", np.array(es), np.array(CHSH_CORRELATIONS), EXACT_TOL, errors)
            _close("s_value", np.array([s_value]), np.array([CHSH_S]), EXACT_TOL, errors)
            if std_error != 0.0 or t["n_per_setting"][0] != 0:
                errors.append("analytic estimate with a sampling error or count")
            return errors
        if t["n_per_setting"][0] != n:
            errors.append(f"n_per_setting {t['n_per_setting'][0]!r}, expected {n}")
        for name, e, want in zip(CHSH_COLUMNS[3:], es, CHSH_CORRELATIONS):
            # E = 2 P(same) - 1, so its error is twice that of P(same)
            _within_se(name, (1.0 + e) / 2.0, (1.0 + want) / 2.0, n, errors)
        s_from_e = abs(es[0] - es[1] + es[2] + es[3])
        _close("s_value vs correlations", np.array([s_value]), np.array([s_from_e]),
               EXACT_TOL, errors)
        se = math.sqrt(sum((1.0 - e * e) / n for e in es))
        _close("std_error", np.array([std_error]), np.array([se]), EXACT_TOL, errors)
        if not abs(s_value - CHSH_S) <= SE_LIMIT * std_error:
            errors.append(f"S = {s_value!r} more than {SE_LIMIT:g} errors from 2 sqrt 2")
        return errors

    if n is None:
        mutations = [("correlation off by 1e-9", shift_cell(fmt, 0, 3, 1e-9)),
                     ("S off by 1e-9", shift_cell(fmt, 0, 0, 1e-9))]
    else:
        big = 0.02 + 12.0 / math.sqrt(n)
        mutations = [("correlation 12 errors off", shift_cell(fmt, 0, 4, -big)),
                     ("S inconsistent", shift_cell(fmt, 0, 0, 1e-9)),
                     ("standard error wrong", shift_cell(fmt, 0, 1, 1e-9))]
    return Check(run, mutations)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
