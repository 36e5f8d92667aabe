"""End-to-end acceptance checks, one numbered test per criterion.

Each test measures the quantity it gates, records a single
``[PASS]``/``[FAIL]`` line with the observed numbers (printed in the
"acceptance criteria" section of the terminal summary, streamed live
under ``pytest -s``), and then asserts.  Timing bounds are asserted
where a criterion carries one.
"""

import math
import time

import numpy as np

from eprsim import cli
from eprsim.cli import audit_mz, audit_polar
from eprsim.pathbench import (
    AliceMode,
    expected_bob_marginals,
    mz_bob_marginals,
    mz_joint_probabilities,
    uncorrected_mz_joint_probabilities,
)
from eprsim.polarization import polar_joint_probabilities
from eprsim.sampler import estimate_chsh
from eprsim.wedge import WedgeGeometry, signal_difference_map

from conftest import record, rows


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _grid(stop: float, count: int) -> list[float]:
    step = stop / (count - 1)
    return [i * step for i in range(count)]


def test_01_joint_distributions_normalized():
    rng = np.random.default_rng(20260814)
    modes = (AliceMode.SPLITTER_IN, AliceMode.SPLITTER_OUT, AliceMode.BEAM_STOP)
    worst = 0.0
    count = 10_000
    t0 = time.perf_counter()
    for i in range(count):
        alpha, theta, phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi, size=4)
        mode = modes[i % 3]
        polar_sum = sum(polar_joint_probabilities(alpha, theta).as_tuple())
        if mode is AliceMode.BEAM_STOP:
            path_sum = sum(mz_bob_marginals(alpha, phi_a, phi_b, mode).as_tuple())
        else:
            path_sum = sum(mz_joint_probabilities(alpha, phi_a, phi_b, mode).as_tuple())
        worst = max(worst, abs(polar_sum - 1.0), abs(path_sum - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record(
        f"[{_verdict(ok)}] 01 normalization: max |sum - 1| = {worst:.3e} over "
        f"{count} random configurations in {elapsed:.2f}s (tol 1e-12, budget 1s)"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_02_polar_coincidence_curve():
    points = {0.0: 0.5, math.pi / 4: 0.25, math.pi / 2: 0.0}
    # HV is the second entry of the (HH, HV, VH, VV) outcome order
    worst_pts = max(
        abs(polar_joint_probabilities(0.0, theta).as_tuple()[1] - want)
        for theta, want in points.items()
    )
    worst_flat = max(
        abs(p - 0.25)
        for theta in _grid(math.pi, 101)
        for p in polar_joint_probabilities(math.pi / 4, theta).as_tuple()
    )
    ok = worst_pts <= 1e-12 and worst_flat <= 1e-12
    record(
        f"[{_verdict(ok)}] 02 coincidence curve: P(HV) off by {worst_pts:.3e} at the "
        f"(1/2, 1/4, 0) points; product-state curve off flat by {worst_flat:.3e} "
        f"(tol 1e-12)"
    )
    assert worst_pts <= 1e-12
    assert worst_flat <= 1e-12


def test_03_polarization_no_signal():
    report = audit_polar(grid=200, tolerance=1e-12)
    record(
        f"[{_verdict(report.passed)}] 03 polarization no-signal: max "
        f"|P_B - 1/2| = {report.max_deviation:.3e} over "
        f"{report.configurations} settings (tol 1e-12)"
    )
    assert report.passed


def test_04_path_no_signal():
    t0 = time.perf_counter()
    report = audit_mz(grid=50, tolerance=1e-12)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    record(
        f"[{_verdict(ok)}] 04 path no-signal: max deviation from "
        f"[1 +/- sin(2a) sin(phi_b)]/2 = {report.max_deviation:.3e} over "
        f"{report.configurations} settings in {elapsed:.1f}s (tol 1e-12, budget 10s)"
    )
    assert report.passed
    assert elapsed < 10.0


def test_05_path_singles_visibility():
    phis = _grid(2.0 * math.pi, 721)
    worst = 0.0
    seen = []
    for alpha, want in ((0.0, 0.0), (math.pi / 8, math.sqrt(0.5)), (math.pi / 4, 1.0)):
        values = [
            mz_bob_marginals(alpha, 0.0, phi_b, AliceMode.SPLITTER_IN).p_b1
            for phi_b in phis
        ]
        vis = (max(values) - min(values)) / (max(values) + min(values))
        worst = max(worst, abs(vis - want))
        seen.append(f"{vis:.6f}@a={alpha:.4f}")
    p_top = mz_bob_marginals(math.pi / 4, 0.0, math.pi / 2, AliceMode.SPLITTER_IN).p_b1
    all_counts_dev = abs(p_top - 1.0)
    ok = worst <= 1e-12 and all_counts_dev <= 1e-12
    record(
        f"[{_verdict(ok)}] 05 singles visibility: {', '.join(seen)} vs |sin 2a| "
        f"(worst off {worst:.3e}); P_B1 at the all-counts point off by "
        f"{all_counts_dev:.3e} (tol 1e-12)"
    )
    assert worst <= 1e-12
    assert all_counts_dev <= 1e-12


def test_06_printed_path_forms_do_not_normalize():
    alpha, phi_a, phi_b = math.pi / 8, math.pi / 3, math.pi / 5
    bad_sum = sum(uncorrected_mz_joint_probabilities(alpha, phi_a, phi_b))
    good_sum = sum(
        mz_joint_probabilities(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN).as_tuple()
    )
    bad_dev = abs(bad_sum - 1.0)
    good_dev = abs(good_sum - 1.0)
    ok = bad_dev > 1e-3 and good_dev <= 1e-12
    record(
        f"[{_verdict(ok)}] 06 printed-form regression: legacy closed forms sum to "
        f"{bad_sum:.6f} (off by {bad_dev:.3e} > 1e-3); amplitude-derived sum is "
        f"{good_sum:.15f} (off by {good_dev:.3e} <= 1e-12)"
    )
    assert bad_dev > 1e-3
    assert good_dev <= 1e-12


def test_07_chsh_violation():
    t0 = time.perf_counter()
    est = estimate_chsh(n=1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    sigmas = (est.s_value - 2.0) / est.std_error
    ok = 2.80 <= est.s_value <= 2.86 and sigmas > 30.0 and elapsed < 10.0
    record(
        f"[{_verdict(ok)}] 07 CHSH: S = {est.s_value:.6f} +/- {est.std_error:.1e} "
        f"({sigmas:.0f} standard errors above 2) from 4 x 10^6 events in "
        f"{elapsed:.2f}s (window [2.80, 2.86], > 30 SE, budget 10s)"
    )
    assert 2.80 <= est.s_value <= 2.86
    assert sigmas > 30.0
    assert elapsed < 10.0


def _max_abs_diff(table) -> float:
    return max(max(abs(row[2]), abs(row[3])) for row in rows(table))


def test_08_wedge_single_mode_limit():
    geom = WedgeGeometry(aperture_halfwidth=math.inf, tilt_angle=0.0)
    t0 = time.perf_counter()
    table = signal_difference_map(
        _grid(math.pi / 2, 20), _grid(2.0 * math.pi, 20), 0.0, geom
    )
    elapsed = time.perf_counter() - t0
    worst = _max_abs_diff(table)
    ok = worst < 1e-6 and elapsed < 120.0
    record(
        f"[{_verdict(ok)}] 08 wedge single-mode limit: max |integrated - closed "
        f"form| = {worst:.3e} over a 20x20 grid in {elapsed:.1f}s "
        f"(tol 1e-6, budget 120s)"
    )
    assert worst < 1e-6
    assert elapsed < 120.0


def test_09_wedge_truncation_bounds_residual():
    t0 = time.perf_counter()
    table = signal_difference_map(
        _grid(math.pi / 2, 20), _grid(2.0 * math.pi, 20), math.pi / 2, WedgeGeometry()
    )
    worst_default = _max_abs_diff(table)
    sweep = []
    sigma = 1e-3
    for mult in (5, 6, 7, 8, 9, 10):
        geom = WedgeGeometry(aperture_halfwidth=mult * sigma)
        small = signal_difference_map(
            _grid(math.pi / 2, 5), _grid(2.0 * math.pi, 5), math.pi / 2, geom
        )
        sweep.append(_max_abs_diff(small))
    elapsed = time.perf_counter() - t0
    in_window = 1e-8 <= worst_default <= 1e-4
    monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
    ok = in_window and monotone and elapsed < 300.0
    trend = " > ".join(f"{v:.2e}" for v in sweep)
    record(
        f"[{_verdict(ok)}] 09 wedge residual: default-aperture max |diff| = "
        f"{worst_default:.3e} in [1e-8, 1e-4]; decreasing with aperture "
        f"5..10 sigma: {trend}; total {elapsed:.0f}s (budget 300s)"
    )
    assert in_window
    assert monotone
    assert elapsed < 300.0


def test_10_sampled_output_byte_determinism(tmp_path):
    outs = [tmp_path / f"events{i}.csv" for i in range(3)]
    base = ["sample", "--bench", "mz", "--alpha", "pi/8", "--phi-b", "pi/5",
            "--n", "200000", "--seed", "5"]
    assert cli.main(base + ["--out", str(outs[0])]) == 0
    assert cli.main(base + ["--out", str(outs[1])]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(outs[2])]) == 0
    blobs = [p.read_bytes() for p in outs]
    events_same = blobs[0] == blobs[1] == blobs[2]

    chsh_outs = [tmp_path / f"chsh{i}.csv" for i in range(2)]
    for path in chsh_outs:
        assert cli.main(["chsh", "--n", "50000", "--seed", "4",
                         "--out", str(path)]) == 0
    chsh_same = chsh_outs[0].read_bytes() == chsh_outs[1].read_bytes()

    ok = events_same and chsh_same
    record(
        f"[{_verdict(ok)}] 10 determinism: 200k-event stream byte-identical "
        f"across reruns and across 1 vs 4 workers ({events_same}); CHSH table "
        f"byte-identical across reruns ({chsh_same})"
    )
    assert events_same
    assert chsh_same
