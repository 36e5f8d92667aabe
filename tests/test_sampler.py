"""Click-stream sampling: determinism, statistics, and the CHSH estimator."""

import math

import numpy as np
import pytest

from eprsim.pathbench import AliceMode, PathConfig
from eprsim.polarization import PolarizationConfig, polar_joint_probabilities
from eprsim.sampler import (
    CHUNK_EVENTS,
    SamplerSpec,
    empirical_joint,
    empirical_marginals,
    estimate_chsh,
    events_table,
    sample_outcome_codes,
)

from conftest import rows

POLAR_SPEC = SamplerSpec(config=PolarizationConfig(0.0, math.pi / 8), n=10_000, seed=7)
PATH_SPEC = SamplerSpec(
    config=PathConfig(0.0, math.pi / 3, math.pi / 5, AliceMode.SPLITTER_IN),
    n=10_000,
    seed=7,
)


class TestSamplerSpec:
    def test_rejects_plain_tuple_config(self):
        with pytest.raises(ValueError, match="bench config"):
            SamplerSpec(config=(0.0, 0.1), n=10, seed=0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative event count"):
            SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=-1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=10, seed=-1)

    def test_zero_count_allowed(self):
        spec = SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=0, seed=0)
        assert len(sample_outcome_codes(spec).codes) == 0

    def test_outcome_labels_per_bench(self):
        assert POLAR_SPEC.outcome_labels() == ("HH", "HV", "VH", "VV")
        assert PATH_SPEC.outcome_labels() == ("A1B1", "A1B0", "A0B1", "A0B0")
        stopped = SamplerSpec(
            config=PathConfig(0.0, 0.0, 0.0, AliceMode.BEAM_STOP), n=1, seed=0
        )
        assert stopped.outcome_labels() == ("B1", "B0")

    def test_settings_polar_pads_bob_slot(self):
        assert POLAR_SPEC.settings() == (0.0, math.pi / 8, 0.0)

    def test_settings_path_carries_both_phases(self):
        assert PATH_SPEC.settings() == (0.0, math.pi / 3, math.pi / 5)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = sample_outcome_codes(POLAR_SPEC)
        b = sample_outcome_codes(POLAR_SPEC)
        assert np.array_equal(a.codes, b.codes)

    def test_worker_count_does_not_change_stream(self):
        # force several chunks so the thread pool actually matters
        spec = SamplerSpec(
            config=POLAR_SPEC.config, n=3 * CHUNK_EVENTS + 17, seed=3
        )
        serial = sample_outcome_codes(spec, workers=1)
        threaded = sample_outcome_codes(spec, workers=4)
        assert np.array_equal(serial.codes, threaded.codes)

    def test_different_seed_differs(self):
        a = sample_outcome_codes(POLAR_SPEC)
        b = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=POLAR_SPEC.n, seed=8)
        )
        assert not np.array_equal(a.codes, b.codes)

    def test_prefix_stable_under_longer_run(self):
        # chunk boundaries depend on the event count alone, so a longer
        # run must reproduce the shorter one as its prefix
        short = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=CHUNK_EVENTS, seed=5)
        )
        long = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=2 * CHUNK_EVENTS, seed=5)
        )
        assert np.array_equal(long.codes[:CHUNK_EVENTS], short.codes)


class TestSampledStatistics:
    def test_degenerate_distribution_is_constant(self):
        # alpha = pi/4, phi_b = pi/2 sends every photon to B1
        spec = SamplerSpec(
            config=PathConfig(math.pi / 4, 0.0, math.pi / 2, AliceMode.BEAM_STOP),
            n=100,
            seed=0,
        )
        result = sample_outcome_codes(spec)
        assert all(result.labels()[int(c)] == "B1" for c in result.codes)
        marg = empirical_marginals(result)
        assert (marg.p_b1, marg.p_b0) == (1.0, 0.0)

    def test_polar_hh_frequency_within_five_sigma(self):
        spec = SamplerSpec(
            config=PolarizationConfig(0.0, math.pi / 8), n=1_000_000, seed=11
        )
        p_hh = polar_joint_probabilities(0.0, math.pi / 8).as_tuple()[0]
        assert p_hh == pytest.approx((1.0 - math.sqrt(2) / 2) / 4, abs=1e-15)
        freq = empirical_joint(sample_outcome_codes(spec))[0]
        se = math.sqrt(p_hh * (1.0 - p_hh) / spec.n)
        assert abs(freq - p_hh) < 5 * se

    def test_joint_frequencies_track_probabilities(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=200_000, seed=2)
        freqs = empirical_joint(sample_outcome_codes(spec))
        for freq, p in zip(freqs, spec.probabilities()):
            se = math.sqrt(p * (1.0 - p) / spec.n)
            assert abs(freq - p) < 5 * se

    def test_path_marginal_flat_at_zero_entanglement(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=200_000, seed=4)
        marg = empirical_marginals(sample_outcome_codes(spec))
        assert abs(marg.p_b1 - 0.5) < 5 * marg.se_b1
        assert marg.n == spec.n

    def test_empty_stream_has_no_marginals(self):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=0, seed=0)
        result = sample_outcome_codes(spec)
        with pytest.raises(ValueError, match="empty"):
            empirical_marginals(result)
        with pytest.raises(ValueError, match="empty"):
            empirical_joint(result)


class TestEventRecords:
    def test_events_carry_settings(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=5, seed=1)
        events = rows(events_table(sample_outcome_codes(spec)))
        assert len(events) == 5
        assert events[0] == (0, events[0][1], 0.0, math.pi / 3, math.pi / 5)
        assert [e[0] for e in events] == list(range(5))
        assert all(e[1] in spec.outcome_labels() for e in events)

    def test_events_table_schema(self):
        table = events_table(sample_outcome_codes(POLAR_SPEC))
        assert table.columns == ("index", "outcome", "alpha", "setting_a", "setting_b")
        assert len(rows(table)) == POLAR_SPEC.n
        index, outcome, alpha, set_a, set_b = rows(table)[0]
        assert (index, alpha, set_a, set_b) == (0, 0.0, math.pi / 8, 0.0)
        assert outcome in POLAR_SPEC.outcome_labels()


class TestChshEstimate:
    STANDARD = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)

    def test_analytic_limit_is_two_root_two(self):
        est = estimate_chsh(self.STANDARD, n=None)
        assert est.s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert est.std_error == 0.0
        assert est.n_per_setting is None

    def test_degenerate_angles_cancel(self):
        est = estimate_chsh((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4), n=None)
        assert est.s_value == pytest.approx(0.0, abs=1e-12)

    def test_sampled_estimate_exceeds_classical_bound(self):
        est = estimate_chsh(self.STANDARD, n=1_000_000, seed=0)
        assert 2.80 <= est.s_value <= 2.86
        assert (est.s_value - 2.0) / est.std_error > 30.0

    def test_sampled_estimate_is_reproducible(self):
        a = estimate_chsh(self.STANDARD, n=100_000, seed=6)
        b = estimate_chsh(self.STANDARD, n=100_000, seed=6)
        assert a == b

    def test_correlations_match_cosine_law(self):
        est = estimate_chsh(self.STANDARD, n=None)
        a, b, ap, bp = self.STANDARD
        for e, (ta, tb) in zip(
            est.correlations, ((a, b), (a, bp), (ap, b), (ap, bp))
        ):
            assert e == pytest.approx(-math.cos(2.0 * (ta - tb)), abs=1e-12)

    def test_rejects_partial_entanglement(self):
        with pytest.raises(ValueError, match="unsupported configuration"):
            estimate_chsh(self.STANDARD, n=None, alpha=math.pi / 8)

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError, match="a_prime"):
            estimate_chsh((0.0, 1.0, 2.0), n=None)

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError, match="positive sample count"):
            estimate_chsh(self.STANDARD, n=0)
