import cmath
import math

import pytest

from eprsim.pathbench import (
    BOB_OUTCOMES,
    PATH_OUTCOMES,
    AliceMode,
    PathConfig,
    expected_bob_marginals,
    mz_bob_marginals,
    mz_joint_amplitudes,
    mz_joint_probabilities,
    mz_marginal_sweep,
    mz_sweep,
)
from eprsim.wedge import _bob_table

from conftest import rows
from legacy_forms import uncorrected_mz_joint_probabilities

SQRT2 = math.sqrt(2.0)

ALPHAS = [0.0, math.pi / 8, 0.4, math.pi / 4, 1.3]
PHIS = [0.0, math.pi / 5, math.pi / 3, math.pi / 2, 2.1, 4.9]


def splitter_in_amplitude_forms(alpha, phi_a, phi_b):
    """Both-interferometers amplitudes written out longhand."""
    ea, eb = cmath.exp(1j * phi_a), cmath.exp(1j * phi_b)
    sa, ca = math.sin(alpha), math.cos(alpha)
    return (
        (1j * ca * (ea - eb) + sa * (1 + ea * eb)) / (2 * SQRT2),
        (-ca * (ea + eb) + 1j * sa * (1 - ea * eb)) / (2 * SQRT2),
        (+ca * (ea + eb) + 1j * sa * (1 - ea * eb)) / (2 * SQRT2),
        (1j * ca * (ea - eb) - sa * (1 + ea * eb)) / (2 * SQRT2),
    )


def splitter_out_amplitude_forms(alpha, phi_a, phi_b):
    """Bare-path amplitudes (final splitter removed) written out longhand."""
    ea, eb = cmath.exp(1j * phi_a), cmath.exp(1j * phi_b)
    sa, ca = math.sin(alpha), math.cos(alpha)
    return (
        (sa - 1j * eb * ca) / 2,
        (1j * sa - eb * ca) / 2,
        ea * (ca - 1j * eb * sa) / 2,
        1j * ea * (ca + 1j * eb * sa) / 2,
    )


def derived_joint_closed_form(alpha, phi_a, phi_b):
    x = math.cos(2 * alpha) * math.cos(phi_a) * math.cos(phi_b)
    sa, sb = math.sin(phi_a), math.sin(phi_b)
    s2a = math.sin(2 * alpha)
    return (
        (1 - x - sa * sb - s2a * (sa - sb)) / 4,
        (1 + x + sa * sb - s2a * (sa + sb)) / 4,
        (1 + x + sa * sb + s2a * (sa + sb)) / 4,
        (1 - x - sa * sb + s2a * (sa - sb)) / 4,
    )


class TestSplitterInAmplitudes:
    def test_fully_entangled_zero_phases(self):
        a11, a10, a01, a00 = mz_joint_amplitudes(
            0.0, 0.0, 0.0, AliceMode.SPLITTER_IN
        )
        assert abs(a11) == pytest.approx(0.0, abs=1e-15)
        assert a10 == pytest.approx(-1 / SQRT2, abs=1e-15)
        assert a01 == pytest.approx(+1 / SQRT2, abs=1e-15)
        assert abs(a00) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi_a", PHIS[:4])
    @pytest.mark.parametrize("phi_b", PHIS[2:])
    def test_matches_longhand_forms(self, alpha, phi_a, phi_b):
        got = mz_joint_amplitudes(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN)
        want = splitter_in_amplitude_forms(alpha, phi_a, phi_b)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unitarity(self, alpha):
        for phi_a in PHIS:
            for phi_b in PHIS:
                amps = mz_joint_amplitudes(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN)
                assert sum(abs(a) ** 2 for a in amps) == pytest.approx(1.0, abs=1e-12)


class TestSplitterOutAmplitudes:
    def test_fully_entangled_uniform_moduli(self):
        amps = mz_joint_amplitudes(0.0, 0.0, 0.0, AliceMode.SPLITTER_OUT)
        for a in amps:
            assert abs(a) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi_a", PHIS[:4])
    @pytest.mark.parametrize("phi_b", PHIS[2:])
    def test_matches_longhand_forms(self, alpha, phi_a, phi_b):
        got = mz_joint_amplitudes(alpha, phi_a, phi_b, AliceMode.SPLITTER_OUT)
        want = splitter_out_amplitude_forms(alpha, phi_a, phi_b)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_beam_stop_has_no_alice_amplitudes(self):
        with pytest.raises(ValueError):
            mz_joint_amplitudes(0.1, 0.2, 0.3, AliceMode.BEAM_STOP)


class TestJointProbabilities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi_a", PHIS[:4])
    @pytest.mark.parametrize("phi_b", PHIS[2:])
    def test_splitter_in_closed_form(self, alpha, phi_a, phi_b):
        got = mz_joint_probabilities(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN)
        want = derived_joint_closed_form(alpha, phi_a, phi_b)
        assert got.as_tuple() == pytest.approx(want, abs=1e-12)

    def test_splitter_in_fully_entangled_equal_phases(self):
        # coincidence minimum at phi_a = phi_b when the source is maximal
        got = mz_joint_probabilities(0.0, 0.9, 0.9, AliceMode.SPLITTER_IN)
        assert got.p11 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi_a", PHIS)
    @pytest.mark.parametrize("phi_b", PHIS)
    def test_splitter_out_fully_entangled_flat(self, phi_a, phi_b):
        got = mz_joint_probabilities(0.0, phi_a, phi_b, AliceMode.SPLITTER_OUT)
        assert got.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi_a", PHIS[:4])
    @pytest.mark.parametrize("phi_b", PHIS[2:])
    def test_splitter_out_closed_form(self, alpha, phi_a, phi_b):
        got = mz_joint_probabilities(alpha, phi_a, phi_b, AliceMode.SPLITTER_OUT)
        x = math.sin(2 * alpha) * math.sin(phi_b)
        want = ((1 + x) / 4, (1 - x) / 4, (1 + x) / 4, (1 - x) / 4)
        assert got.as_tuple() == pytest.approx(want, abs=1e-12)


class TestBobMarginals:
    def test_all_counts_in_one_detector(self):
        m = mz_bob_marginals(math.pi / 4, 0.0, math.pi / 2, AliceMode.SPLITTER_IN)
        assert m.p_b1 == pytest.approx(1.0, abs=1e-12)
        assert m.p_b0 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(AliceMode))
    @pytest.mark.parametrize("phi_b", PHIS)
    def test_flat_at_maximal_entanglement(self, mode, phi_b):
        m = mz_bob_marginals(0.0, 1.7, phi_b, mode)
        assert m.p_b1 == pytest.approx(0.5, abs=1e-12)

    def test_partial_entanglement_value(self):
        m = expected_bob_marginals(math.pi / 8, math.pi / 2)
        assert m.p_b1 == pytest.approx(0.8536, abs=5e-5)
        assert m.p_b0 == pytest.approx(0.1464, abs=5e-5)

    @pytest.mark.parametrize("mode", list(AliceMode))
    def test_marginals_free_of_alice_settings(self, mode):
        for alpha in ALPHAS:
            for phi_b in PHIS:
                want = expected_bob_marginals(alpha, phi_b)
                for phi_a in PHIS:
                    got = mz_bob_marginals(alpha, phi_a, phi_b, mode)
                    assert got.p_b1 == pytest.approx(want.p_b1, abs=1e-12)
                    assert got.p_b0 == pytest.approx(want.p_b0, abs=1e-12)

    def test_singles_visibility_tracks_entanglement(self):
        for alpha in (0.0, math.pi / 8, math.pi / 4):
            vals = [
                expected_bob_marginals(alpha, t / 100).p_b1 for t in range(629)
            ]
            vis = (max(vals) - min(vals)) / (max(vals) + min(vals))
            assert vis == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-3)

    def test_beam_stop_uses_source_side_sum(self):
        g = _bob_table(0.4, 1.1)
        by_hand_b1 = abs(complex(*g[0][0])) ** 2 + abs(complex(*g[1][0])) ** 2
        m = mz_bob_marginals(0.4, 99.0, 1.1, AliceMode.BEAM_STOP)
        assert m.p_b1 == pytest.approx(by_hand_b1, abs=1e-12)


class TestPrintedFormRegression:
    def test_printed_probabilities_do_not_normalize(self):
        # the transcribed per-outcome expressions disagree with the
        # squared amplitudes for two of the four outcomes; their sum
        # misses unity by [sin(phi_a) - sin(2 alpha)] sin(phi_b) / 2
        alpha, phi_a, phi_b = math.pi / 8, math.pi / 3, math.pi / 5
        bad = uncorrected_mz_joint_probabilities(alpha, phi_a, phi_b)
        bad_sum = sum(bad)
        deficit = (math.sin(phi_a) - math.sin(2 * alpha)) * math.sin(phi_b) / 2
        assert abs(bad_sum - 1.0) > 1e-3
        assert 1.0 - bad_sum == pytest.approx(deficit, abs=1e-12)
        good = mz_joint_probabilities(alpha, phi_a, phi_b, AliceMode.SPLITTER_IN)
        assert sum(good.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_printed_forms_agree_on_outer_outcomes(self):
        alpha, phi_a, phi_b = math.pi / 8, math.pi / 3, math.pi / 5
        bad = uncorrected_mz_joint_probabilities(alpha, phi_a, phi_b)
        good = mz_joint_probabilities(
            alpha, phi_a, phi_b, AliceMode.SPLITTER_IN
        ).as_tuple()
        assert bad[0] == pytest.approx(good[0], abs=1e-12)
        assert bad[3] == pytest.approx(good[3], abs=1e-12)
        assert abs(bad[1] - good[1]) > 1e-3
        assert abs(bad[2] - good[2]) > 1e-3


class TestConfigAndSweeps:
    def test_config_validates_mode(self):
        with pytest.raises(TypeError):
            PathConfig(0.1, 0.2, 0.3, "in")

    def test_config_canonicalizes(self):
        cfg = PathConfig(-0.1, 7.0, 0.2, AliceMode.SPLITTER_IN)
        assert cfg.alpha == pytest.approx(2 * math.pi - 0.1)
        assert cfg.phi_a == pytest.approx(7.0 - 2 * math.pi)

    def test_tiny_negative_phase_row_agrees_with_itself(self):
        # -1e-300 % 2pi rounds to 2pi; canonical 0 in every call keeps a
        # row's marginals equal to the sums of its joint probabilities
        assert PathConfig(0.3, -1e-300, 0.5).phi_a == 0.0
        marg = mz_bob_marginals(0.3, -1e-300, 0.5)
        (row,) = rows(mz_sweep([0.3], [-1e-300], [0.5]))
        assert row[8:] == marg.as_tuple()
        assert marg.p_b0 == row[5] + row[7]

    def test_sweep_schema(self):
        table = mz_sweep([0.0], [0.0], [0.0, 1.0], list(AliceMode))
        assert table.columns == (
            "alpha", "phi_a", "phi_b", "mode",
            "p_a1b1", "p_a1b0", "p_a0b1", "p_a0b0", "p_b1", "p_b0",
        )
        assert len(rows(table)) == 6
        stop_rows = [r for r in rows(table) if r[3] == "stop"]
        assert stop_rows and all(math.isnan(r[4]) for r in stop_rows)

    def test_marginal_sweep_schema(self):
        table = mz_marginal_sweep([0.0, 0.3], [0.0, 1.0, 2.0])
        assert table.columns == ("alpha", "phi_b", "p_b1", "p_b0")
        assert len(rows(table)) == 6
        for alpha, phi_b, p_b1, p_b0 in rows(table):
            want = expected_bob_marginals(alpha, phi_b)
            assert p_b1 == pytest.approx(want.p_b1, abs=1e-12)
            assert p_b0 == pytest.approx(want.p_b0, abs=1e-12)

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            mz_sweep([], [0.0], [0.0])

    def test_outcome_labels(self):
        assert PATH_OUTCOMES == ("A1B1", "A1B0", "A0B1", "A0B0")
        assert BOB_OUTCOMES == ("B1", "B0")
