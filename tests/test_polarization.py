import math

import pytest

from eprsim.polarization import (
    POLAR_OUTCOMES,
    PolarizationConfig,
    polar_bob_marginals,
    polar_joint_amplitudes,
    polar_joint_probabilities,
    polar_sweep,
    uncorrected_vh_amplitude,
)

from conftest import rows

SQRT2 = math.sqrt(2.0)

ALPHAS = [0.0, math.pi / 8, 0.3, math.pi / 4, 1.1, math.pi / 2]
THETAS = [0.0, math.pi / 8, math.pi / 4, 0.7, math.pi / 2, 2.9]


def closed_form_probabilities(alpha: float, theta: float):
    # correlated pairs carry 1 - cos(2a)cos(2t), anti-correlated 1 + cos(2a)cos(2t)
    x = math.cos(2 * alpha) * math.cos(2 * theta)
    return ((1 - x) / 4, (1 + x) / 4, (1 + x) / 4, (1 - x) / 4)


class TestAmplitudes:
    def test_fully_entangled_at_zero(self):
        hh, hv, vh, vv = polar_joint_amplitudes(0.0, 0.0)
        assert abs(hh) == pytest.approx(0.0, abs=1e-15)
        assert hv == pytest.approx(-1 / SQRT2, abs=1e-15)
        assert vh == pytest.approx(+1 / SQRT2, abs=1e-15)
        assert abs(vv) == pytest.approx(0.0, abs=1e-15)

    def test_product_state_uniform_moduli(self):
        amps = polar_joint_amplitudes(math.pi / 4, 0.0)
        for a in amps:
            assert abs(a) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_unitarity(self, alpha, theta):
        amps = polar_joint_amplitudes(alpha, theta)
        assert sum(abs(a) ** 2 for a in amps) == pytest.approx(1.0, abs=1e-12)


class TestProbabilities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_closed_form(self, alpha, theta):
        got = polar_joint_probabilities(alpha, theta).as_tuple()
        assert got == pytest.approx(closed_form_probabilities(alpha, theta), abs=1e-12)

    def test_perfect_anticorrelation_at_zero(self):
        got = polar_joint_probabilities(0.0, 0.0).as_tuple()
        assert got == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_product_state_flat_quarters(self, theta):
        got = polar_joint_probabilities(math.pi / 4, theta).as_tuple()
        assert got == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_hand_evaluated_point(self):
        # cos(pi/4)^2 = 1/2 makes the eighth-turn point exactly (1/8, 3/8)
        got = polar_joint_probabilities(math.pi / 8, math.pi / 8)
        assert got.p11 == pytest.approx(1 / 8, abs=1e-15)
        assert got.p10 == pytest.approx(3 / 8, abs=1e-15)

    def test_coincidence_visibility_tracks_entanglement(self):
        # fringe visibility of P_HV over theta equals |cos 2a|
        for alpha in (0.0, math.pi / 8, math.pi / 4):
            vals = [
                polar_joint_probabilities(alpha, t / 100).p10 for t in range(315)
            ]
            vis = (max(vals) - min(vals)) / (max(vals) + min(vals))
            assert vis == pytest.approx(abs(math.cos(2 * alpha)), abs=1e-3)


class TestBobMarginals:
    @pytest.mark.parametrize(
        ("alpha", "theta"),
        [(0.0, 1.234), (math.pi / 8, 0.0), (math.pi / 4, math.pi / 3)],
    )
    def test_flat_half(self, alpha, theta):
        m = polar_bob_marginals(alpha, theta)
        assert m.p_b1 == pytest.approx(0.5, abs=1e-12)
        assert m.p_b0 == pytest.approx(0.5, abs=1e-12)

    def test_flat_half_everywhere(self):
        worst = max(
            abs(polar_bob_marginals(a, t).p_b1 - 0.5)
            for a in ALPHAS
            for t in THETAS
        )
        assert worst <= 1e-12


class TestPrintedFormRegression:
    def test_uncorrected_amplitude_breaks_normalization(self):
        # the earlier closed form loses the sin(alpha) factor; away from
        # theta = 0 the four squared moduli then fail to sum to one
        alpha, theta = math.pi / 8, 0.7
        hh, hv, _, vv = polar_joint_amplitudes(alpha, theta)
        bad_vh = uncorrected_vh_amplitude(alpha, theta)
        bad_sum = sum(abs(a) ** 2 for a in (hh, hv, bad_vh, vv))
        expected_excess = math.cos(2 * alpha) * (1 - math.cos(2 * theta)) / 4
        assert abs(bad_sum - 1.0) > 1e-2
        assert bad_sum - 1.0 == pytest.approx(expected_excess, abs=1e-12)

    def test_uncorrected_amplitude_modulus(self):
        alpha, theta = math.pi / 8, 0.7
        bad_vh = uncorrected_vh_amplitude(alpha, theta)
        assert abs(bad_vh) ** 2 == pytest.approx(math.cos(alpha) ** 2 / 2, abs=1e-12)


class TestConfigAndSweep:
    def test_config_canonicalizes(self):
        cfg = PolarizationConfig(alpha=2 * math.pi + 0.1, theta=-0.2)
        assert cfg.alpha == pytest.approx(0.1)
        assert cfg.theta == pytest.approx(2 * math.pi - 0.2)

    def test_sweep_schema_and_content(self):
        table = polar_sweep([0.0, math.pi / 4], [0.0, math.pi / 2])
        assert table.columns == ("alpha", "theta", "p_hh", "p_hv", "p_vh", "p_vv")
        assert len(rows(table)) == 4
        first = rows(table)[0]
        assert first[:2] == (0.0, 0.0)
        assert first[2:] == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-15)

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            polar_sweep([], [0.0])

    def test_outcome_labels(self):
        assert POLAR_OUTCOMES == ("HH", "HV", "VH", "VV")
