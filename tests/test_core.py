import cmath
import math
import re

import numpy as np
import pytest

import eprsim
from eprsim.core import (
    JointDistribution,
    MarginalDistribution,
    UnitarityError,
    canonical_angle,
    distribution_from_amplitudes,
    entanglement_degree,
    source_coefficients,
)

SQRT2 = math.sqrt(2.0)
# seeded angles over many periods, plus the family's landmarks
ALPHAS = np.random.default_rng(20140).uniform(-50.0, 50.0, 10_000).tolist() + [
    0.0, -0.0, math.pi / 8, math.pi / 4, math.pi / 2]


def brute_force_concurrence(alpha: float) -> float:
    # 2|ad - bc| on the complex coefficient matrix [[c11, c12], [c21, c22]]
    corr, anti = source_coefficients(alpha)
    c11, c12 = complex(corr, 0.0), complex(0.0, anti)
    c21, c22 = complex(0.0, -anti), complex(corr, 0.0)
    return 2.0 * abs(c11 * c22 - c12 * c21)


class TestSourceState:
    def test_fully_entangled_coefficients(self):
        # alpha=0 collapses to i(|12> - |21>)/sqrt(2): corr = 0, anti = 1/sqrt(2)
        corr, anti = source_coefficients(0.0)
        assert corr == pytest.approx(0.0, abs=1e-15)
        assert anti == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_product_state_coefficients(self):
        # alpha=pi/4 gives the separable (1, i, -i, 1)/2
        assert source_coefficients(math.pi / 4) == (0.5, 0.5)
        assert entanglement_degree(math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_normalized_for_any_alpha(self):
        # |c11|^2 + |c12|^2 + |c21|^2 + |c22|^2 = 2 corr^2 + 2 anti^2
        corr, anti = source_coefficients(np.array(ALPHAS))
        assert np.abs(2 * corr**2 + 2 * anti**2 - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            entanglement_degree(alpha)


class TestEntanglementDegree:
    def test_known_values(self):
        assert entanglement_degree(0.0) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_degree(math.pi / 8) == pytest.approx(0.7071, abs=5e-5)
        assert entanglement_degree(math.pi / 4) == pytest.approx(0.0, abs=1e-12)
        # alpha=pi/2 is the other fully entangled point of the family
        assert entanglement_degree(math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [i * 0.1 for i in range(16)])
    def test_matches_cos_2alpha(self, alpha):
        assert entanglement_degree(alpha) == pytest.approx(abs(math.cos(2 * alpha)), abs=1e-12)

    def test_bits_match_complex_coefficient_matrix(self):
        for alpha in ALPHAS:
            assert entanglement_degree(alpha) == brute_force_concurrence(alpha), alpha


class TestDistributionFromAmplitudes:
    def test_certain_outcome(self):
        d = distribution_from_amplitudes((1.0, 0.0, 0.0, 0.0))
        assert d.as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_equal_split(self):
        d = distribution_from_amplitudes((1 / SQRT2, 1j / SQRT2, 0.0, 0.0))
        assert d.p11 == pytest.approx(0.5, abs=1e-15)
        assert d.p10 == pytest.approx(0.5, abs=1e-15)
        assert d.p01 == 0.0 and d.p00 == 0.0

    def test_antisymmetric_pair(self):
        # hand evaluation of the fully entangled polarization amplitudes
        d = distribution_from_amplitudes((0.0, -1 / SQRT2, 1 / SQRT2, 0.0))
        assert d.as_tuple() == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-15)

    def test_global_phase_invariance(self):
        amps = (0.1 + 0.2j, 0.3 - 0.1j, 0.5j, math.sqrt(1 - 0.4))
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        amps = tuple(a / norm for a in amps)
        rotated = tuple(a * cmath.exp(0.7j) for a in amps)
        a = distribution_from_amplitudes(amps)
        b = distribution_from_amplitudes(rotated)
        assert a.as_tuple() == pytest.approx(b.as_tuple(), abs=1e-15)

    @pytest.mark.parametrize("count", [3, 5])
    def test_rejects_other_than_four_amplitudes(self, count):
        with pytest.raises(ValueError, match=f"^expected 4 amplitudes, got {count}$"):
            distribution_from_amplitudes((0.5,) * count)

    def test_unitarity_violation_carries_deficit(self):
        with pytest.raises(UnitarityError) as info:
            distribution_from_amplitudes((0.5, 0.0, 0.0, 0.0))
        assert info.value.deficit == pytest.approx(-0.75, abs=1e-12)


class TestDistributionTypes:
    def test_joint_validates_sum(self):
        with pytest.raises(ValueError):
            JointDistribution(0.5, 0.5, 0.5, 0.5)

    def test_joint_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(-0.1, 0.6, 0.25, 0.25)

    def test_marginals(self):
        d = JointDistribution(0.1, 0.2, 0.3, 0.4)
        bob = d.bob_marginal()
        assert bob.p_b1 == pytest.approx(0.4, abs=1e-15)
        assert bob.p_b0 == pytest.approx(0.6, abs=1e-15)
        alice = d.alice_marginal()
        assert alice.p_b1 == pytest.approx(0.3, abs=1e-15)
        assert alice.p_b0 == pytest.approx(0.7, abs=1e-15)

    def test_marginal_validates_sum(self):
        with pytest.raises(ValueError):
            MarginalDistribution(0.7, 0.7)

    @pytest.mark.parametrize("p_b1", [math.nan, math.inf, -math.inf])
    def test_marginal_rejects_non_finite_float(self, p_b1):
        with pytest.raises(ValueError, match="marginal probabilities sum to"):
            MarginalDistribution(p_b1, 0.5)

    def test_marginal_rejects_nan_in_array(self):
        with pytest.raises(ValueError, match="sum to nan"):
            MarginalDistribution(np.array([0.5, math.nan, 0.25]), np.array([0.5, 0.5, 0.75]))
        MarginalDistribution(np.array([0.5, 0.25]), np.array([0.5, 0.75]))


class TestCanonicalAngle:
    def test_wraps_into_period(self):
        assert canonical_angle(2 * math.pi + 0.25, "x") == pytest.approx(0.25)
        assert canonical_angle(-0.25, "x") == pytest.approx(2 * math.pi - 0.25)
        assert canonical_angle(0.0, "x") == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="x"):
            canonical_angle(math.inf, "x")
        with pytest.raises(ValueError, match="x must be finite, got nan"):
            canonical_angle(np.array([0.0, math.nan]), "x")

    @pytest.mark.parametrize("value", ["1", None, True, np.True_, 1j])
    def test_rejects_a_non_number(self, value):
        message = f"^x must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            canonical_angle(value, "x")

    def test_numpy_floats_and_ints_pass(self):
        assert canonical_angle(np.float32(0.5), "x") == 0.5
        assert canonical_angle(np.int64(1), "x") == 1.0

    @pytest.mark.parametrize("tiny", [-1e-300, -1e-17, -5e-324])
    def test_tiny_negative_angle_is_zero_not_two_pi(self, tiny):
        # tiny % 2pi rounds up to 2pi itself, outside [0, 2pi)
        assert canonical_angle(tiny) == 0.0
        assert canonical_angle(np.array([tiny, 1.0])).tolist() == [0.0, 1.0]
        assert canonical_angle(canonical_angle(tiny)) == canonical_angle(tiny)

    def test_arrays_match_floats(self):
        values = [-20.0, -0.25, 0.0, 1.0, 2 * math.pi, 7.5, 1e300]
        assert canonical_angle(np.array(values)).tolist() == [canonical_angle(v) for v in values]


def test_exports_resolve_once():
    assert len(set(eprsim.__all__)) == len(eprsim.__all__)
    assert [name for name in eprsim.__all__ if not hasattr(eprsim, name)] == []
