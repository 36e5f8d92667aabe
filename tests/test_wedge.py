import itertools
import math

import numpy as np
import pytest

from eprsim.pathbench import expected_bob_marginals
from eprsim.wedge import (
    BeamProfile,
    SamplingError,
    WedgeGeometry,
    detector_grid,
    fresnel_propagate,
    _bob_singles,
    _propagated_fields,
    integrate_detector,
    joint_densities_at_detector,
    signal_difference_map,
    truncated_aperture_field,
    wedge_bob_singles,
    wedge_profile_table,
)

from conftest import rows

SIGMA = 3e-4

# shared small geometries; repeated construction hits the propagation cache
SMALL = dict(beam_sigma=SIGMA, samples_aperture=2049, samples_detector=8193)
TRUNCATED = WedgeGeometry(**SMALL)
# default tilt steers the off-axis beam back to the detector center,
# keeping its tails clear of the detector window edges
UNTRUNCATED = WedgeGeometry(aperture_halfwidth=math.inf, **SMALL)


def gaussian_tail(t: float) -> float:
    # upper-tail mass of a unit normal
    return math.erfc(t / math.sqrt(2.0)) / 2.0


def significant_maxima(values: np.ndarray, frac: float = 1e-5) -> int:
    y = np.asarray(values)
    m = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] > frac * y.max())
    return int(m.sum())


class TestGeometry:
    def test_defaults(self):
        g = WedgeGeometry()
        assert g.wavelength == pytest.approx(810e-9)
        assert g.beam_sigma == pytest.approx(1e-3)
        assert g.propagation_distance == pytest.approx(1.0)
        assert g.aperture_halfwidth == pytest.approx(10 * g.beam_sigma)
        assert g.apex_offset == pytest.approx(g.aperture_halfwidth / 2)
        assert g.detector_halfwidth == pytest.approx(12 * g.beam_sigma)
        assert g.tilt_angle == pytest.approx(g.apex_offset / g.propagation_distance)
        assert g.samples_aperture == 4097
        assert g.samples_detector == 16385
        assert g.truncated

    def test_untruncated_defaults(self):
        g = WedgeGeometry(aperture_halfwidth=math.inf)
        assert not g.truncated
        assert g.apex_offset == pytest.approx(6 * g.beam_sigma)

    def test_sample_counts_rounded_to_quadrature_friendly_values(self):
        g = WedgeGeometry(samples_aperture=100, samples_detector=100)
        assert g.samples_aperture % 2 == 1
        assert (g.samples_detector - 1) % 4 == 0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(beam_sigma=-1e-3),
            dict(aperture_halfwidth=4 * 1e-3),  # face must clear 5 sigma
            dict(apex_offset=2e-2),  # outside the face
            dict(apex_offset=0.0),
            dict(aperture_halfwidth=math.inf, apex_offset=math.inf),
            dict(samples_aperture=10),
            dict(propagation_distance=-1.0),
            dict(tilt_angle=math.nan),
            dict(wavelength=math.inf),
            dict(propagation_distance=math.inf),
            dict(detector_halfwidth=math.inf),
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            WedgeGeometry(**bad)

    def test_hashable_for_caching(self):
        assert hash(WedgeGeometry()) == hash(WedgeGeometry())


class TestApertureFields:
    def test_truncation_loss_matches_clipped_tails(self):
        # beam sits mid-face, so each side clips half the face width away
        prof = truncated_aperture_field(TRUNCATED, path=1)
        halfwidth_sigmas = TRUNCATED.aperture_halfwidth / TRUNCATED.beam_sigma
        expected_loss = 2 * gaussian_tail(halfwidth_sigmas / 2)
        assert 1.0 - prof.norm_sq() == pytest.approx(expected_loss, rel=1e-3)

    def test_untruncated_norm_is_one(self):
        prof = truncated_aperture_field(UNTRUNCATED, path=1)
        assert prof.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_paths_are_mirror_images(self):
        p1 = truncated_aperture_field(TRUNCATED, path=1)
        p2 = truncated_aperture_field(TRUNCATED, path=2)
        assert p2.grid == pytest.approx(-p1.grid[::-1])
        assert np.abs(p2.field) == pytest.approx(np.abs(p1.field[::-1]))

    def test_support_respects_apex(self):
        p1 = truncated_aperture_field(TRUNCATED, path=1)
        p2 = truncated_aperture_field(TRUNCATED, path=2)
        assert p1.grid[0] >= 0.0
        assert p2.grid[-1] <= 0.0

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            truncated_aperture_field(TRUNCATED, path=3)


class TestBeamProfileValidation:
    def test_rejects_non_uniform_grid(self):
        grid = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            BeamProfile(grid=grid, field=np.zeros(3, dtype=complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BeamProfile(grid=np.linspace(0, 1, 4), field=np.zeros(3, dtype=complex))

    def test_rejects_overnormalized_field(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(ValueError):
            BeamProfile(grid=grid, field=np.ones(101, dtype=complex))

    def test_rejects_even_sample_count(self):
        # the norm is a Simpson sum, which needs an odd number of samples
        with pytest.raises(ValueError, match="odd number of samples"):
            BeamProfile(grid=np.linspace(-1, 1, 100), field=np.zeros(100, dtype=complex))

    def test_arrays_frozen(self):
        prof = truncated_aperture_field(TRUNCATED, path=1)
        with pytest.raises(ValueError):
            prof.field[0] = 1.0


class TestFresnelPropagation:
    def test_zero_distance_is_identity(self):
        geom = WedgeGeometry(propagation_distance=0.0, tilt_angle=0.0, **SMALL)
        prof = truncated_aperture_field(geom, path=1)
        out = fresnel_propagate(prof, geom, tilt=0.0)
        assert out.grid == pytest.approx(prof.grid, abs=1e-15)
        np.testing.assert_allclose(out.field, prof.field, atol=1e-12)

    def test_energy_conservation(self):
        prof = truncated_aperture_field(TRUNCATED, path=1)
        out = fresnel_propagate(prof, TRUNCATED, tilt=-TRUNCATED.tilt_angle)
        assert out.norm_sq() == pytest.approx(prof.norm_sq(), abs=1e-6)

    def test_free_space_gaussian_spreading(self):
        # second moment of the diffracted intensity against the closed form
        out = fresnel_propagate(
            truncated_aperture_field(UNTRUNCATED, path=1),
            UNTRUNCATED,
            tilt=-UNTRUNCATED.tilt_angle,
        )
        x, w = out.grid, np.abs(out.field) ** 2
        w = w / np.trapezoid(w, x)
        mu = np.trapezoid(x * w, x)
        measured = math.sqrt(np.trapezoid((x - mu) ** 2 * w, x))
        s0 = UNTRUNCATED.beam_sigma
        zr = UNTRUNCATED.wavelength * UNTRUNCATED.propagation_distance
        expected = s0 * math.sqrt(1.0 + (zr / (4 * math.pi * s0**2)) ** 2)
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_beam_center_steered_by_tilt(self):
        out = fresnel_propagate(
            truncated_aperture_field(TRUNCATED, path=1),
            TRUNCATED,
            tilt=-TRUNCATED.tilt_angle,
        )
        w = np.abs(out.field) ** 2
        center = float(out.grid[np.argmax(w)])
        # apex_offset upstream, steered back onto the axis
        assert abs(center) < 3 * out.spacing

    def test_truncated_beam_shows_edge_oscillations(self):
        out = fresnel_propagate(
            truncated_aperture_field(TRUNCATED, path=1),
            TRUNCATED,
            tilt=-TRUNCATED.tilt_angle,
        )
        assert significant_maxima(np.abs(out.field)) >= 5

    def test_untruncated_beam_stays_single_peaked(self):
        out = fresnel_propagate(
            truncated_aperture_field(UNTRUNCATED, path=1),
            UNTRUNCATED,
            tilt=-UNTRUNCATED.tilt_angle,
        )
        assert significant_maxima(np.abs(out.field)) == 1

    def test_undersampled_aperture_raises(self):
        geom = WedgeGeometry(samples_aperture=65)
        prof = truncated_aperture_field(geom, path=1)
        with pytest.raises(SamplingError) as info:
            fresnel_propagate(prof, geom, tilt=-geom.tilt_angle)
        assert info.value.required_samples > geom.samples_aperture
        assert str(info.value.required_samples) in str(info.value)


class TestDetectorQuadrature:
    def test_constant_density(self):
        geom = WedgeGeometry(tilt_angle=0.0, **SMALL)
        result = integrate_detector(np.ones(geom.samples_detector), geom)
        assert result.value == pytest.approx(2 * geom.detector_halfwidth, rel=1e-12)

    def test_gaussian_density(self):
        geom = WedgeGeometry(tilt_angle=0.0, **SMALL)
        x = detector_grid(geom)
        s = geom.beam_sigma
        result = integrate_detector(np.exp(-(x**2) / (2 * s * s)), geom)
        # detector spans 12 sigma each way; clipped mass is ~1e-33
        assert result.value == pytest.approx(s * math.sqrt(2 * math.pi), rel=1e-10)
        assert result.error_estimate < 1e-10 * result.value

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            integrate_detector(np.ones(5), TRUNCATED)

    def test_under_resolved_fringes_raise(self):
        geom = WedgeGeometry(beam_sigma=SIGMA, samples_aperture=2049,
                             samples_detector=257)
        with pytest.raises(SamplingError) as info:
            integrate_detector(np.ones(geom.samples_detector), geom)
        assert info.value.required_samples > geom.samples_detector


class TestJointDensities:
    def test_complementary_fringes_when_fully_entangled(self):
        d1, d0 = joint_densities_at_detector(0.0, 0.0, 0.0, TRUNCATED)
        x = detector_grid(TRUNCATED)
        assert significant_maxima(d1) > 10
        assert significant_maxima(d0) > 10
        # peaks of one outcome fall between peaks of the other
        def central_peaks(d):
            idx = np.where((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]))[0] + 1
            return idx[np.abs(x[idx]) < 4 * SIGMA]

        p1, p0 = central_peaks(d1), central_peaks(d0)
        order = np.argsort(np.concatenate([p1, p0]))
        labels = np.concatenate([np.zeros(len(p1)), np.ones(len(p0))])[order]
        assert np.all(labels[1:] != labels[:-1])

    def test_outcome_fringes_cancel_in_the_sum(self):
        # the two patterns complement each other: their sum is just the
        # (truncation-rippled) beam intensities with no interference term
        d1, d0 = joint_densities_at_detector(0.0, 1.234, 0.0, TRUNCATED)
        f1, f2 = _propagated_fields(TRUNCATED)
        envelope = (np.abs(f1.field) ** 2 + np.abs(f2.field) ** 2) / 2
        np.testing.assert_allclose(d1 + d0, envelope, atol=1e-9)

    def test_completeness(self):
        d1, d0 = joint_densities_at_detector(0.3, 0.7, 1.1, TRUNCATED)
        total = integrate_detector(d1 + d0, TRUNCATED).value
        loss = 1.0 - truncated_aperture_field(TRUNCATED, path=1).norm_sq()
        assert total == pytest.approx(1.0 - loss, abs=1e-6)


def integrated_densities(alpha, phi_a, phi_b, geom):
    """Bob's singles the direct way: each outcome's density, integrated."""
    return [integrate_detector(d, geom)
            for d in joint_densities_at_detector(alpha, phi_a, phi_b, geom)]


def overlap_modulus(geom):
    """|O|, the integrated overlap F1 F2* of the two propagated beams."""
    f1, f2 = (f.field for f in _propagated_fields(geom))
    o = f1 * f2.conj()
    return abs(complex(integrate_detector(o.real, geom).value,
                       integrate_detector(o.imag, geom).value))


@pytest.mark.parametrize("geom", [TRUNCATED, UNTRUNCATED], ids=["truncated", "untruncated"])
class TestOverlapKernel:
    ALPHAS = np.linspace(0.0, math.pi / 2, 7)
    PHI_B = np.linspace(0.0, 2 * math.pi, 7)
    PHI_A = np.array([0.0, 1.0, math.pi / 2])

    def test_matches_integrated_densities(self, geom):
        # the kernel combines four integrals where the densities integrate
        # each cell's own sum, so the two differ by rounding only
        for alpha in self.ALPHAS:
            values, errors = _bob_singles(alpha, self.PHI_A, self.PHI_B[:, None], geom)
            for (i, phi_b), (k, phi_a) in itertools.product(enumerate(self.PHI_B),
                                                            enumerate(self.PHI_A)):
                cell = integrated_densities(alpha, phi_a, phi_b, geom)
                for j, q in enumerate(cell):
                    assert abs(values[j][i, k] - q.value) < 2e-15
                    assert abs(errors[j][i, k] - q.error_estimate) < 1e-16
                # a float setting gives the bits of its array element
                point = np.array(_bob_singles(alpha, phi_a, phi_b, geom))
                element = np.array([[v[i, k] for v in part] for part in (values, errors)])
                assert point.tobytes() == element.tobytes()

    def test_alice_phase_reaches_bob_only_through_the_overlap(self, geom):
        # P_Bj moves with phi_a by 2 Re(e^{i phi_a} g1j g2j* O) alone, and
        # |g1j||g2j| <= 1/2, so over any phi_a grid it spans at most 2|O|
        bound = 2 * overlap_modulus(geom) + 1e-15
        phi_a = np.linspace(0.0, 2 * math.pi, 25)
        for alpha, phi_b in itertools.product(self.ALPHAS, self.PHI_B):
            for j in range(2):
                singles = [integrated_densities(alpha, a, phi_b, geom)[j].value for a in phi_a]
                assert max(singles) - min(singles) <= bound


class TestIntegratedSingles:
    def test_matches_closed_form_marginals(self):
        for alpha, phi_b in [(0.0, 0.3), (math.pi / 8, 1.0), (0.4, 2.2)]:
            b1, b0 = wedge_bob_singles(alpha, 0.0, phi_b, TRUNCATED)
            want = expected_bob_marginals(alpha, phi_b)
            assert b1.value == pytest.approx(want.p_b1, abs=2e-6)
            assert b0.value == pytest.approx(want.p_b0, abs=2e-6)

    def test_independent_of_alice_phase(self):
        base = wedge_bob_singles(math.pi / 8, 0.0, 1.0, TRUNCATED)
        moved = wedge_bob_singles(math.pi / 8, math.pi / 2, 1.0, TRUNCATED)
        assert base[0].value == pytest.approx(moved[0].value, abs=1e-6)
        assert base[1].value == pytest.approx(moved[1].value, abs=1e-6)

    def test_overlapped_untilted_limit_recovers_closed_form(self):
        geom = WedgeGeometry(
            aperture_halfwidth=math.inf,
            tilt_angle=0.0,
            apex_offset=1e-12,
            **SMALL,
        )
        for phi_b in (0.0, 0.7, math.pi / 2, 2.5):
            b1, _ = wedge_bob_singles(math.pi / 4, 0.0, phi_b, geom)
            want = expected_bob_marginals(math.pi / 4, phi_b)
            assert b1.value == pytest.approx(want.p_b1, abs=1e-6)


class TestDifferenceMap:
    def test_schema_and_magnitudes(self):
        table = signal_difference_map([0.0, 0.4], [0.5, 1.5], 0.0, TRUNCATED)
        assert table.columns == (
            "alpha", "phi_b", "diff_b1", "diff_b0", "err_b1", "err_b0"
        )
        assert len(rows(table)) == 4
        loss = 2 * gaussian_tail(5.0)
        for row in rows(table):
            assert abs(row[2]) < 10 * loss
            assert abs(row[3]) < 10 * loss

    def test_profile_table_schema(self):
        table = wedge_profile_table(0.0, 0.0, 0.0, TRUNCATED)
        assert table.columns == ("x", "mag_a1", "mag_a2", "density_b1", "density_b0")
        assert len(rows(table)) == TRUNCATED.samples_detector
