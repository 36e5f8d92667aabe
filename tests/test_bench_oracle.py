"""Bit-for-bit oracle for the polar and mz bench amplitudes.

``Frozen`` below is a copy of the scalar amplitude code as it stood
before each bench's amplitudes were written once for floats and arrays
alike: complex arithmetic in ``complex`` objects, one setting per call.
Every float the benches compute now, through the scalar API (floats)
and through the array callers (numpy arrays), must equal it bit for bit,
over both benches, all three Alice modes, and angles outside [0, 2*pi).

The frozen copy wraps each float that meets a complex number in
``complex(x, 0.0)``, and sums four weights left to right, which is what
the original code did on the CPython versions it ran on (mixed
float/complex arithmetic and ``sum`` of floats change in later
versions).
"""

import cmath
import math

import numpy as np
import pytest

from eprsim import pathbench, polarization
from eprsim.core import canonical_angle
from eprsim.pathbench import AliceMode

from conftest import rows

SQRT2 = math.sqrt(2.0)
RNG_ANGLES = np.random.default_rng(20261018).uniform(-10.0, 10.0, size=(600, 3))
# multiples of pi/16 over [-pi, 3pi], and of pi/8 over [-pi, pi]
SIXTEENTHS = [k * (math.pi / 16) for k in range(-16, 49)]
EIGHTHS = [k * (math.pi / 8) for k in range(-8, 9)]
MODES = {"in": AliceMode.SPLITTER_IN, "out": AliceMode.SPLITTER_OUT, "stop": AliceMode.BEAM_STOP}


class Frozen:
    """The scalar amplitude code before the rewrite, kept as the oracle."""

    @staticmethod
    def canonical(value):
        if not math.isfinite(value):
            raise ValueError(value)
        return float(value) % (2.0 * math.pi)

    @staticmethod
    def polar_amplitudes(alpha, theta):
        alpha, theta = Frozen.canonical(alpha), Frozen.canonical(theta)
        ca, sa = math.cos(alpha), math.sin(alpha)
        ct, st = math.cos(theta), math.sin(theta)
        d = complex(SQRT2, 0.0)
        return (complex(-sa * ct, ca * st) / d, complex(-ca * ct, sa * st) / d,
                complex(ca * ct, -sa * st) / d, complex(sa * ct, -ca * st) / d)

    @staticmethod
    def splitter_rows(phi):
        ph = cmath.exp(complex(0.0, phi))
        d = complex(SQRT2, 0.0)
        return ((ph / d, complex(1.0 / SQRT2, 0.0)), (-1j * ph / d, 1j / d))

    @staticmethod
    def bob_amplitudes(alpha, phi_b):
        b = float(alpha) - math.pi / 4.0
        corr = (math.cos(b) + math.sin(b)) / 2.0
        anti = (math.cos(b) - math.sin(b)) / 2.0
        c11, c12 = complex(corr, 0.0), complex(0.0, anti)
        c21, c22 = complex(0.0, -anti), complex(corr, 0.0)
        u = Frozen.splitter_rows(Frozen.canonical(phi_b))
        return ((c11 * u[0][0] + c12 * u[0][1], c11 * u[1][0] + c12 * u[1][1]),
                (c21 * u[0][0] + c22 * u[0][1], c21 * u[1][0] + c22 * u[1][1]))

    @staticmethod
    def mz_amplitudes(alpha, phi_a, phi_b, mode):
        alpha, phi_a, phi_b = map(Frozen.canonical, (alpha, phi_a, phi_b))
        g = Frozen.bob_amplitudes(alpha, phi_b)
        if mode == "in":
            u = Frozen.splitter_rows(phi_a)
        else:
            ph = cmath.exp(complex(0.0, phi_a))
            u = ((complex(0.0, 0.0), complex(1.0, 0.0)), (-1j * ph, complex(0.0, 0.0)))
        return tuple(u[i][0] * g[0][j] + u[i][1] * g[1][j] for i in (0, 1) for j in (0, 1))

    @staticmethod
    def probabilities(amplitudes):
        w = [abs(a) ** 2 for a in amplitudes]
        total = w[0] + w[1] + w[2] + w[3]
        return tuple(x / total for x in w)

    @staticmethod
    def mz_marginals(alpha, phi_a, phi_b, mode):
        if mode == "stop":
            g = Frozen.bob_amplitudes(Frozen.canonical(alpha), phi_b)
            p_b1 = abs(g[0][0]) ** 2 + abs(g[1][0]) ** 2
            p_b0 = abs(g[0][1]) ** 2 + abs(g[1][1]) ** 2
            total = p_b1 + p_b0
            return (p_b1 / total, p_b0 / total)
        p11, p10, p01, p00 = Frozen.probabilities(Frozen.mz_amplitudes(alpha, phi_a, phi_b, mode))
        return (p11 + p01, p10 + p00)


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of a nest of floats (complex numbers split in two)."""
    flat = np.asarray(values)
    if np.iscomplexobj(flat):
        flat = np.stack([flat.real, flat.imag], axis=-1)
    return np.ascontiguousarray(flat, dtype=float).view(np.int64)


def pairs_bits(pairs) -> np.ndarray:
    """Bit patterns of (real, imaginary) pairs of arrays, laid out as ``bits`` lays out complex."""
    return bits(np.stack([np.stack([re, im], axis=-1) for re, im in pairs], axis=-2))


def polar_points():
    grid = [(a, t) for a in SIXTEENTHS for t in SIXTEENTHS]
    return np.array(grid + [tuple(p) for p in RNG_ANGLES[:, :2]])


def mz_points():
    grid = [(a, pa, pb) for a in EIGHTHS for pa in SIXTEENTHS[::2] for pb in SIXTEENTHS[::2]]
    return np.array(grid + [tuple(p) for p in RNG_ANGLES])


class TestPolarOracle:
    def test_scalar_and_array_paths_match_frozen_bits(self):
        points = polar_points()
        scalar = [(a, t) for a, t in points.tolist()]
        frozen_amps = [Frozen.polar_amplitudes(a, t) for a, t in scalar]
        frozen_probs = [Frozen.probabilities(amps) for amps in frozen_amps]
        frozen_bob = [(p[0] + p[2], p[1] + p[3]) for p in frozen_probs]

        amps = [polarization.polar_joint_amplitudes(a, t) for a, t in scalar]
        probs = [polarization.polar_joint_probabilities(a, t).as_tuple() for a, t in scalar]
        bob = [polarization.polar_bob_marginals(a, t).as_tuple() for a, t in scalar]
        assert np.array_equal(bits(amps), bits(frozen_amps))
        assert np.array_equal(bits(probs), bits(frozen_probs))
        assert np.array_equal(bits(bob), bits(frozen_bob))

        alpha, theta = points[:, 0], points[:, 1]
        array_amps = pairs_bits(polarization._amplitudes(alpha, theta))
        array_probs = np.stack(polarization.polar_joint_probabilities(alpha, theta).as_tuple(), -1)
        array_bob = np.stack(polarization.polar_bob_marginals(alpha, theta).as_tuple(), -1)
        assert np.array_equal(array_amps, bits(frozen_amps))
        # each array element equals the matching scalar call
        assert np.array_equal(bits(array_probs), bits(probs))
        assert np.array_equal(bits(array_bob), bits(bob))


@pytest.mark.parametrize("mode", ["in", "out", "stop"])
class TestMzOracle:
    def test_scalar_and_array_paths_match_frozen_bits(self, mode):
        points = mz_points()
        scalar = [tuple(p) for p in points.tolist()]
        bench_mode = MODES[mode]
        frozen_bob = [Frozen.mz_marginals(*p, mode) for p in scalar]
        bob = [pathbench.mz_bob_marginals(*p, bench_mode).as_tuple() for p in scalar]
        assert np.array_equal(bits(bob), bits(frozen_bob))

        alpha, phi_a, phi_b = points.T
        array_bob = np.stack(pathbench.mz_bob_marginals(alpha, phi_a, phi_b, bench_mode)
                             .as_tuple(), -1)
        assert np.array_equal(bits(array_bob), bits(bob))

        canonical = [canonical_angle(x) for x in (alpha, phi_a, phi_b)]
        g, array_amps = pathbench._amplitudes(*canonical, bench_mode)
        frozen_g = [Frozen.bob_amplitudes(Frozen.canonical(a), pb) for a, _, pb in scalar]
        assert np.array_equal(pairs_bits(g[0] + g[1]),
                              bits([row[0] + row[1] for row in frozen_g]))
        if mode == "stop":
            with pytest.raises(ValueError, match="BEAM_STOP"):
                pathbench.mz_joint_probabilities(*scalar[0], bench_mode)
            assert array_amps is None
            return

        frozen_amps = [Frozen.mz_amplitudes(*p, mode) for p in scalar]
        frozen_probs = [Frozen.probabilities(amps) for amps in frozen_amps]
        amps = [pathbench.mz_joint_amplitudes(*p, bench_mode) for p in scalar]
        probs = [pathbench.mz_joint_probabilities(*p, bench_mode).as_tuple() for p in scalar]
        assert np.array_equal(bits(amps), bits(frozen_amps))
        assert np.array_equal(bits(probs), bits(frozen_probs))

        assert np.array_equal(pairs_bits(array_amps), bits(frozen_amps))
        array_probs = np.stack(pathbench.mz_joint_probabilities(alpha, phi_a, phi_b, bench_mode)
                               .as_tuple(), -1)
        assert np.array_equal(bits(array_probs), bits(probs))


def test_bob_outcome_amplitudes_keep_alpha_as_given():
    # the wedge bench passes alpha uncanonicalized; only phi_b is reduced
    for alpha, _, phi_b in RNG_ANGLES.tolist():
        assert bits(pathbench.bob_outcome_amplitudes(alpha, phi_b)).tolist() == \
            bits(Frozen.bob_amplitudes(alpha, phi_b)).tolist()


def test_sweeps_equal_scalar_calls():
    alphas, phis = EIGHTHS[::3], SIXTEENTHS[::7]
    modes = list(AliceMode)
    mz = rows(pathbench.mz_sweep(alphas, phis, phis, modes))
    want = []
    for a in alphas:
        for pa in phis:
            for pb in phis:
                for mode in modes:
                    joint = ((math.nan,) * 4 if mode is AliceMode.BEAM_STOP
                             else pathbench.mz_joint_probabilities(a, pa, pb, mode).as_tuple())
                    marg = pathbench.mz_bob_marginals(a, pa, pb, mode).as_tuple()
                    want.append((a, pa, pb, mode.value) + joint + marg)
    assert len(mz) == len(want)
    for got, expect in zip(mz, want):
        assert got[3] == expect[3]
        assert bits(got[:3] + got[4:]).tolist() == bits(expect[:3] + expect[4:]).tolist()

    polar = rows(polarization.polar_sweep(alphas, phis))
    assert [bits(r).tolist() for r in polar] == [
        bits((a, t) + polarization.polar_joint_probabilities(a, t).as_tuple()).tolist()
        for a in alphas for t in phis]
    marginal = rows(pathbench.mz_marginal_sweep(alphas, phis))
    assert [bits(r).tolist() for r in marginal] == [
        bits((a, pb) + pathbench.mz_bob_marginals(a, 0.0, pb).as_tuple()).tolist()
        for a in alphas for pb in phis]
