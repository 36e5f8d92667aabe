"""Property tests over arbitrary finite settings (hypothesis, derandomized).

Each bench property is checked on both evaluation paths: Python floats
(the scalar API) and numpy arrays (what the sweeps and audits pass).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsim import pathbench, polarization
from eprsim.core import canonical_angle
from eprsim.pathbench import AliceMode, PathConfig
from eprsim.polarization import PolarizationConfig
from eprsim.sampler import CHUNK_EVENTS, SamplerSpec, sample_outcome_codes

TOL = 1e-12
ANGLES = st.floats(allow_nan=False, allow_infinity=False)
MODES = st.sampled_from(list(AliceMode))
PATHS = st.sampled_from(["floats", "arrays"])
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def on_path(path: str, *angles):
    """The angles as floats, or as arrays holding the angles and their negatives."""
    if path == "floats":
        return angles
    return tuple(np.array([a, -a, a]) for a in angles)


def off_by(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))


@PROPERTY
@given(ANGLES, ANGLES, PATHS)
def test_polar_normalized_and_flat_at_bob(alpha, theta, path):
    alpha, theta = on_path(path, alpha, theta)
    joint = polarization.polar_joint_probabilities(alpha, theta)
    p = joint.as_tuple()
    assert off_by(p[0] + p[1] + p[2] + p[3], 1.0) <= TOL
    assert min(float(np.min(x)) for x in p) >= 0.0
    bob = polarization.polar_bob_marginals(alpha, theta)
    assert off_by(bob.p_b1, 0.5) <= TOL and off_by(bob.p_b0, 0.5) <= TOL


@PROPERTY
@given(ANGLES, ANGLES, ANGLES, MODES, PATHS)
def test_mz_normalized(alpha, phi_a, phi_b, mode, path):
    alpha, phi_a, phi_b = on_path(path, alpha, phi_a, phi_b)
    bob = pathbench.mz_bob_marginals(alpha, phi_a, phi_b, mode)
    assert off_by(bob.p_b1 + bob.p_b0, 1.0) <= TOL
    if mode is not AliceMode.BEAM_STOP:
        p = pathbench.mz_joint_probabilities(alpha, phi_a, phi_b, mode).as_tuple()
        assert off_by(p[0] + p[1] + p[2] + p[3], 1.0) <= TOL
        assert min(float(np.min(x)) for x in p) >= 0.0


@PROPERTY
@given(ANGLES, ANGLES, ANGLES, ANGLES, PATHS)
def test_mz_bob_singles_ignore_alice(alpha, phi_a, other_phi_a, phi_b, path):
    """Bob's singles are the closed form at the canonical settings, whatever Alice does."""
    alpha, phi_a, other_phi_a, phi_b = on_path(path, alpha, phi_a, other_phi_a, phi_b)
    want = pathbench.expected_bob_marginals(canonical_angle(alpha), canonical_angle(phi_b))
    for mode in AliceMode:
        for setting in (phi_a, other_phi_a):
            got = pathbench.mz_bob_marginals(alpha, setting, phi_b, mode)
            assert off_by(got.p_b1, want.p_b1) <= TOL
            assert off_by(got.p_b0, want.p_b0) <= TOL


def bits(values) -> list[str]:
    """Each float's exact bits, -0.0 apart from 0.0."""
    return [float(v).hex() for v in values]


@PROPERTY
@given(ANGLES, ANGLES)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(-1e-300, 2 * math.pi)
@example(-7.5, 1e300)
def test_polar_outcomes_are_the_kernels(alpha, theta):
    """A config states the coincidence labels, the kernel's bits and its canonical settings."""
    labels, probabilities, event_settings = PolarizationConfig(alpha, theta).outcomes()
    assert labels == ("HH", "HV", "VH", "VV")
    assert bits(probabilities) == \
        bits(polarization.polar_joint_probabilities(alpha, theta).as_tuple())
    assert bits(event_settings) == bits((canonical_angle(alpha), canonical_angle(theta), 0.0))


@PROPERTY
@given(ANGLES, ANGLES, ANGLES, MODES)
@example(-0.0, 0.0, -0.0, AliceMode.SPLITTER_IN)
@example(0.0, -0.0, -0.0, AliceMode.SPLITTER_OUT)
@example(-0.0, -0.0, 0.0, AliceMode.BEAM_STOP)
@example(-1e-300, 13.0, -2 * math.pi, AliceMode.SPLITTER_IN)
@example(7.0, -1e300, 1e300, AliceMode.SPLITTER_OUT)
@example(-7.0, 9.5, -1e-300, AliceMode.BEAM_STOP)
def test_path_outcomes_are_the_kernels(alpha, phi_a, phi_b, mode):
    """The coincidences with Alice's splitter in or out; Bob's two singles alone when her
    beam is stopped."""
    labels, probabilities, event_settings = PathConfig(alpha, phi_a, phi_b, mode).outcomes()
    if mode is AliceMode.BEAM_STOP:
        want = ("B1", "B0"), pathbench.mz_bob_marginals(alpha, phi_a, phi_b, mode)
    else:
        want = ("A1B1", "A1B0", "A0B1", "A0B0"), \
            pathbench.mz_joint_probabilities(alpha, phi_a, phi_b, mode)
    assert labels == want[0]
    assert bits(probabilities) == bits(want[1].as_tuple())
    assert bits(event_settings) == bits(map(canonical_angle, (alpha, phi_a, phi_b)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.one_of(
        st.builds(PolarizationConfig, ANGLES, ANGLES),
        st.builds(PathConfig, ANGLES, ANGLES, ANGLES, MODES),
    ),
    st.integers(0, 3 * CHUNK_EVENTS + 1),
    st.integers(0, 2**32),
    st.integers(2, 4),
)
def test_sampled_stream_ignores_worker_count(config, n, seed, workers):
    spec = SamplerSpec(config, n=n, seed=seed)
    serial = sample_outcome_codes(spec, workers=1).codes
    assert len(serial) == n
    assert sample_outcome_codes(spec, workers=workers).codes.tobytes() == serial.tobytes()

