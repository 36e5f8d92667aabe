"""Path bench: each photon enters a two-path interferometer.

The source emits one photon toward Alice and one toward Bob, each in a
superposition of two paths (coefficients from ``source_coefficients`` in the
path basis).  Each arm carries a phase shifter on path 1 (phi_a on Alice's
side, phi_b on Bob's) followed by a 50/50 recombining splitter feeding two
detectors.  The splitter convention puts the i on reflection; with the
detector-1 row listed first, the single-photon transfer of one arm is

    U(phi) = 1/sqrt(2) * [[ e^{i phi},  1 ],
                          [-i e^{i phi}, i ]]

Alice's arm can be reconfigured without telling Bob:

* SPLITTER_IN   - recombiner in place, interference visible on her side;
* SPLITTER_OUT  - recombiner removed, her detectors watch the raw paths
                  (detector A1 sees path 2, detector A0 sees path 1);
* BEAM_STOP     - her photon is intercepted before the interferometer.

Whatever she does, Bob's non-coincident singles stay

    P_B1 = [1 + sin(2 alpha) sin(phi_b)] / 2
    P_B0 = [1 - sin(2 alpha) sin(phi_b)] / 2

which is the no-signaling statement this package exists to check.  Its
probabilities take floats or numpy arrays of settings alike, with equal bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    JointDistribution,
    MarginalDistribution,
    array_namespace,
    c_dot,
    canonical_angle,
    joint_distribution,
    moduli_squared,
    source_coefficients,
)
from .output import NoSignalReport, Table, grid_audit, grid_axes, grid_table

SQRT2 = math.sqrt(2.0)

#: Coincidence outcome labels, Alice's detector first.
PATH_OUTCOMES = ("A1B1", "A1B0", "A0B1", "A0B0")

#: Bob-only outcome labels used when Alice's photon is stopped.
BOB_OUTCOMES = ("B1", "B0")


class AliceMode(enum.Enum):
    """Configuration of Alice's side of the bench."""

    SPLITTER_IN = "in"
    SPLITTER_OUT = "out"
    BEAM_STOP = "stop"


def _check_mode(mode, joint: bool = False) -> AliceMode:
    if not isinstance(mode, AliceMode):
        raise TypeError(f"mode must be an AliceMode, got {mode!r}")
    if joint and mode is AliceMode.BEAM_STOP:
        raise ValueError("Alice has no detectors in BEAM_STOP mode; no joint amplitudes")
    return mode


@dataclass(frozen=True)
class PathConfig:
    """Bench settings; angles are canonicalized into [0, 2*pi)."""

    alpha: float
    phi_a: float
    phi_b: float
    mode: AliceMode = AliceMode.SPLITTER_IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", canonical_angle(self.alpha, "alpha"))
        object.__setattr__(self, "phi_a", canonical_angle(self.phi_a, "phi_a"))
        object.__setattr__(self, "phi_b", canonical_angle(self.phi_b, "phi_b"))
        _check_mode(self.mode)

    def outcomes(self) -> tuple[tuple[str, ...], tuple[float, ...], tuple[float, float, float]]:
        """The outcome labels, their probabilities and the event settings (alpha, phi_a, phi_b):
        the coincidences, or Bob's singles alone when Alice's beam is stopped."""
        joint, bob = _probabilities(self.alpha, self.phi_a, self.phi_b, self.mode)
        labels, dist = (BOB_OUTCOMES, bob) if joint is None else (PATH_OUTCOMES, joint)
        return labels, dist.as_tuple(), (self.alpha, self.phi_a, self.phi_b)


def _arm(phi, xp, splitter: bool):
    """One arm's rows (det1, det0) over (path 1, path 2): the phase shifter on
    path 1, then the 50/50 splitter; without it, det1 sees path 2 and det0 path 1
    through the shifter (mirror phase -i).  As cos phi != 0 and sin phi is +0.0
    or nonzero, the pairs have the bits of CPython's complex results."""
    c, s = xp.cos(phi), xp.sin(phi)
    if not splitter:
        return ((0.0, 0.0), (1.0, 0.0)), ((s, -c), (0.0, 0.0))
    return ((c / SQRT2, s / SQRT2), (1 / SQRT2, 0.0)), ((s / SQRT2, -c / SQRT2), (0.0, 1 / SQRT2))


def _amplitudes(alpha, phi_a, phi_b, mode: AliceMode):
    """Bob's table g[k][j] (Alice's path k+1, Bob's detector (B1, B0)[j]) and the
    coincidence amplitudes (A1B1, A1B0, A0B1, A0B0), None in BEAM_STOP, as pairs."""
    xp = array_namespace(alpha, phi_a, phi_b)
    corr, anti = source_coefficients(alpha)
    c11, c12, c21, c22 = (corr, 0.0), (0.0, anti), (0.0, -anti), (corr, 0.0)
    (u11, u12), (u01, u02) = _arm(phi_b, xp, True)
    g = ((c_dot(c11, u11, c12, u12), c_dot(c11, u01, c12, u02)),
         (c_dot(c21, u11, c22, u12), c_dot(c21, u01, c22, u02)))
    if _check_mode(mode) is AliceMode.BEAM_STOP:
        return g, None
    (v11, v12), (v01, v02) = _arm(phi_a, xp, mode is AliceMode.SPLITTER_IN)
    (g11, g10), (g21, g20) = g
    return g, (c_dot(v11, g11, v12, g21), c_dot(v11, g10, v12, g20),
               c_dot(v01, g11, v02, g21), c_dot(v01, g10, v02, g20))


def _probabilities(alpha, phi_a, phi_b, mode: AliceMode):
    """Joint distribution (None in BEAM_STOP: Bob's singles then sum |g|^2 over
    Alice's paths) and Bob's singles."""
    g, amplitudes = _amplitudes(canonical_angle(alpha, "alpha"), canonical_angle(phi_a, "phi_a"),
                                canonical_angle(phi_b, "phi_b"), mode)
    if amplitudes is None:
        w11, w10, w21, w20 = moduli_squared(g[0] + g[1])
        p_b1, p_b0 = w11 + w21, w10 + w20
        return None, MarginalDistribution(p_b1 / (p_b1 + p_b0), p_b0 / (p_b1 + p_b0))
    joint = joint_distribution(moduli_squared(amplitudes))
    return joint, joint.bob_marginal()


def mz_joint_amplitudes(
    alpha: float, phi_a: float, phi_b: float, mode: AliceMode = AliceMode.SPLITTER_IN
) -> tuple[complex, complex, complex, complex]:
    """Coincidence amplitudes (A1B1, A1B0, A0B1, A0B0).

    Raises for BEAM_STOP, which has no Alice detectors.
    """
    _, amplitudes = _amplitudes(canonical_angle(alpha, "alpha"), canonical_angle(phi_a, "phi_a"),
                                canonical_angle(phi_b, "phi_b"), _check_mode(mode, joint=True))
    return tuple(complex(*z) for z in amplitudes)


def mz_joint_probabilities(
    alpha: float, phi_a: float, phi_b: float, mode: AliceMode = AliceMode.SPLITTER_IN
) -> JointDistribution:
    """Coincidence distribution from the modulus-squared amplitudes.

    The amplitudes are the single source of truth here: the paper's printed
    closed forms do not sum to one, and the tests keep them to show it.
    """
    return _probabilities(alpha, phi_a, phi_b, _check_mode(mode, joint=True))[0]


def mz_bob_marginals(
    alpha: float, phi_a: float, phi_b: float, mode: AliceMode = AliceMode.SPLITTER_IN
) -> MarginalDistribution:
    """Bob's singles (P_B1, P_B0) for any of Alice's three configurations."""
    return _probabilities(alpha, phi_a, phi_b, mode)[1]


def expected_bob_marginals(alpha: float, phi_b: float) -> MarginalDistribution:
    """Closed-form Bob singles [1 +/- sin(2 alpha) sin(phi_b)] / 2."""
    xp = array_namespace(alpha, phi_b)
    x = xp.sin(2.0 * alpha) * xp.sin(phi_b)
    return MarginalDistribution(p_b1=(1.0 + x) / 2.0, p_b0=(1.0 - x) / 2.0)


def mz_sweep(alpha_list: list[float], phi_a_grid: list[float], phi_b_grid: list[float],
             modes: list[AliceMode] | None = None) -> Table:
    """Joint + marginal probabilities per configuration.

    BEAM_STOP rows carry NaN in the coincidence columns since those
    detectors do not exist in that configuration.
    """
    modes = [AliceMode.SPLITTER_IN] if modes is None else list(modes)
    labels = [_check_mode(mode).value for mode in modes]
    phi_a = np.asarray(phi_a_grid, dtype=float)[:, None]
    phi_b = np.asarray(phi_b_grid, dtype=float)

    def values(alpha):  # each column over (alpha, phi_a, phi_b, mode)
        alpha = np.expand_dims(alpha, (-2, -1))
        per_mode = [_probabilities(alpha, phi_a, phi_b, mode) for mode in modes]
        per_mode = [((math.nan,) * 4 if joint is None else joint.as_tuple()) + marg.as_tuple()
                    for joint, marg in per_mode]
        return [np.stack(np.broadcast_arrays(*column), axis=-1) for column in zip(*per_mode)]

    return grid_table(("alpha", "phi_a", "phi_b", "mode",
                       "p_a1b1", "p_a1b0", "p_a0b1", "p_a0b0", "p_b1", "p_b0"),
                      (alpha_list, phi_a_grid, phi_b_grid, labels), values)


def mz_marginal_sweep(alpha_list: list[float], phi_b_grid: list[float]) -> Table:
    """Bob-singles table (alpha, phi_b, p_b1, p_b0).

    Computed through the full coincidence pipeline (phi_a and Alice's mode
    drop out of the sums, which is the point of the bench).
    """
    phi_b = np.asarray(phi_b_grid, dtype=float)
    return grid_table(("alpha", "phi_b", "p_b1", "p_b0"), (alpha_list, phi_b_grid),
                      lambda alpha: mz_bob_marginals(np.expand_dims(alpha, -1), 0.0,
                                                     phi_b).as_tuple())


def audit_mz(grid: int = 50, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's path marginals must not depend on phi_a or on Alice's mode."""
    alphas, phis = grid_axes(grid, 2 * math.pi)
    phi_a, phi_b = np.array(phis), np.array(phis)[:, None]

    def diff(alpha):  # axes (alpha, phi_b, phi_a, mode)
        alpha = alpha[:, None, None]
        want = np.array(expected_bob_marginals(alpha, phi_b).as_tuple())[..., None]
        got = [np.array(mz_bob_marginals(alpha, phi_a, phi_b, mode).as_tuple())
               for mode in AliceMode]  # BEAM_STOP's lack the phi_a axis
        return np.stack(np.broadcast_arrays(*got), axis=-1) - want

    return grid_audit("mz", tolerance, (alphas, phis, phis, [mode.value for mode in AliceMode]),
                      diff, lambda alpha, phi_b, phi_a, mode: (alpha, phi_a, phi_b, mode))
