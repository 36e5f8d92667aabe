"""Polarimeter bench: rotatable analyzer on Alice, fixed analyzer on Bob.

Both photons hit two-channel polarizing analyzers.  Bob's is fixed in the
(H, V) basis; Alice's is rotated by theta.  The four coincidence amplitudes
for the source state at mixing angle alpha are

    psi_HH = [-sin(a) cos(t) + i cos(a) sin(t)] / sqrt(2)
    psi_HV = [-cos(a) cos(t) + i sin(a) sin(t)] / sqrt(2)
    psi_VH = [ cos(a) cos(t) - i sin(a) sin(t)] / sqrt(2)
    psi_VV = [ sin(a) cos(t) - i cos(a) sin(t)] / sqrt(2)

giving coincidence rates

    P_HH = P_VV = [1 - cos(2a) cos(2t)] / 4
    P_HV = P_VH = [1 + cos(2a) cos(2t)] / 4

and exactly flat singles at Bob regardless of (alpha, theta): rotating
Alice's analyzer modulates the coincidence pattern but never the
non-coincident rate on Bob's side.  The probability functions take floats
or numpy arrays of settings alike, and give the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    JointDistribution,
    MarginalDistribution,
    array_namespace,
    canonical_angle,
    joint_distribution,
    moduli_squared,
)
from .output import NoSignalReport, Table, grid_audit, grid_axes, grid_table

SQRT2 = math.sqrt(2.0)

#: Coincidence outcome labels, Alice's channel first.
POLAR_OUTCOMES = ("HH", "HV", "VH", "VV")


@dataclass(frozen=True)
class PolarizationConfig:
    """Bench settings; angles are canonicalized into [0, 2*pi)."""

    alpha: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", canonical_angle(self.alpha, "alpha"))
        object.__setattr__(self, "theta", canonical_angle(self.theta, "theta"))

    def outcomes(self) -> tuple[tuple[str, ...], tuple[float, ...], tuple[float, float, float]]:
        """The outcome labels, their probabilities and the event settings (alpha, theta, 0.0)."""
        return (POLAR_OUTCOMES, polar_joint_probabilities(self.alpha, self.theta).as_tuple(),
                (self.alpha, self.theta, 0.0))


def _amplitudes(alpha, theta):
    """Coincidence amplitudes (HH, HV, VH, VV) as (real, imaginary) pairs.

    The VH amplitude uses sin(alpha) in its second term; the printed cos(alpha)
    variant, which the tests keep, breaks normalization.
    """
    alpha, theta = canonical_angle(alpha, "alpha"), canonical_angle(theta, "theta")
    xp = array_namespace(alpha, theta)
    ca, sa, ct, st = xp.cos(alpha), xp.sin(alpha), xp.cos(theta), xp.sin(theta)
    # psi / SQRT2 as CPython divides by complex(SQRT2, 0.0), down to signed zeros
    return [((re + im * 0.0) / SQRT2, (im - re * 0.0) / SQRT2)
            for re, im in ((-sa * ct, ca * st), (-ca * ct, sa * st),
                           (ca * ct, -sa * st), (sa * ct, -ca * st))]


def polar_joint_amplitudes(
    alpha: float, theta: float
) -> tuple[complex, complex, complex, complex]:
    """Coincidence amplitudes (HH, HV, VH, VV) at analyzer angle theta."""
    return tuple(complex(re, im) for re, im in _amplitudes(alpha, theta))


def polar_joint_probabilities(alpha: float, theta: float) -> JointDistribution:
    """Coincidence distribution over (HH, HV, VH, VV)."""
    return joint_distribution(moduli_squared(_amplitudes(alpha, theta)))


def polar_bob_marginals(alpha: float, theta: float) -> MarginalDistribution:
    """Bob's singles (P_H, P_V): flat 1/2 each for every setting."""
    return polar_joint_probabilities(alpha, theta).bob_marginal()


def polar_sweep(alpha_list: list[float], theta_grid: list[float]) -> Table:
    """Row-per-(alpha, theta) coincidence table."""
    theta = np.asarray(theta_grid, dtype=float)
    return grid_table(("alpha", "theta", "p_hh", "p_hv", "p_vh", "p_vv"), (alpha_list, theta_grid),
                      lambda alpha: polar_joint_probabilities(np.expand_dims(alpha, -1),
                                                              theta).as_tuple())


def audit_polar(grid: int = 200, tolerance: float = 1e-12) -> NoSignalReport:
    """Bob's polarization marginals must be (1/2, 1/2) for every setting."""
    alphas, thetas = grid_axes(grid, math.pi)
    return grid_audit("polar", tolerance, (alphas, thetas), lambda alpha: np.subtract(
        polar_bob_marginals(alpha[:, None], np.array(thetas)).as_tuple(), 0.5))
