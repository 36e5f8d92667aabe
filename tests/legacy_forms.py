"""The paper's printed closed forms, kept as regression oracles.

Neither normalizes: the tests use them only to show that, and that the
amplitude route the package computes does.
"""

import math

from eprsim.polarization import PolarizationConfig

SQRT2 = math.sqrt(2.0)


def uncorrected_mz_joint_probabilities(
    alpha: float, phi_a: float, phi_b: float
) -> tuple[float, float, float, float]:
    """Earlier SPLITTER_IN closed forms, kept for regression only.

    For generic phases these four expressions do not sum to one (the
    deficit is [sin(phi_a) - sin(2 alpha)] sin(phi_b) / 2), so they are
    returned as a bare tuple rather than a JointDistribution.  The A1B1
    and A0B0 entries agree with the amplitude route; A1B0 and A0B1 do not.
    """
    s2a = math.sin(2.0 * alpha)
    c2a = math.cos(2.0 * alpha)
    sa, ca = math.sin(phi_a), math.cos(phi_a)
    sb, cb = math.sin(phi_b), math.cos(phi_b)
    x = c2a * ca * cb
    p11 = (1.0 - sa * (s2a + sb) - x + s2a * sb) / 4.0
    p10 = (1.0 - s2a * (sa + sb) + x + s2a * sb) / 4.0
    p01 = (1.0 + s2a * (sa + sb) + x + s2a * sb) / 4.0
    p00 = (1.0 - sb * (s2a + sa) - x + s2a * sa) / 4.0
    return (p11, p10, p01, p00)


def uncorrected_vh_amplitude(alpha: float, theta: float) -> complex:
    """Earlier closed form of the VH amplitude, kept for regression only.

    Its modulus square is cos(alpha)^2 / 2 for every theta, which
    contradicts the VH coincidence rate and breaks the square-sum of the
    four amplitudes.  Do not use outside the regression suite.
    """
    cfg = PolarizationConfig(alpha=alpha, theta=theta)
    ca = math.cos(cfg.alpha)
    ct, st = math.cos(cfg.theta), math.sin(cfg.theta)
    return complex(ca * ct, -ca * st) / SQRT2
