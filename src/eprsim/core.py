"""Core two-photon state and probability types.

A tunable source emits photon pairs in a superposition that interpolates
between a maximally entangled singlet-like state and a product state as a
mixing angle alpha runs from 0 to pi/4.  Written in an abstract two-level
basis per photon, the joint state is

    psi(alpha) = (|11> + |22>) (cos b + sin b) / 2
               + i (|12> - |21>) (cos b - sin b) / 2,    b = alpha - pi/4,

where |jk> means photon A in mode j and photon B in mode k.  The modes are
horizontal/vertical polarization for the polarimeter bench and the two
source paths for the interferometer benches; the coefficients are the same
either way.

Everything downstream consumes the four complex coefficients, so this
module also carries the small probability containers shared by the benches
(floats, or arrays for a grid of settings) and the arithmetic of their
amplitude functions, which hold complex numbers as (real, imaginary) pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
NORM_TOL = 1e-12
AMP_INPUT_TOL = 1e-9


class UnitarityError(ValueError):
    """Amplitudes fail to square-sum to one beyond tolerance."""

    def __init__(self, deficit: float):
        self.deficit = deficit
        super().__init__(
            f"amplitudes square-sum to 1 {deficit:+.3e}; "
            f"exceeds tolerance {AMP_INPUT_TOL:g}"
        )


class Basis(enum.Enum):
    """Which physical pair of modes the state coefficients refer to."""

    POLARIZATION = "polarization"  # (H, V) per photon
    PATH = "path"                  # (path 1, path 2) per photon


def _require_angle(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _raise_where(bad, value, error) -> None:
    """Raise ``error(v)``, or a ValueError of template ``error``, for the first v of
    ``value`` where ``bad`` holds; callers skip it when ``bad is False`` (floats pass)."""
    if bad is True or bad.any():
        v = value if bad is True else np.broadcast_to(value, np.shape(bad))[bad][0].item()
        raise ValueError(error.format(v)) if isinstance(error, str) else error(v)


def canonical_angle(value, name: str = "angle"):
    """Map a finite angle, or each of an array of them, into [0, 2*pi); a tiny
    negative angle, whose remainder rounds up to 2*pi, maps to 0.0."""
    if isinstance(value, np.ndarray):
        _raise_where(~np.isfinite(value), value, name + " must be finite, got {!r}")
        value = value % TWO_PI
        return np.where(value < TWO_PI, value, 0.0)
    value = _require_angle(value, name) % TWO_PI
    return value if value < TWO_PI else 0.0


def array_namespace(*values):
    """``numpy`` if any value is an array, else ``math``."""
    for value in values:
        if isinstance(value, np.ndarray):
            return np
    return math


def c_dot(a, b, c, d):
    """a*b + c*d for (real, imaginary) pairs, in CPython's complex order."""
    return (a[0] * b[0] - a[1] * b[1] + (c[0] * d[0] - c[1] * d[1]),
            a[0] * b[1] + a[1] * b[0] + (c[0] * d[1] + c[1] * d[0]))


def moduli_squared(pairs) -> list:
    """|z|^2 of (real, imaginary) pairs as abs(complex) ** 2 rounds it (np.square would not)."""
    return [abs(complex(re, im)) ** 2 if isinstance(re, float)
            else np.float_power(np.hypot(re, im), 2.0) for re, im in pairs]


def source_coefficients(alpha):
    """(corr, anti) of psi(alpha): c11 = c22 = corr and c12 = -c21 = i anti."""
    xp = array_namespace(alpha)
    b = alpha - math.pi / 4.0
    cos_b, sin_b = xp.cos(b), xp.sin(b)
    return (cos_b + sin_b) / 2.0, (cos_b - sin_b) / 2.0


@dataclass(frozen=True)
class TwoPhotonState:
    """Joint state coefficients in the (photon A, photon B) mode basis.

    Ordering is c11, c12, c21, c22 with photon A's index first.
    """

    c11: complex
    c12: complex
    c21: complex
    c22: complex
    basis: Basis = Basis.POLARIZATION

    def __post_init__(self) -> None:
        if abs(self.norm_sq() - 1.0) > NORM_TOL:
            raise UnitarityError(self.norm_sq() - 1.0)

    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (self.c11, self.c12, self.c21, self.c22)

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self.coefficients())


def make_source_state(alpha: float, basis: Basis = Basis.POLARIZATION) -> TwoPhotonState:
    """Source state at mixing angle alpha.

    alpha = 0 gives the singlet-like state i(|12> - |21>)/sqrt(2); alpha =
    pi/4 gives a product state; intermediate angles give partial
    entanglement.  Any finite alpha is accepted.
    """
    corr, anti = source_coefficients(_require_angle(alpha, "alpha"))
    return TwoPhotonState(
        c11=complex(corr, 0.0),
        c12=complex(0.0, anti),
        c21=complex(0.0, -anti),
        c22=complex(corr, 0.0),
        basis=basis,
    )


def entanglement_degree(alpha: float) -> float:
    """Concurrence of the source state, analytically |cos 2*alpha|."""
    state = make_source_state(alpha)
    c11, c12, c21, c22 = state.coefficients()
    # concurrence of a pure two-qubit state: 2 |c11 c22 - c12 c21|
    return 2.0 * abs(c11 * c22 - c12 * c21)


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four coincidence outcomes of a bench.

    Index convention matches TwoPhotonState: first digit is Alice's
    detector, second is Bob's, with 1 the "upper" outcome of each.  The
    fields are floats, or arrays of one shape for a grid of settings.
    """

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self) -> None:
        for name, p in zip(("p11", "p10", "p01", "p00"), self.as_tuple()):
            if (bad := (p != p) | (p < -NORM_TOL) | (p > 1.0 + NORM_TOL)) is not False:
                _raise_where(bad, p, name + " = {!r} outside [0, 1]")  # p != p: NaN
        total = self.p11 + self.p10 + self.p01 + self.p00
        if (bad := abs(total - 1.0) > NORM_TOL) is not False:
            _raise_where(bad, total, "joint probabilities sum to {!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p10, self.p01, self.p00)

    def bob_marginal(self) -> "MarginalDistribution":
        return MarginalDistribution(p_b1=self.p11 + self.p01, p_b0=self.p10 + self.p00)

    def alice_marginal(self) -> "MarginalDistribution":
        return MarginalDistribution(p_b1=self.p11 + self.p10, p_b0=self.p01 + self.p00)


@dataclass(frozen=True)
class MarginalDistribution:
    """Single-detector (non-coincident) outcome probabilities, floats or arrays."""

    p_b1: float
    p_b0: float

    def __post_init__(self) -> None:
        total = self.p_b1 + self.p_b0
        if (bad := (total != total) | (abs(total - 1.0) > NORM_TOL)) is not False:  # NaN
            _raise_where(bad, total, "marginal probabilities sum to {!r}, not 1")

    def as_tuple(self) -> tuple[float, float]:
        return (self.p_b1, self.p_b0)


def joint_distribution(weights) -> JointDistribution:
    """Four |amplitude|^2, which must sum to 1 within 1e-9 (else UnitarityError),
    renormalized so downstream consumers see an exactly normalized distribution."""
    w11, w10, w01, w00 = weights
    total = w11 + w10 + w01 + w00
    if (bad := abs(total - 1.0) > AMP_INPUT_TOL) is not False:
        _raise_where(bad, total - 1.0, UnitarityError)
    return JointDistribution(w11 / total, w10 / total, w01 / total, w00 / total)


def distribution_from_amplitudes(
    amplitudes: tuple[complex, complex, complex, complex],
) -> JointDistribution:
    """Modulus-squared probabilities of four complex joint amplitudes."""
    if len(amplitudes) != 4:
        raise ValueError(f"expected 4 amplitudes, got {len(amplitudes)}")
    return joint_distribution([abs(a) ** 2 for a in amplitudes])
