"""Wedge-mirror bench: Alice's paths recombined in free space.

Instead of a recombining splitter, Alice's two beams are steered by the
two faces of a wedge mirror onto a single detector plane, where they
overlap and interfere.  Each face reflects one beam; the face width is
finite, so each Gaussian beam is hard-truncated at the wedge apex on one
side and at the outer edge of its face on the other.  The truncated
profiles then propagate a distance z to the detector under the paraxial
(Fresnel) approximation, evaluated as a direct quadrature over Huygens
wavelets, with a small tilt steering the two beam centers into overlap.

Geometry convention, transverse coordinate x in meters:

* apex at x = 0; beam 1 occupies (0, aperture_halfwidth], beam 2 the
  mirror image; `aperture_halfwidth` is the width of one face;
* beam centers sit at +/- apex_offset (default: mid-face);
* an infinite aperture_halfwidth disables truncation entirely, leaving
  untruncated Gaussians at +/- apex_offset (default offset 5 sigma).

For Bob outcome j the detector-plane coincidence amplitude density is the
coherent sum over Alice's paths,

    A_j(x) = e^{i phi_a} F_1(x) g_{1j} + F_2(x) g_{2j},

with F_k the propagated fields and g_{kj} the per-path Bob-side amplitudes
from the path bench.  The B1 and B0 densities are quantum-distinguishable
and add incoherently, and their phi_a terms (the "signal" and "anti-signal"
fringes) cancel pointwise.  Because the two aperture fields live on disjoint
supports, unitary propagation keeps them orthogonal over the full plane;
integrating Bob's singles over the finite detector face therefore matches
the closed-form marginals up to the truncation loss and edge diffraction,
which is the residual this bench puts a number on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _require_angle, array_namespace, canonical_angle
from .output import Table, grid_table
from .pathbench import AliceMode, _amplitudes, bob_outcome_amplitudes, expected_bob_marginals

MIN_SAMPLES = 64
MIN_APERTURE_SIGMAS = 5.0
UNTRUNCATED_SUPPORT_SIGMAS = 10.0
POINTS_PER_FRINGE = 32.0


class SamplingError(ValueError):
    """Grid too coarse for the requested propagation or quadrature."""

    def __init__(self, message: str, required_samples: int):
        self.required_samples = required_samples
        super().__init__(f"{message}; need at least {required_samples} samples")


def _round_up_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _round_up_4m1(n: int) -> int:
    # Simpson at spacing h and 2h both need odd counts: n = 4m + 1.
    m = (n - 2) // 4 + 1
    return 4 * m + 1


@dataclass(frozen=True)
class WedgeGeometry:
    """Bench geometry; lengths in meters, angles in radians.

    Fields left as None are derived: aperture_halfwidth = 10 sigma,
    apex_offset = aperture_halfwidth / 2 (5 sigma when untruncated),
    detector_halfwidth = 12 sigma, tilt_angle = apex_offset / distance
    (the value that steers both beam centers onto the detector axis).
    Sample counts are rounded up to the parities Simpson needs.
    """

    wavelength: float = 810e-9
    beam_sigma: float = 1e-3
    propagation_distance: float = 1.0
    aperture_halfwidth: float | None = None
    apex_offset: float | None = None
    detector_halfwidth: float | None = None
    tilt_angle: float | None = None
    samples_aperture: int = 4097
    samples_detector: int = 16385

    def __post_init__(self) -> None:
        s = self.beam_sigma
        if not (0.0 < self.wavelength < math.inf and s > 0):
            raise ValueError("wavelength must be positive and finite, beam_sigma positive")
        if not 0.0 <= self.propagation_distance < math.inf:
            raise ValueError("propagation_distance must be finite and non-negative")
        if self.aperture_halfwidth is None:
            object.__setattr__(self, "aperture_halfwidth", 10.0 * s)
        if self.aperture_halfwidth < MIN_APERTURE_SIGMAS * s:
            raise ValueError(
                f"aperture_halfwidth must be >= {MIN_APERTURE_SIGMAS:g} beam sigmas"
            )
        if self.apex_offset is None:
            # Truncated: mid-face, so each beam clears both edges by h/2.
            # Untruncated: 6 sigma, keeping the (no longer clipped) beams'
            # mutual overlap exp(-18) below anything the quadrature resolves.
            default_offset = (
                self.aperture_halfwidth / 2.0
                if math.isfinite(self.aperture_halfwidth)
                else 6.0 * s
            )
            object.__setattr__(self, "apex_offset", default_offset)
        if not 0.0 < self.apex_offset < self.aperture_halfwidth:  # rejects inf and NaN
            raise ValueError("apex_offset must lie strictly inside the face")
        if self.detector_halfwidth is None:
            object.__setattr__(self, "detector_halfwidth", 12.0 * s)
        if not 0.0 < self.detector_halfwidth < math.inf:
            raise ValueError("detector_halfwidth must be positive and finite")
        if self.tilt_angle is None:
            z = self.propagation_distance
            object.__setattr__(self, "tilt_angle", self.apex_offset / z if z > 0 else 0.0)
        if not (math.isfinite(self.tilt_angle) and self.tilt_angle >= 0):
            raise ValueError("tilt_angle must be finite and non-negative")
        for name in ("samples_aperture", "samples_detector"):
            if getattr(self, name) < MIN_SAMPLES:
                raise ValueError(f"{name} must be >= {MIN_SAMPLES}")
        object.__setattr__(
            self, "samples_aperture", _round_up_odd(self.samples_aperture)
        )
        object.__setattr__(
            self, "samples_detector", _round_up_4m1(self.samples_detector)
        )

    @property
    def truncated(self) -> bool:
        return math.isfinite(self.aperture_halfwidth)


@dataclass(frozen=True)
class BeamProfile:
    """Complex field sampled on a uniform, strictly increasing grid."""

    grid: np.ndarray
    field: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.grid.shape != self.field.shape:
            raise ValueError("grid and field must be 1-D arrays of equal length")
        steps = np.diff(self.grid)
        if not (steps > 0).all():
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniformly spaced")
        norm = self.norm_sq()
        if norm > 1.0 + 1e-9:
            raise ValueError(f"field norm {norm!r} exceeds 1")
        self.grid.setflags(write=False)
        self.field.setflags(write=False)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def norm_sq(self) -> float:
        return float(_simpson(np.abs(self.field) ** 2, self.spacing))


@dataclass(frozen=True)
class QuadratureResult:
    """Composite-Simpson integral with one Richardson refinement."""

    value: float
    error_estimate: float


def _simpson(y: np.ndarray, dx: float):
    """Composite Simpson along the last axis of ``y``."""
    if y.shape[-1] % 2 == 0 or y.shape[-1] < 3:
        raise ValueError("Simpson rule needs an odd number of samples >= 3")
    acc = y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(-1) + 2.0 * y[..., 2:-1:2].sum(-1)
    return acc * dx / 3.0


def detector_grid(geom: WedgeGeometry) -> np.ndarray:
    L = geom.detector_halfwidth
    return np.linspace(-L, L, geom.samples_detector)


def truncated_aperture_field(geom: WedgeGeometry, path: int) -> BeamProfile:
    """Gaussian aperture field of one beam just after the wedge.

    Unit norm before truncation (intensity standard deviation
    beam_sigma); support is the wedge face for the path, so the norm
    after truncation is 1 minus the clipped tail mass.  Path 2 is the
    mirror image of path 1.
    """
    if path not in (1, 2):
        raise ValueError(f"path must be 1 or 2, got {path!r}")
    s = geom.beam_sigma
    c = geom.apex_offset
    if geom.truncated:
        lo, hi = 0.0, geom.aperture_halfwidth
    else:
        lo = c - UNTRUNCATED_SUPPORT_SIGMAS * s
        hi = c + UNTRUNCATED_SUPPORT_SIGMAS * s
    x = np.linspace(lo, hi, geom.samples_aperture)
    field = (2.0 * math.pi * s * s) ** (-0.25) * np.exp(-((x - c) ** 2) / (4.0 * s * s))
    if path == 2:
        x = -x[::-1]
        field = field[::-1]
    return BeamProfile(grid=x, field=field.astype(complex))


def fresnel_propagate(
    profile: BeamProfile, geom: WedgeGeometry, tilt: float = 0.0
) -> BeamProfile:
    """Paraxial free-space propagation onto the detector grid.

    Direct quadrature of the Huygens integral

        U(x) = sqrt(1/(i lambda z)) *
               int u(x') e^{i k tilt x'} e^{i k (x - x')^2 / (2 z)} dx'

    (the constant e^{ikz} factor, common to both beams, is dropped).
    A positive tilt displaces the arriving beam by +z * tilt.  Zero
    distance returns the profile unchanged.  Raises SamplingError when
    the input spacing violates the Nyquist bound for the kernel's
    instantaneous frequency over the two grids.
    """
    lam = geom.wavelength
    z = geom.propagation_distance
    if not math.isfinite(tilt):
        raise ValueError("tilt must be finite")
    if z == 0.0:
        return profile
    x_out = detector_grid(geom)
    x_in = profile.grid
    k = 2.0 * math.pi / lam
    # Worst-case local spatial frequency of the integrand over both grids:
    # f(x') = |tilt - (x - x') / z| / lambda, extremized at grid corners.
    sep = max(
        abs(z * tilt - (x_out[0] - x_in[-1])),
        abs(z * tilt - (x_out[-1] - x_in[0])),
    )
    dx_max = lam * z / (2.0 * sep) if sep > 0 else math.inf
    if profile.spacing > dx_max:
        span = float(x_in[-1] - x_in[0])
        needed = _round_up_odd(int(math.ceil(span / dx_max)) + 1)
        raise SamplingError(
            f"aperture spacing {profile.spacing:.3e} m exceeds the Nyquist "
            f"bound {dx_max:.3e} m for this propagation",
            required_samples=needed,
        )
    # fold Simpson weights and the tilt ramp into the source vector
    w = np.ones(len(x_in))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    src = profile.field * w * (profile.spacing / 3.0) * np.exp(1j * k * tilt * x_in)
    # sqrt(1/(i lambda z)) = e^{-i pi/4} / sqrt(lambda z)
    pref = complex(math.cos(math.pi / 4.0), -math.sin(math.pi / 4.0)) / math.sqrt(lam * z)
    out = np.empty(len(x_out), dtype=complex)
    block = max(1, int(2_000_000 // len(x_in)))
    coef = k / (2.0 * z)
    for i0 in range(0, len(x_out), block):
        d = x_out[i0 : i0 + block, None] - x_in[None, :]
        out[i0 : i0 + block] = np.exp(1j * coef * d * d) @ src
    return BeamProfile(grid=x_out, field=pref * out)


@lru_cache(maxsize=16)
def _propagated_fields(geom: WedgeGeometry) -> tuple[BeamProfile, BeamProfile]:
    # The fields do not depend on (alpha, phi_a, phi_b), so one propagation
    # per geometry serves a whole parameter sweep.
    f1 = fresnel_propagate(truncated_aperture_field(geom, 1), geom, tilt=-geom.tilt_angle)
    f2 = fresnel_propagate(truncated_aperture_field(geom, 2), geom, tilt=+geom.tilt_angle)
    return f1, f2


def joint_densities_at_detector(alpha: float, phi_a: float, phi_b: float,
                                geom: WedgeGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(|A_B1(x)|^2, |A_B0(x)|^2) on the detector grid: coherent over Alice's
    two paths, incoherent between Bob outcomes."""
    phase = np.exp(1j * canonical_angle(phi_a, "phi_a"))
    g = bob_outcome_amplitudes(alpha, phi_b)
    f1, f2 = _propagated_fields(geom)
    return tuple(np.abs(phase * f1.field * g[0][j] + f2.field * g[1][j]) ** 2 for j in (0, 1))


def _richardson(density: np.ndarray, geom: WedgeGeometry):
    """(value, signed step) of ``integrate_detector`` along the last axis."""
    x = detector_grid(geom)
    if density.shape[-1] != len(x):
        raise ValueError(f"density has {density.shape[-1]} samples, detector grid has {len(x)}")
    dx = float(x[1] - x[0])
    if geom.tilt_angle > 0.0:
        period = geom.wavelength / (2.0 * geom.tilt_angle)
        if dx > period / POINTS_PER_FRINGE:
            needed = int(math.ceil(2.0 * geom.detector_halfwidth * POINTS_PER_FRINGE / period))
            raise SamplingError(f"detector spacing {dx:.3e} m undersamples the "
                                f"{period:.3e} m fringe period",
                                required_samples=_round_up_4m1(needed + 1))
    fine = _simpson(density, dx)
    step = (fine - _simpson(density[..., ::2], 2.0 * dx)) / 15.0
    return fine + step, step


def integrate_detector(density: np.ndarray, geom: WedgeGeometry) -> QuadratureResult:
    """Integrate a sampled detector density over the face.

    Composite Simpson on the full grid, refined by one Richardson step
    against the half-resolution result; the step difference provides the
    error estimate.  Requires >= 32 samples per fringe period (period
    lambda / (2 tilt) from the beam crossing angle).
    """
    value, step = _richardson(density, geom)
    return QuadratureResult(value=float(value), error_estimate=abs(float(step)))


def _bob_singles(alpha: float, phi_a, phi_b, geom: WedgeGeometry):
    """((P_B1, P_B0), (err_B1, err_B0)) at floats or arrays of phi_a and phi_b.

    Simpson and its Richardson step are linear in the density, so P_Bj and
    its step follow from those of N_k = int |F_k|^2 and O = int F_1 F_2*:
    P_Bj = |g_1j|^2 N_1 + |g_2j|^2 N_2 + 2 Re(e^{i phi_a} g_1j g_2j* O).
    Alice's phase reaches Bob only through O.  A float setting gives the
    bits of a one-element array.
    """
    f1, f2 = (f.field for f in _propagated_fields(geom))
    o = f1 * f2.conj()
    integrals = _richardson(np.stack([np.abs(f1) ** 2, np.abs(f2) ** 2, o.real, o.imag]), geom)
    phi_a = canonical_angle(phi_a, "phi_a")
    xp = array_namespace(phi_a)
    c, s = xp.cos(phi_a), xp.sin(phi_a)
    g, _ = _amplitudes(_require_angle(alpha, "alpha"), 0.0, canonical_angle(phi_b, "phi_b"),
                       AliceMode.BEAM_STOP)
    singles = []
    for (a_re, a_im), (b_re, b_im) in zip(*g):
        p_re, p_im = a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im  # g_1j g_2j*
        q_re, q_im = c * p_re - s * p_im, c * p_im + s * p_re  # times e^{i phi_a}
        value, step = ((a_re * a_re + a_im * a_im) * n1 + (b_re * b_re + b_im * b_im) * n2
                       + 2.0 * (q_re * o_re - q_im * o_im) for n1, n2, o_re, o_im in integrals)
        singles.append((value, abs(step)))
    return tuple(zip(*singles))


def wedge_bob_singles(alpha: float, phi_a: float, phi_b: float,
                      geom: WedgeGeometry) -> tuple[QuadratureResult, QuadratureResult]:
    """Integrated (P_B1, P_B0) over the detector face."""
    values, errors = _bob_singles(alpha, phi_a, phi_b, geom)
    return tuple(QuadratureResult(float(v), float(e)) for v, e in zip(values, errors))


def signal_difference_map(
    alpha_grid: list[float],
    phi_b_grid: list[float],
    phi_a: float,
    geom: WedgeGeometry,
) -> Table:
    """Wave-optics Bob singles minus the closed-form marginals.

    One row per (alpha, phi_b) cell with the two differences and the
    per-cell quadrature error estimates.  A geometry whose propagation
    or quadrature raises SamplingError gives a map of NaN cells.
    """
    axes, phi_b = (alpha_grid, phi_b_grid), np.asarray(phi_b_grid, dtype=float)
    columns = ("alpha", "phi_b", "diff_b1", "diff_b0", "err_b1", "err_b0")

    def values(alpha):  # (diff_b1, diff_b0, err_b1, err_b0) over phi_b
        singles, errors = _bob_singles(alpha, phi_a, phi_b, geom)
        return (*np.subtract(singles, expected_bob_marginals(alpha, phi_b).as_tuple()), *errors)

    try:
        return grid_table(columns, axes, values)
    except SamplingError:
        return grid_table(columns, axes, lambda alpha: [math.nan] * 4)


def wedge_profile_table(
    alpha: float, phi_a: float, phi_b: float, geom: WedgeGeometry
) -> Table:
    """Per-position magnitudes and coincidence densities at the detector."""
    f1, f2 = _propagated_fields(geom)
    densities = joint_densities_at_detector(alpha, phi_a, phi_b, geom)
    # |field| as hypot, which has the bits of abs() on each complex element
    # (np.abs on a complex array differs from it in the last bit)
    magnitudes = (np.hypot(f.field.real, f.field.imag) for f in (f1, f2))
    return Table(
        columns=("x", "mag_a1", "mag_a2", "density_b1", "density_b0"),
        data=(detector_grid(geom), *magnitudes, *densities),
    )
