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
and add incoherently.  Because the two aperture fields live on disjoint
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

from .core import canonical_angle
from .pathbench import bob_outcome_amplitudes, expected_bob_marginals

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
        if not (self.wavelength > 0 and s > 0):
            raise ValueError("wavelength and beam_sigma must be positive")
        if not self.propagation_distance >= 0:
            raise ValueError("propagation_distance must be non-negative")
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
        if not 0.0 < self.apex_offset < self.aperture_halfwidth:
            raise ValueError("apex_offset must lie strictly inside the face")
        if not math.isfinite(self.apex_offset):
            raise ValueError("apex_offset must be finite")
        if self.detector_halfwidth is None:
            object.__setattr__(self, "detector_halfwidth", 12.0 * s)
        if not self.detector_halfwidth > 0:
            raise ValueError("detector_halfwidth must be positive")
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
        return _simpson(np.abs(self.field) ** 2, self.spacing)


@dataclass(frozen=True)
class QuadratureResult:
    """Composite-Simpson integral with one Richardson refinement."""

    value: float
    error_estimate: float
    samples: int


def _simpson(y: np.ndarray, dx: float) -> float:
    if len(y) % 2 == 0 or len(y) < 3:
        raise ValueError("Simpson rule needs an odd number of samples >= 3")
    acc = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return float(acc * dx / 3.0)


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


_BOB_OUTCOME_INDEX = {"B1": 0, "B0": 1, 1: 0, 0: 1}


def joint_density_at_detector(
    alpha: float, phi_a: float, phi_b: float, bob_outcome, geom: WedgeGeometry
) -> np.ndarray:
    """|A_j(x)|^2 on the detector grid for one Bob outcome.

    Coherent over Alice's two paths, incoherent between Bob outcomes.
    """
    try:
        j = _BOB_OUTCOME_INDEX[bob_outcome]
    except (KeyError, TypeError):
        raise ValueError(f"bob_outcome must be 'B1'/'B0' or 1/0, got {bob_outcome!r}")
    phi_a = canonical_angle(phi_a, "phi_a")
    g = bob_outcome_amplitudes(alpha, phi_b)
    f1, f2 = _propagated_fields(geom)
    amp = np.exp(1j * phi_a) * f1.field * g[0][j] + f2.field * g[1][j]
    return np.abs(amp) ** 2


def integrate_detector(density: np.ndarray, geom: WedgeGeometry) -> QuadratureResult:
    """Integrate a sampled detector density over the face.

    Composite Simpson on the full grid, refined by one Richardson step
    against the half-resolution result; the step difference provides the
    error estimate.  Requires >= 32 samples per fringe period (period
    lambda / (2 tilt) from the beam crossing angle).
    """
    x = detector_grid(geom)
    if len(density) != len(x):
        raise ValueError(
            f"density has {len(density)} samples, detector grid has {len(x)}"
        )
    dx = float(x[1] - x[0])
    if geom.tilt_angle > 0.0:
        period = geom.wavelength / (2.0 * geom.tilt_angle)
        if dx > period / POINTS_PER_FRINGE:
            needed = _round_up_4m1(
                int(math.ceil(2.0 * geom.detector_halfwidth * POINTS_PER_FRINGE / period))
                + 1
            )
            raise SamplingError(
                f"detector spacing {dx:.3e} m undersamples the "
                f"{period:.3e} m fringe period",
                required_samples=needed,
            )
    fine = _simpson(density, dx)
    coarse = _simpson(density[::2], 2.0 * dx)
    step = (fine - coarse) / 15.0
    return QuadratureResult(
        value=fine + step, error_estimate=abs(step), samples=len(density)
    )


def wedge_bob_singles(
    alpha: float, phi_a: float, phi_b: float, geom: WedgeGeometry
) -> tuple[QuadratureResult, QuadratureResult]:
    """Integrated (P_B1, P_B0) over the detector face."""
    p1 = joint_density_at_detector(alpha, phi_a, phi_b, "B1", geom)
    p0 = joint_density_at_detector(alpha, phi_a, phi_b, "B0", geom)
    return integrate_detector(p1, geom), integrate_detector(p0, geom)


def signal_difference_map(
    alpha_grid: list[float],
    phi_b_grid: list[float],
    phi_a: float,
    geom: WedgeGeometry,
) -> "Table":
    """Wave-optics Bob singles minus the closed-form marginals.

    One row per (alpha, phi_b) cell with the two differences and the
    per-cell quadrature error estimates.  Cells whose quadrature raises
    are marked NaN instead of aborting the sweep.
    """
    from .output import Table

    rows = []
    for alpha in alpha_grid:
        for phi_b in phi_b_grid:
            try:
                q1, q0 = wedge_bob_singles(alpha, phi_a, phi_b, geom)
                expected = expected_bob_marginals(alpha, phi_b)
                row = (
                    alpha,
                    phi_b,
                    q1.value - expected.p_b1,
                    q0.value - expected.p_b0,
                    q1.error_estimate,
                    q0.error_estimate,
                )
            except SamplingError:
                row = (alpha, phi_b, math.nan, math.nan, math.nan, math.nan)
            rows.append(row)
    return Table(
        columns=("alpha", "phi_b", "diff_b1", "diff_b0", "err_b1", "err_b0"),
        rows=rows,
    )


def wedge_profile_table(
    alpha: float, phi_a: float, phi_b: float, geom: WedgeGeometry
) -> "Table":
    """Per-position magnitudes and coincidence densities at the detector."""
    from .output import Table

    f1, f2 = _propagated_fields(geom)
    p1 = joint_density_at_detector(alpha, phi_a, phi_b, "B1", geom)
    p0 = joint_density_at_detector(alpha, phi_a, phi_b, "B0", geom)
    x = detector_grid(geom)
    rows = [
        (
            float(x[i]),
            float(abs(f1.field[i])),
            float(abs(f2.field[i])),
            float(p1[i]),
            float(p0[i]),
        )
        for i in range(len(x))
    ]
    return Table(
        columns=("x", "mag_a1", "mag_a2", "density_b1", "density_b0"), rows=rows
    )
