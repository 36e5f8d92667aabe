"""Monte Carlo click streams for the analytic benches.

Events are drawn chunk by chunk with a counter-based seed derivation:
chunk i of a run seeded with s uses the entropy tuple (s, i), and chunk
boundaries are fixed by the event count alone.  Worker threads only change
who computes a chunk, never what it contains, so a given (spec, seed)
produces an identical outcome stream for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .pathbench import (
    BOB_OUTCOMES,
    PATH_OUTCOMES,
    AliceMode,
    PathConfig,
    mz_bob_marginals,
    mz_joint_probabilities,
)
from .polarization import POLAR_OUTCOMES, PolarizationConfig, polar_joint_probabilities

CHUNK_EVENTS = 65536


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: a bench configuration, an event count, and a seed."""

    config: PolarizationConfig | PathConfig
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.config, (PolarizationConfig, PathConfig)):
            raise ValueError(f"config must be a bench config, got {self.config!r}")
        if self.n < 0:
            raise ValueError(f"need a non-negative event count, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def outcome_labels(self) -> tuple[str, ...]:
        if isinstance(self.config, PolarizationConfig):
            return POLAR_OUTCOMES
        if self.config.mode is AliceMode.BEAM_STOP:
            return BOB_OUTCOMES
        return PATH_OUTCOMES

    def probabilities(self) -> tuple[float, ...]:
        if isinstance(self.config, PolarizationConfig):
            return polar_joint_probabilities(self.config.alpha, self.config.theta).as_tuple()
        c = self.config
        if c.mode is AliceMode.BEAM_STOP:
            return mz_bob_marginals(c.alpha, c.phi_a, c.phi_b, c.mode).as_tuple()
        return mz_joint_probabilities(c.alpha, c.phi_a, c.phi_b, c.mode).as_tuple()

    def bob_one_codes(self) -> frozenset[int]:
        # Bob's "upper" outcome is H on the polar bench, B1 elsewhere
        labels = self.outcome_labels()
        return frozenset(i for i, lab in enumerate(labels) if lab.endswith(("H", "B1")))

    def settings(self) -> tuple[float, float, float]:
        """(alpha, setting_a, setting_b) for event metadata."""
        if isinstance(self.config, PolarizationConfig):
            return (self.config.alpha, self.config.theta, 0.0)
        return (self.config.alpha, self.config.phi_a, self.config.phi_b)


@dataclass(frozen=True)
class SampleResult:
    """Outcome codes plus the labeling needed to interpret them."""

    spec: SamplerSpec
    codes: np.ndarray

    def labels(self) -> tuple[str, ...]:
        return self.spec.outcome_labels()


def _chunk_codes(
    cumulative: np.ndarray, count: int, entropy: tuple[int, ...]
) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    u = rng.random(count)
    # inverse-CDF draw; clip guards the half-open edge when the
    # cumulative sum rounds just below 1
    return np.minimum(
        np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1
    ).astype(np.uint8)


def _sample_codes(
    probabilities: tuple[float, ...],
    n: int,
    entropy_base: tuple[int, ...],
    workers: int = 1,
) -> np.ndarray:
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    cumulative = np.cumsum(probabilities)
    n_chunks = (n + CHUNK_EVENTS - 1) // CHUNK_EVENTS

    def one(i: int) -> np.ndarray:
        count = min(CHUNK_EVENTS, n - i * CHUNK_EVENTS)
        return _chunk_codes(cumulative, count, entropy_base + (i,))

    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(n_chunks)))
    else:
        parts = [one(i) for i in range(n_chunks)]
    return np.concatenate(parts)


def sample_outcome_codes(spec: SamplerSpec, workers: int = 1) -> SampleResult:
    """Draw spec.n outcome codes; identical stream for any worker count."""
    codes = _sample_codes(spec.probabilities(), spec.n, (spec.seed,), workers)
    return SampleResult(spec=spec, codes=codes)


@dataclass(frozen=True)
class EmpiricalMarginal:
    """Bob-outcome frequencies with binomial standard errors."""

    p_b1: float
    p_b0: float
    se_b1: float
    se_b0: float
    n: int


def empirical_marginals(result: SampleResult) -> EmpiricalMarginal:
    """Bob's singles frequencies from a sampled stream."""
    n = len(result.codes)
    if n == 0:
        raise ValueError("empty event stream")
    # count on the uint8 codes themselves, with no int64 copy of 2e7 events
    count_b1 = sum(np.count_nonzero(result.codes == c) for c in result.spec.bob_one_codes())
    p1 = count_b1 / n
    se = math.sqrt(p1 * (1.0 - p1) / n)
    return EmpiricalMarginal(p_b1=p1, p_b0=1.0 - p1, se_b1=se, se_b0=se, n=n)


def empirical_joint(result: SampleResult) -> tuple[float, ...]:
    """Outcome frequencies in label order."""
    n = len(result.codes)
    if n == 0:
        raise ValueError("empty event stream")
    k = len(result.labels())
    counts = np.bincount(result.codes, minlength=k)
    return tuple(float(c) / n for c in counts)


@dataclass(frozen=True)
class ChshEstimate:
    s_value: float
    std_error: float
    correlations: tuple[float, float, float, float]
    n_per_setting: int | None
    angles: tuple[float, float, float, float]


def estimate_chsh(
    angles: tuple[float, float, float, float] = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8),
    n: int | None = None,
    seed: int = 0,
    alpha: float = 0.0,
) -> ChshEstimate:
    """CHSH statistic S for analyzer angles (a, b, a', b').

    S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| with E the +/-1 outcome
    correlation.  n = None evaluates the analytic n -> infinity limit;
    otherwise n pairs are sampled per setting with chunk-deterministic
    seeds.  Only alpha = 0 is supported: away from the maximally
    entangled point the correlation is no longer a function of the
    relative analyzer angle alone, and this estimator would be wrong.
    """
    if len(angles) != 4:
        raise ValueError("angles must be (a, b, a_prime, b_prime)")
    if alpha % (2.0 * math.pi) != 0.0:
        raise ValueError(
            "unsupported configuration: CHSH estimation is only valid at "
            "alpha = 0 (maximally entangled source)"
        )
    a, b, ap, bp = angles
    pairs = ((a, b), (a, bp), (ap, b), (ap, bp))
    correlations = []
    variances = []
    for idx, (ta, tb) in enumerate(pairs):
        # alpha = 0: rotational invariance lets one analyzer carry the
        # relative angle while the other stays fixed
        dist = polar_joint_probabilities(0.0, ta - tb)
        if n is None:
            p11, p10, p01, p00 = dist.as_tuple()
            e = p11 - p10 - p01 + p00
            var = 0.0
        else:
            if n <= 0:
                raise ValueError(f"need a positive sample count, got {n}")
            codes = _sample_codes(dist.as_tuple(), n, (seed, idx))
            same = (codes == 0) | (codes == 3)
            e = float(same.mean() - (~same).mean())
            var = (1.0 - e * e) / n
        correlations.append(e)
        variances.append(var)
    e1, e2, e3, e4 = correlations
    s = abs(e1 - e2 + e3 + e4)
    return ChshEstimate(
        s_value=s,
        std_error=math.sqrt(sum(variances)),
        correlations=tuple(correlations),
        n_per_setting=n,
        angles=tuple(float(x) for x in angles),
    )


def events_table(result: SampleResult) -> "Table":
    """Event stream as an emittable table: the index, the outcome label and the
    three constant settings, one column each."""
    from .output import Table

    n = len(result.codes)
    return Table(
        columns=("index", "outcome", "alpha", "setting_a", "setting_b"),
        data=(np.arange(n), np.array(result.labels())[result.codes],
              *(np.broadcast_to(value, n) for value in result.spec.settings())),
    )
