"""Monte Carlo click streams for the analytic benches.

Events are drawn chunk by chunk with a counter-based seed derivation:
chunk i of a run seeded with s uses the entropy tuple (s, i), and chunk
boundaries are fixed by the event count alone.  Worker threads only change
who computes a chunk, never what it contains, so a given (spec, seed)
produces an identical outcome stream for any worker count.  An event's
code is the number of cumulative-probability edges, the last one left out,
at or below its uniform draw u.  Statistics come from per-chunk outcome
counts, one count_nonzero pass per edge, so their memory does not grow with
n, nor at one worker does the event listing's: it is drawn a chunk at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import _check_count, _require_angle
from .output import Table
from .pathbench import PathConfig
from .polarization import PolarizationConfig

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
        _check_count("n", self.n, 0)
        _check_count("seed", self.seed, 0)

    def settings(self) -> tuple[float, float, float]:
        """(alpha, setting_a, setting_b) for event metadata."""
        return self.config.outcomes()[2]


@dataclass(frozen=True)
class SampleResult:
    """Outcome codes plus the labeling needed to interpret them."""

    spec: SamplerSpec
    codes: np.ndarray

    def labels(self) -> tuple[str, ...]:
        return self.spec.config.outcomes()[0]


def _chunk_codes(cumulative: np.ndarray, count: int, entropy: tuple[int, ...]) -> np.ndarray:
    u = np.random.default_rng(np.random.SeedSequence(entropy)).random(count)
    # inverse-CDF draw: count the edges at or below u, all but the last.  No probability
    # is negative, so the edges never decrease and the count is searchsorted(side="right")
    # clipped to the last code: a zero-probability outcome is skipped, and a u above a sum
    # that rounds below 1 still gets the last code
    codes = np.zeros(count, np.uint8)
    for edge in cumulative[:-1]:
        codes += u >= edge
    return codes


def _chunk_counts(cumulative: np.ndarray, count: int, entropy: tuple[int, ...]) -> np.ndarray:
    u = np.random.default_rng(np.random.SeedSequence(entropy)).random(count)
    # _chunk_codes' histogram on the same draws: as the edges never decrease, u >= edge k
    # exactly for the codes above k, so the outcome counts are differences of those counts
    return -np.diff([count, *(np.count_nonzero(u >= edge) for edge in cumulative[:-1]), 0])


def _per_chunk(kernel, probabilities: tuple[float, ...], n: int,
               entropy_base: tuple[int, ...], workers: int) -> Iterator[np.ndarray]:
    """kernel(cumulative, count, entropy) of each chunk of n events (n = 0: one), in order."""
    _check_count("workers", workers, 1)
    cumulative = np.cumsum(probabilities)
    n_chunks = max(1, (n + CHUNK_EVENTS - 1) // CHUNK_EVENTS)

    def one(i: int) -> np.ndarray:
        count = min(CHUNK_EVENTS, n - i * CHUNK_EVENTS)
        return kernel(cumulative, count, entropy_base + (i,))

    if workers > 1 and n_chunks > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: only threads need it
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(one, range(n_chunks))  # all submitted: may queue ahead
    else:
        yield from map(one, range(n_chunks))


def _sample_counts(probabilities: tuple[float, ...], n: int, entropy_base: tuple[int, ...],
                   workers: int = 1) -> np.ndarray:
    counts = _per_chunk(_chunk_counts, probabilities, n, entropy_base, workers)
    return sum(counts, np.zeros(len(probabilities), np.int64))


def sample_outcome_codes(spec: SamplerSpec, workers: int = 1) -> SampleResult:
    """Draw spec.n outcome codes; identical stream for any worker count."""
    chunks = _per_chunk(_chunk_codes, spec.config.outcomes()[1], spec.n, (spec.seed,), workers)
    return SampleResult(spec, np.concatenate(list(chunks)))


def sample_outcome_counts(spec: SamplerSpec, workers: int = 1) -> np.ndarray:
    """Each outcome's count among spec.n events, in label order: the codes' bincount."""
    return _sample_counts(spec.config.outcomes()[1], spec.n, (spec.seed,), workers)


@dataclass(frozen=True)
class EmpiricalMarginal:
    """Bob-outcome frequencies with binomial standard errors."""

    p_b1: float
    p_b0: float
    se_b1: float
    se_b0: float
    n: int


def empirical_marginals(counts: np.ndarray) -> EmpiricalMarginal:
    """Bob's singles frequencies from a sampled stream's outcome counts, in label order."""
    n = int(counts.sum())
    if n == 0:
        raise ValueError("empty event stream")
    # Bob's outcome is every bench's low code bit, 0 for his upper one (JointDistribution)
    count_b1 = int(counts[0::2].sum())
    p1 = count_b1 / n
    se = math.sqrt(p1 * (1.0 - p1) / n)
    return EmpiricalMarginal(p_b1=p1, p_b0=1.0 - p1, se_b1=se, se_b0=se, n=n)


@dataclass(frozen=True)
class ChshEstimate:
    s_value: float
    std_error: float
    correlations: tuple[float, float, float, float]
    n_per_setting: int | None


def estimate_chsh(
    angles: tuple[float, float, float, float] = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8),
    n: int | None = None,
    seed: int = 0,
) -> ChshEstimate:
    """CHSH statistic S for analyzer angles (a, b, a', b').

    S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| with E the +/-1 outcome
    correlation.  n = None evaluates the analytic n -> infinity limit;
    otherwise n pairs are sampled per setting with chunk-deterministic
    seeds.  The source is fixed at alpha = 0: away from the maximally
    entangled point the correlation is no longer a function of the
    relative analyzer angle alone, and this estimator would be wrong.
    """
    if len(angles) != 4:
        raise ValueError("angles must be (a, b, a_prime, b_prime)")
    if n is not None:
        _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    a, b, ap, bp = (_require_angle(angle, "angles") for angle in angles)
    pairs = ((a, b), (a, bp), (ap, b), (ap, bp))
    correlations = []
    variances = []
    for idx, (ta, tb) in enumerate(pairs):
        # alpha = 0: rotational invariance lets one analyzer carry the
        # relative angle while the other stays fixed
        probabilities = PolarizationConfig(0.0, ta - tb).outcomes()[1]
        if n is None:
            p11, p10, p01, p00 = probabilities
            e = p11 - p10 - p01 + p00
            var = 0.0
        else:
            counts = _sample_counts(probabilities, n, (seed, idx))
            same = int(counts[0] + counts[3])
            e = same / n - (n - same) / n
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
    )


def events_table(result: SampleResult, start: int = 0) -> Table:
    """Event stream as an emittable table: the index, counted from ``start``, the outcome
    label and the three constant settings, one column each."""
    n = len(result.codes)
    return Table(
        columns=("index", "outcome", "alpha", "setting_a", "setting_b"),
        data=(np.arange(start, start + n), np.array(result.labels())[result.codes],
              *(np.broadcast_to(value, n) for value in result.spec.settings())),
    )


def sample_events(spec: SamplerSpec, workers: int = 1) -> Iterator[Table]:
    """``events_table`` of each chunk of spec's stream in turn, each drawn as it is taken."""
    chunks = _per_chunk(_chunk_codes, spec.config.outcomes()[1], spec.n, (spec.seed,), workers)
    for i, codes in enumerate(chunks):
        yield events_table(SampleResult(spec, codes), start=i * CHUNK_EVENTS)
