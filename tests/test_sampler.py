"""Click-stream sampling: determinism, statistics, and the CHSH estimator."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprsim
from eprsim import cli, sampler
from eprsim.output import emit_table
from eprsim.pathbench import BOB_OUTCOMES, PATH_OUTCOMES, AliceMode, PathConfig
from eprsim.polarization import POLAR_OUTCOMES, PolarizationConfig, polar_joint_probabilities
from eprsim.sampler import (
    CHUNK_EVENTS,
    SamplerSpec,
    _chunk_codes,
    _chunk_counts,
    _per_chunk,
    empirical_marginals,
    estimate_chsh,
    events_table,
    sample_events,
    sample_outcome_codes,
    sample_outcome_counts,
)

from conftest import rows

POLAR_SPEC = SamplerSpec(config=PolarizationConfig(0.0, math.pi / 8), n=10_000, seed=7)
PATH_SPEC = SamplerSpec(
    config=PathConfig(0.0, math.pi / 3, math.pi / 5, AliceMode.SPLITTER_IN),
    n=10_000,
    seed=7,
)


class TestSamplerSpec:
    def test_rejects_plain_tuple_config(self):
        with pytest.raises(ValueError, match="bench config"):
            SamplerSpec(config=(0.0, 0.1), n=10, seed=0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=-1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=10, seed=-1)

    @pytest.mark.parametrize("value", [True, False, 2.5, 10.0, "10", None])
    @pytest.mark.parametrize("field", ["n", "seed"])
    def test_rejects_bool_and_non_integer(self, field, value):
        values = {"n": 10, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SamplerSpec(config=PolarizationConfig(0.0, 0.0), **values)

    def test_numpy_integers_allowed(self):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=np.int64(40), seed=np.uint32(7))
        want = SamplerSpec(config=POLAR_SPEC.config, n=40, seed=7)
        assert np.array_equal(sample_outcome_codes(spec).codes, sample_outcome_codes(want).codes)

    def test_zero_count_allowed(self):
        spec = SamplerSpec(config=PolarizationConfig(0.0, 0.0), n=0, seed=0)
        codes = sample_outcome_codes(spec).codes
        assert len(codes) == 0 and codes.dtype == np.uint8

    def test_outcome_labels_per_bench(self):
        assert POLAR_SPEC.config.outcomes()[0] == ("HH", "HV", "VH", "VV")
        assert PATH_SPEC.config.outcomes()[0] == ("A1B1", "A1B0", "A0B1", "A0B0")
        stopped = PathConfig(0.0, 0.0, 0.0, AliceMode.BEAM_STOP)
        assert stopped.outcomes()[0] == ("B1", "B0")

    def test_settings_polar_pads_bob_slot(self):
        assert POLAR_SPEC.settings() == (0.0, math.pi / 8, 0.0)

    def test_settings_path_carries_both_phases(self):
        assert PATH_SPEC.settings() == (0.0, math.pi / 3, math.pi / 5)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = sample_outcome_codes(POLAR_SPEC)
        b = sample_outcome_codes(POLAR_SPEC)
        assert np.array_equal(a.codes, b.codes)

    def test_worker_count_does_not_change_stream(self):
        # force several chunks so the thread pool actually matters
        spec = SamplerSpec(
            config=POLAR_SPEC.config, n=3 * CHUNK_EVENTS + 17, seed=3
        )
        serial = sample_outcome_codes(spec, workers=1)
        threaded = sample_outcome_codes(spec, workers=4)
        assert np.array_equal(serial.codes, threaded.codes)

    def test_different_seed_differs(self):
        a = sample_outcome_codes(POLAR_SPEC)
        b = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=POLAR_SPEC.n, seed=8)
        )
        assert not np.array_equal(a.codes, b.codes)

    def test_prefix_stable_under_longer_run(self):
        # chunk boundaries depend on the event count alone, so a longer
        # run must reproduce the shorter one as its prefix
        short = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=CHUNK_EVENTS, seed=5)
        )
        long = sample_outcome_codes(
            SamplerSpec(config=POLAR_SPEC.config, n=2 * CHUNK_EVENTS, seed=5)
        )
        assert np.array_equal(long.codes[:CHUNK_EVENTS], short.codes)


class TestWorkers:
    @pytest.mark.parametrize("sample", [sample_outcome_codes, sample_outcome_counts])
    @pytest.mark.parametrize("n", [0, 10, 3 * CHUNK_EVENTS])
    @pytest.mark.parametrize("workers", [0, -2, 2.5, 2.0, True, "2", None])
    def test_rejects_a_non_positive_or_non_integer_count(self, sample, n, workers):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=n, seed=0)
        with pytest.raises(ValueError, match="^workers must be"):
            sample(spec, workers=workers)

    def test_numpy_integer_allowed(self):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=3 * CHUNK_EVENTS + 17, seed=3)
        assert np.array_equal(sample_outcome_codes(spec, workers=np.int64(2)).codes,
                              sample_outcome_codes(spec).codes)
        assert sample_outcome_counts(spec, workers=np.uint8(3)).tolist() == \
            sample_outcome_counts(spec).tolist()


class TestSampledStatistics:
    def test_degenerate_distribution_is_constant(self):
        # alpha = pi/4, phi_b = pi/2 sends every photon to B1
        spec = SamplerSpec(
            config=PathConfig(math.pi / 4, 0.0, math.pi / 2, AliceMode.BEAM_STOP),
            n=100,
            seed=0,
        )
        result = sample_outcome_codes(spec)
        assert all(result.labels()[int(c)] == "B1" for c in result.codes)
        marg = empirical_marginals(sample_outcome_counts(spec))
        assert (marg.p_b1, marg.p_b0) == (1.0, 0.0)

    def test_polar_hh_frequency_within_five_sigma(self):
        spec = SamplerSpec(
            config=PolarizationConfig(0.0, math.pi / 8), n=1_000_000, seed=11
        )
        p_hh = polar_joint_probabilities(0.0, math.pi / 8).as_tuple()[0]
        assert p_hh == pytest.approx((1.0 - math.sqrt(2) / 2) / 4, abs=1e-15)
        freq = (sample_outcome_counts(spec) / spec.n)[0]
        se = math.sqrt(p_hh * (1.0 - p_hh) / spec.n)
        assert abs(freq - p_hh) < 5 * se

    def test_joint_frequencies_track_probabilities(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=200_000, seed=2)
        freqs = sample_outcome_counts(spec) / spec.n
        for freq, p in zip(freqs, spec.config.outcomes()[1]):
            se = math.sqrt(p * (1.0 - p) / spec.n)
            assert abs(freq - p) < 5 * se

    def test_path_marginal_flat_at_zero_entanglement(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=200_000, seed=4)
        marg = empirical_marginals(sample_outcome_counts(spec))
        assert abs(marg.p_b1 - 0.5) < 5 * marg.se_b1
        assert marg.n == spec.n

    # the oracle: Bob's upper outcome is the label ending in H (polar) or B1
    BOB_UPPER = ("H", "B1")

    @pytest.mark.parametrize("labels", [POLAR_OUTCOMES, PATH_OUTCOMES, BOB_OUTCOMES])
    def test_bob_upper_outcome_is_an_even_code(self, labels):
        for code, label in enumerate(labels):
            assert label.endswith(self.BOB_UPPER) == (code % 2 == 0), label

    @pytest.mark.parametrize("config", [
        PolarizationConfig(math.pi / 8, 0.3),
        PathConfig(math.pi / 8, 0.4, 1.1, AliceMode.SPLITTER_IN),
        PathConfig(math.pi / 8, 0.0, 1.1, AliceMode.BEAM_STOP),
    ], ids=["polar", "mz", "stop"])
    def test_marginals_count_bobs_labels(self, config):
        result = sample_outcome_codes(SamplerSpec(config=config, n=10_000, seed=9))
        labels = np.array(result.labels())[result.codes].tolist()
        count_b1 = sum(label.endswith(self.BOB_UPPER) for label in labels)
        marg = empirical_marginals(sample_outcome_counts(result.spec))
        assert 0 < count_b1 < 10_000
        assert (marg.p_b1, marg.p_b0, marg.n) == (count_b1 / 10_000, 1 - count_b1 / 10_000, 10_000)

    def test_empty_stream_has_no_marginals(self):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=0, seed=0)
        with pytest.raises(ValueError, match="empty"):
            empirical_marginals(sample_outcome_counts(spec))


class TestEventRecords:
    def test_events_carry_settings(self):
        spec = SamplerSpec(config=PATH_SPEC.config, n=5, seed=1)
        events = rows(events_table(sample_outcome_codes(spec)))
        assert len(events) == 5
        assert events[0] == (0, events[0][1], 0.0, math.pi / 3, math.pi / 5)
        assert [e[0] for e in events] == list(range(5))
        assert all(e[1] in spec.config.outcomes()[0] for e in events)

    def test_events_table_schema(self):
        table = events_table(sample_outcome_codes(POLAR_SPEC))
        assert table.columns == ("index", "outcome", "alpha", "setting_a", "setting_b")
        assert len(rows(table)) == POLAR_SPEC.n
        index, outcome, alpha, set_a, set_b = rows(table)[0]
        assert (index, alpha, set_a, set_b) == (0, 0.0, math.pi / 8, 0.0)
        assert outcome in POLAR_SPEC.config.outcomes()[0]

    def test_index_counts_from_start(self):
        result = sample_outcome_codes(SamplerSpec(config=PATH_SPEC.config, n=4, seed=1))
        shifted, plain = events_table(result, start=2**40), events_table(result)
        assert shifted.data[0].tolist() == [2**40 + i for i in range(4)]
        assert shifted.data[0].dtype == plain.data[0].dtype
        assert all(np.array_equal(a, b) for a, b in zip(shifted.data[1:], plain.data[1:]))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [0, 5, CHUNK_EVENTS, 2 * CHUNK_EVENTS + 3])
    def test_events_by_chunk_are_the_events_table(self, n, workers):
        # one table per sampler chunk (one empty table for n = 0), whose rows in turn are
        # the rows, dtypes and bytes of the whole stream's table
        spec = SamplerSpec(config=PATH_SPEC.config, n=n, seed=2)
        tables = list(sample_events(spec, workers))
        assert [len(t) for t in tables] == [min(CHUNK_EVENTS, n - start)
                                            for start in range(0, max(n, 1), CHUNK_EVENTS)]
        whole = events_table(sample_outcome_codes(spec))
        assert all(t.columns == whole.columns for t in tables)
        for parts, column in zip(zip(*(t.data for t in tables)), whole.data):
            assert np.concatenate(parts).dtype == column.dtype
            assert np.array_equal(np.concatenate(parts), column)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_listing_checks_its_workers_before_the_file_opens(self, fmt, tmp_path):
        # the generator's first chunk is drawn before emit_table opens the file
        path = tmp_path / "events.out"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="workers"):
            emit_table(sample_events(POLAR_SPEC, workers=0), fmt=fmt, path=path)
        assert path.read_bytes() == b"kept\n"


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
class TestListingMemory:
    """An event listing writes each chunk's rows before it draws the next chunk, so its
    peak memory does not grow with n."""

    # fixed before the first run.  At 2e6 events a listing that held the whole stream read
    # 30 MB (1 worker) and 33 MB (2) above the one-chunk listing; one that writes a chunk
    # before it draws the next reads 0.3 MB and 4 MB, the codes drawn ahead at 2 workers
    BOUND_MB = 8

    # a child's peak RSS as os.wait4 reports it counts the memory of the process that
    # started it, so a small process of its own starts the listing, not this test process
    SPAWN = ("import os, sys\n"
             "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
             "_, status, usage = os.wait4(pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")

    def peak_mb(self, n: int, workers: int, tmp_path: Path, fmt: str = "csv") -> float:
        """Peak resident memory of ``python -m eprsim sample`` writing n events to a file."""
        path = os.pathsep.join(filter(None, [str(Path(eprsim.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SPAWN, "-m", "eprsim", "sample", "--n", str(n),
             "--workers", str(workers), "--format", fmt, "--out", str(tmp_path / "events")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        status, peak_kib = map(int, done.stdout.split())
        assert (done.returncode, status) == (0, 0), done.stderr
        return peak_kib / 1024

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_does_not_grow_with_n(self, workers, tmp_path):
        one_chunk = self.peak_mb(CHUNK_EVENTS, workers, tmp_path)
        many = self.peak_mb(2_000_000, workers, tmp_path)
        assert many - one_chunk < self.BOUND_MB, (one_chunk, many)

    def test_json_peak_does_not_grow_with_n(self, tmp_path):
        # fixed before the first run.  A JSON document rendered whole holds its rows as
        # Python objects and its text, about 760 bytes an event: 150 MB more at four chunks
        one_chunk = self.peak_mb(CHUNK_EVENTS, 1, tmp_path, "json")
        four = self.peak_mb(4 * CHUNK_EVENTS, 1, tmp_path, "json")
        assert four - one_chunk < self.BOUND_MB, (one_chunk, four)


class TestChshEstimate:
    STANDARD = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)

    def test_analytic_limit_is_two_root_two(self):
        est = estimate_chsh(self.STANDARD, n=None)
        assert est.s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert est.std_error == 0.0
        assert est.n_per_setting is None

    def test_degenerate_angles_cancel(self):
        est = estimate_chsh((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4), n=None)
        assert est.s_value == pytest.approx(0.0, abs=1e-12)

    def test_sampled_estimate_exceeds_classical_bound(self):
        est = estimate_chsh(self.STANDARD, n=1_000_000, seed=0)
        assert 2.80 <= est.s_value <= 2.86
        assert (est.s_value - 2.0) / est.std_error > 30.0

    def test_sampled_estimate_is_reproducible(self):
        a = estimate_chsh(self.STANDARD, n=100_000, seed=6)
        b = estimate_chsh(self.STANDARD, n=100_000, seed=6)
        assert a == b

    def test_correlations_match_cosine_law(self):
        est = estimate_chsh(self.STANDARD, n=None)
        a, b, ap, bp = self.STANDARD
        for e, (ta, tb) in zip(
            est.correlations, ((a, b), (a, bp), (ap, b), (ap, bp))
        ):
            assert e == pytest.approx(-math.cos(2.0 * (ta - tb)), abs=1e-12)

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError, match="a_prime"):
            estimate_chsh((0.0, 1.0, 2.0), n=None)

    def test_rejects_nonpositive_sample_count(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            estimate_chsh(self.STANDARD, n=0)

    @pytest.mark.parametrize("value", ["a", None, True])
    @pytest.mark.parametrize("n", [None, 10])
    def test_rejects_an_angle_that_is_not_a_number(self, value, n):
        with pytest.raises(ValueError, match=f"^angles must be a number, got {value!r}$"):
            estimate_chsh((value, 0.0, 0.0, 0.0), n=n)

    @pytest.mark.parametrize("value", [True, False, 2.5, 1e6, "10"])
    @pytest.mark.parametrize("field", ["n", "seed"])
    def test_rejects_bool_and_non_integer(self, field, value):
        # n=True used to sample one event per setting and report S = 4
        values = {"n": 1000, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            estimate_chsh(self.STANDARD, **values)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            estimate_chsh(self.STANDARD, n=10, seed=-1)


def searchsorted_codes(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The oracle: the draw as a binary search for u, clipped to the last code."""
    return np.minimum(
        np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1
    ).astype(np.uint8)


@st.composite
def distributions(draw) -> tuple[float, ...]:
    """Probability tuples of 2 or 4 outcomes: exact zeros, one outcome at 1, and
    sums a few ulps below 1 among them."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=2, max_size=4).filter(lambda w: len(w) != 3))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    total = math.fsum(weights)
    p = [w / total for w in weights]
    largest = p.index(max(p))
    p[largest] -= draw(st.integers(0, 4)) * 2.0 ** -53
    return tuple(p)


class TestDraw:
    def check(self, probabilities, count: int, entropy: tuple[int, ...]):
        """_chunk_codes against the oracle on the same draws; returns (codes, u)."""
        cumulative = np.cumsum(probabilities)
        codes = _chunk_codes(cumulative, count, entropy)
        u = np.random.default_rng(np.random.SeedSequence(entropy)).random(count)
        assert codes.dtype == np.uint8
        assert codes.tobytes() == searchsorted_codes(cumulative, u).tobytes()
        assert (codes < len(probabilities)).all()
        # a zero-probability outcome never appears; the last code takes every u
        # above the sum, so it is exempt only when the sum falls short of 1
        last = len(probabilities) - 1
        for k, p in enumerate(probabilities):
            if p == 0.0 and (k < last or cumulative[-1] >= 1.0):
                assert k not in codes, (k, probabilities)
        return codes, u

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(distributions(), st.integers(0, 5000), st.integers(0, 2**32))
    def test_matches_binary_search(self, probabilities, count, seed):
        self.check(probabilities, count, (seed, 0))

    def test_u_above_the_sum_gets_the_last_code(self):
        # a sum well below 1 puts half of the draws in the clipped range [sum, 1)
        codes, u = self.check((0.2, 0.3), CHUNK_EVENTS, (5, 2))
        above = u >= 0.5
        assert 0.45 < above.mean() < 0.55
        assert (codes[above] == 1).all()


def bincount_of_codes(probabilities, count: int, entropy: tuple[int, ...]) -> np.ndarray:
    """The oracle for the counts kernel: the histogram of the codes it stands in for."""
    codes = _chunk_codes(np.cumsum(probabilities), count, entropy)
    return np.bincount(codes, minlength=len(probabilities))


class TestCounts:
    ZERO_AND_SHORT = [
        (0.5, 0.5),
        (0.1, 0.2, 0.3, 0.4),
        (0.0, 0.25, 0.25, 0.5),
        (0.25, 0.0, 0.25, 0.5),
        (0.25, 0.25, 0.5, 0.0),
        (0.0, 1.0),
        (1.0, 0.0),
        (0.2, 0.3),
        (0.1, 0.2, 0.3, 0.3),
        (0.25, 0.25, 0.25, 0.25 - 2.0 ** -53),
    ]

    @pytest.mark.parametrize("count", [1, CHUNK_EVENTS, CHUNK_EVENTS + 1])
    @pytest.mark.parametrize("probabilities", ZERO_AND_SHORT)
    def test_chunk_counts_are_the_codes_bincount(self, probabilities, count):
        counts = _chunk_counts(np.cumsum(probabilities), count, (3, 1))
        assert counts.dtype == np.int64
        assert counts.tolist() == bincount_of_codes(probabilities, count, (3, 1)).tolist()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(distributions(), st.integers(0, 5000), st.integers(0, 2**32))
    def test_chunk_counts_match_on_any_distribution(self, probabilities, count, seed):
        counts = _chunk_counts(np.cumsum(probabilities), count, (seed, 0))
        assert counts.tolist() == bincount_of_codes(probabilities, count, (seed, 0)).tolist()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("config", [POLAR_SPEC.config, PATH_SPEC.config,
                                        PathConfig(0.3, 0.0, 1.1, AliceMode.BEAM_STOP)],
                             ids=["polar", "mz", "stop"])
    def test_sample_outcome_counts_are_the_streams_bincount(self, config, workers):
        spec = SamplerSpec(config=config, n=3 * CHUNK_EVENTS + 17, seed=3)
        codes = sample_outcome_codes(spec, workers=1).codes
        want = np.bincount(codes, minlength=len(config.outcomes()[0]))
        assert sample_outcome_counts(spec, workers=workers).tolist() == want.tolist()

    def test_zero_events_count_zero_of_each(self):
        spec = SamplerSpec(config=POLAR_SPEC.config, n=0, seed=0)
        assert sample_outcome_counts(spec).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("n", [1, 100_003])
    def test_chsh_correlations_are_the_code_means(self, n):
        # the estimator's e from counts has the bits of the mean over the codes
        est = estimate_chsh(TestChshEstimate.STANDARD, n=n, seed=4)
        a, b, ap, bp = TestChshEstimate.STANDARD
        for idx, ((ta, tb), e) in enumerate(zip(((a, b), (a, bp), (ap, b), (ap, bp)),
                                               est.correlations)):
            probabilities = polar_joint_probabilities(0.0, ta - tb).as_tuple()
            codes = np.concatenate(list(_per_chunk(_chunk_codes, probabilities, n, (4, idx), 1)))
            same = (codes == 0) | (codes == 3)
            assert e == float(same.mean() - (~same).mean())


class TestStatisticsWithoutCodes:
    @pytest.fixture
    def no_codes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a statistic built a code array")
        monkeypatch.setattr(sampler, "_chunk_codes", refuse)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_summary(self, no_codes, workers, capsys):
        argv = ["sample", "--bench", "mz", "--alpha", "pi/8", "--bs-a", "in",
                "--n", str(3 * CHUNK_EVENTS), "--summary", "--workers", workers]
        assert cli.main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "n,p_b1,p_b0,se_b1,se_b0"
        assert row.startswith(f"{3 * CHUNK_EVENTS},")

    def test_sampled_chsh(self, no_codes, capsys):
        assert cli.main(["chsh", "--n", "200000"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.startswith("s_value,std_error,n_per_setting,")
        assert row.split(",")[2] == "200000"

    def test_listing_still_builds_codes(self, no_codes):
        with pytest.raises(AssertionError, match="code array"):
            cli.main(["sample", "--n", "5"])

    def test_empty_summary_is_an_error(self, capsys):
        assert cli.main(["sample", "--n", "0", "--summary"]) == 1
        assert "empty event stream" in capsys.readouterr().err
