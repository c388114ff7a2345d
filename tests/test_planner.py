import functools
import json
import math
import os
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustfed import planner
from trustfed.errors import DomainError
from trustfed.seeds import derive_seed


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


class TestExpectedL:
    def test_single_client_sum_is_zero(self):
        # The closed-form sum runs over subset sizes >= 1 and omits the
        # always-certain first unit of coverage; with one client every term
        # vanishes.  coverage_report carries the offset against the oracle.
        assert planner.expected_L(1, 4) == 0.0

    def test_paper_scale_suggests_seven(self):
        started = time.perf_counter()
        value = planner.expected_L(30, 15)
        assert time.perf_counter() - started < 1.0
        assert round(value) == 7

    def test_matches_monte_carlo_tail_sum(self):
        # The sum equals, over subset sizes l >= 1, the probability that the
        # verifiers miss someone; estimate each term independently.
        m, v = 5, 3
        trials = 40000
        total, var = 0.0, 0.0
        for l in range(1, m):
            est = planner.mc_coverage(m, l, trials, derive_seed(99, l))
            p_miss = 1.0 - est.prob_covered(v)
            total += p_miss
            var += p_miss * (1 - p_miss) / trials
        closed = planner.expected_L(m, v)
        assert abs(closed - total) <= 3.0 * math.sqrt(var)

    def test_non_increasing_in_verifier_count(self):
        for m in (5, 12, 30):
            values = [planner.expected_L(m, v) for v in range(1, 12)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_terms_are_the_exact_quotients_rounded(self):
        # Each term is one integer quotient, which Python rounds correctly, so
        # it equals the exact fraction converted once.
        def reference(m, v):
            total = 0.0
            for l in range(1, m + 1):
                num = sum((-1) ** (s + 1) * math.comb(m, s) * math.comb(m - s, l) ** v
                          for s in range(1, m + 1))
                total += float(Fraction(num, math.comb(m, l) ** v))
            return total

        for m in range(1, 41):
            for v in range(1, 13):
                assert planner.expected_L(m, v).hex() == reference(m, v).hex(), (m, v)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            planner.expected_L(0, 3)
        with pytest.raises(DomainError):
            planner.expected_L(3, 0)


class TestExpectedV:
    def test_full_subset_needs_one_verifier(self):
        assert planner.expected_V(6, 6) == pytest.approx(1.0, abs=1e-12)

    def test_paper_scale_evaluates_quickly(self):
        started = time.perf_counter()
        value = planner.expected_V(30, 7)
        assert time.perf_counter() - started < 1.0
        # Exact rational evaluation puts the mean at 15.7525; the floor is the
        # reference verifier count.  See the acceptance suite for the rounding
        # check against that constant.
        assert 15.0 < value < 16.0

    def test_matches_monte_carlo_mean(self):
        est = planner.mc_coverage(6, 2, trials=200000, seed=5)
        closed = planner.expected_V(6, 2)
        assert abs(closed - est.mean) <= 3.0 * est.std_err

    def test_coupon_collector_closed_form(self):
        for m in (2, 7, 20, 40):
            assert planner.expected_V(m, 1) == pytest.approx(m * harmonic(m), abs=1e-6)

    def test_two_coupons_mean_three(self):
        est = planner.mc_coverage(2, 1, trials=1000000, seed=6)
        assert abs(est.mean - 3.0) <= 3.0 * est.std_err
        assert planner.expected_V(2, 1) == pytest.approx(3.0, abs=1e-9)

    def test_non_increasing_in_subset_size(self):
        for m in (6, 15, 30):
            values = [planner.expected_V(m, l) for l in range(1, m + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_oversized_subset_rejected(self):
        with pytest.raises(DomainError):
            planner.expected_V(4, 5)

    def test_equals_the_exact_fraction_rounded_once(self):
        # The sum over s of C(m, s) / (C(m, l) - C(m - s, l)), signed, times
        # C(m, l), as an exact fraction converted to float once.
        def reference(m, l):
            c = math.comb(m, l)
            return float(c * sum(Fraction((-1) ** (s + 1) * math.comb(m, s),
                                          c - math.comb(m - s, l)) for s in range(1, m + 1)))

        for m in range(1, 61):
            for l in range(1, m + 1):
                assert planner.expected_V(m, l).hex() == reference(m, l).hex(), (m, l)


class TestMcCoverage:
    def test_full_subset_always_one_draw(self):
        est = planner.mc_coverage(9, 9, trials=100, seed=0)
        assert est.mean == 1.0
        assert est.prob_covered(1) == 1.0

    def test_same_seed_identical(self):
        a = planner.mc_coverage(8, 3, trials=5000, seed=3)
        b = planner.mc_coverage(8, 3, trials=5000, seed=3)
        assert (a.draws == b.draws).all()

    def test_different_seed_differs(self):
        a = planner.mc_coverage(8, 3, trials=5000, seed=3)
        b = planner.mc_coverage(8, 3, trials=5000, seed=4)
        assert (a.draws != b.draws).any()

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            planner.mc_coverage(5, 2, trials=0, seed=0)

    def test_oversized_subset_rejected(self):
        with pytest.raises(DomainError, match="subset_size cannot exceed m"):
            planner.mc_coverage(4, 5, trials=10, seed=0)

    def test_one_trial_has_no_standard_error(self):
        est = planner.CoverageEstimate(5, 2, np.array([4]))
        assert est.std_err == math.inf

    def test_prob_covered_monotone(self):
        est = planner.mc_coverage(10, 3, trials=20000, seed=7)
        probs = [est.prob_covered(v) for v in range(1, 30)]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_subset_and_single_paths_agree(self):
        # The geometric shortcut for single-item draws must match the generic
        # subset simulator distributionally.
        single = planner.mc_coverage(6, 1, trials=120000, seed=8)
        generic = planner._draw_counts(
            planner._newly_covered(6, 1, 120000, np.random.default_rng(9)), 120000)
        se = math.sqrt(single.std_err ** 2 + generic.std(ddof=1) ** 2 / generic.size)
        assert abs(single.mean - generic.mean()) <= 3.5 * se


class TestCoverageReport:
    def test_subset_size_planning_flags_unit_offset(self):
        report = planner.coverage_report(5, v=3, trials=20000, seed=1)
        assert report["note"] is not None
        assert abs(report["mc_estimate"] - (report["closed_form"] + 1.0)) < 0.05

    def test_verifier_planning_agrees_with_oracle(self):
        report = planner.coverage_report(6, subset_size=2, trials=50000, seed=2)
        assert report["note"] is None
        assert report["gap_sigma"] <= 3.0

    @pytest.mark.parametrize("m", [1, 5, 17, 39])
    def test_exact_agreement_is_no_gap(self, m):
        # Subsets of size M cover everything in one draw: the oracle's standard
        # error is 0 and expected_V(M, M) is exactly 1.
        report = planner.coverage_report(m, subset_size=m, trials=100, seed=4)
        assert report["closed_form"] == report["mc_estimate"] == 1.0
        assert report["mc_std_err"] == 0.0
        assert report["gap_sigma"] == 0.0
        assert report["note"] is None

    def test_disagreement_with_zero_std_err_is_flagged(self):
        report = planner.coverage_report(1, v=3, trials=100, seed=4)
        assert (report["closed_form"], report["mc_estimate"], report["mc_std_err"]) == (0.0, 1.0, 0.0)
        assert report["gap_sigma"] == math.inf
        assert report["note"] is not None

    @pytest.mark.parametrize("m, v", [(1, 3), (2, 3), (3, 9)])
    def test_suggested_subset_size_is_at_least_one(self, m, v):
        # The closed forms round to 0 here, a size the planner rejects.
        report = planner.coverage_report(m, v=v, trials=100, seed=4)
        assert round(report["closed_form"]) == 0
        assert report["suggested"] == 1

    def test_exactly_one_target_required(self):
        with pytest.raises(DomainError):
            planner.coverage_report(5, v=2, subset_size=2)
        with pytest.raises(DomainError):
            planner.coverage_report(5)


def _reference_subsets(m, subset_size, trials, rng):
    # The plain draw-until-covered loop: all keys of a draw at once, and the
    # coverage of every trial kept to the end.
    draws = np.zeros(trials, dtype=np.int64)
    covered = np.zeros((trials, m), dtype=bool)
    active = np.arange(trials)
    step = 0
    while active.size:
        step += 1
        keys = rng.random((active.size, m))
        picks = np.argpartition(keys, subset_size - 1, axis=1)[:, :subset_size]
        covered[np.repeat(active, subset_size), picks.ravel()] = True
        done = covered[active].all(axis=1)
        draws[active[done]] = step
        active = active[~done]
    return draws


def _reference_tail_sum(m, v, trials, seed):
    total, var = 1.0, 0.0
    for l in range(1, m):
        est = planner.mc_coverage(m, l, trials, derive_seed(seed, "size", l))
        p_miss = 1.0 - est.prob_covered(v)
        total += p_miss
        var += p_miss * (1.0 - p_miss) / trials
    return total, float(np.sqrt(var))


def assert_clipped_draws(m, subset_size, trials, make_rng, limit, full):
    """The first ``limit`` draws give the reference draws ``full`` where they
    are at most ``limit``, and 0 elsewhere.  Uncapped, the stream is first read
    up to the reference's last draw: a trial that a coverage bug never covers
    then reads 0 and fails here, where uncapped it would loop forever."""
    caps = [int(full.max()), None] if limit is None else [limit]
    for cap in caps:
        steps = islice(planner._newly_covered(m, subset_size, trials, make_rng()), cap)
        got = planner._draw_counts(steps, trials)
        assert np.array_equal(got, full if cap is None else np.where(full <= cap, full, 0)), cap


class TestSubsetSizeOracle:
    # 5000 trials span five blocks of keys.
    @pytest.mark.parametrize("limit", [None, 1, 4, 9, 1000])
    def test_capped_draws_are_the_reference_draws_clipped(self, limit):
        full = _reference_subsets(9, 3, 5000, np.random.default_rng(11))
        assert_clipped_draws(9, 3, 5000, lambda: np.random.default_rng(11), limit, full)

    # (12, 3) and (6, 2) include sizes l with l * v < m, which never cover;
    # (20, 20) runs the single-item path.
    @pytest.mark.parametrize("m, v", [(6, 2), (12, 3), (20, 20), (30, 15)])
    def test_equals_reference_sum_over_mc_coverage(self, m, v):
        got = planner.mc_mean_covering_subset_size(m, v, 3000, seed=7)
        assert got == _reference_tail_sum(m, v, 3000, 7)

    def test_error_in_any_size_is_raised_after_every_thread_stops(self, monkeypatch):
        real = planner._p_miss

        def fail_at_nine(m, subset_size, *args):
            if subset_size == 9:
                raise ValueError("size 9")
            return real(m, subset_size, *args)

        monkeypatch.setattr(planner, "_p_miss", fail_at_nine)
        before = threading.active_count()
        with pytest.raises(ValueError, match="size 9"):
            planner.mc_mean_covering_subset_size(30, 15, 100, 0)
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        two = planner.mc_mean_covering_subset_size(30, 15, 300, 3)

        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert planner.mc_mean_covering_subset_size(30, 15, 300, 3) == two


class CoarseKeys:
    """A generator whose keys are multiples of 1 / levels, so rows tie often.

    Drawn through ``out=`` in blocks or as one array, it gives the same
    row-major stream, like ``numpy.random.Generator.random``.
    """

    def __init__(self, seed, levels):
        self._rng = np.random.default_rng(seed)
        self._levels = levels

    def random(self, size=None, out=None):
        keys = self._rng.random(size if out is None else out.shape)
        if self._levels is not None:
            keys = np.floor(keys * self._levels) / self._levels
        if out is None:
            return keys
        out[...] = keys
        return out


def _straddles_cut(m, subset_size, trials, seed, levels):
    # Whether any row of the first draw ties its l-th and (l+1)-th smallest key.
    ranked = np.sort(CoarseKeys(seed, levels).random((trials, m)), axis=1)
    return bool((ranked[:, subset_size - 1] == ranked[:, subset_size]).any())


class TestTiedKeys:
    # Keys in steps of 1/4 tie across the cut in most rows; those rows must
    # still get exactly argpartition's picks.  5000 trials span five blocks.
    @pytest.mark.parametrize("limit", [None, 1, 4, 1000])
    def test_ties_across_the_cut_keep_argpartition_picks(self, limit):
        assert _straddles_cut(9, 3, 5000, 12, levels=4)
        full = _reference_subsets(9, 3, 5000, CoarseKeys(12, levels=4))
        assert_clipped_draws(9, 3, 5000, lambda: CoarseKeys(12, levels=4), limit, full)

    # Key levels scale with m, so ties across the cut are common yet every
    # client still gets picked often: with a few levels shared by many keys,
    # argpartition's fixed tie order could leave a client unpicked for
    # thousands of draws.
    @settings(deadline=None, max_examples=30)
    @given(st.data(), st.integers(3, 80),
           st.one_of(st.integers(1, 300), st.integers(2049, 2300)),
           st.sampled_from([None, 1, 4]), st.one_of(st.none(), st.integers(1, 40)),
           st.integers(0, 2**32 - 1))
    def test_draws_equal_the_reference(self, data, m, trials, levels_per_client, limit, seed):
        subset_size = data.draw(st.integers(2, m - 1), label="subset_size")
        levels = None if levels_per_client is None else levels_per_client * m
        full = _reference_subsets(m, subset_size, trials, CoarseKeys(seed, levels))
        assert_clipped_draws(m, subset_size, trials, lambda: CoarseKeys(seed, levels), limit, full)


def reference_mc_subsets(m, subset_size, trials, rng):
    # Each trial's draw count from planner._newly_covered with one bool per
    # client: the same key blocks, sort, cut and tie rule, OR-ing a fresh pick
    # matrix per block into a (trials, m) coverage matrix.
    l = subset_size
    draws = np.zeros(trials, dtype=np.int64)
    covered = np.zeros((trials, m), dtype=bool)
    active = np.arange(trials)
    keys = np.empty((min(trials, planner._KEY_ROWS), m))
    sorted_keys = np.empty_like(keys)
    step = 0
    while active.size:
        step += 1
        for lo in range(0, active.size, planner._KEY_ROWS):
            block = keys[:min(planner._KEY_ROWS, active.size - lo)]
            rng.random(out=block)
            ranked = sorted_keys[:len(block)]
            np.copyto(ranked, block)
            ranked.sort(axis=1)
            picked = block <= ranked[:, l - 1:l]
            tied = np.flatnonzero(ranked[:, l - 1] == ranked[:, l])
            if tied.size:
                picked[tied] = False
                picks = np.argpartition(block[tied], l - 1, axis=1)[:, :l]
                picked[tied[:, None], picks] = True
            covered[lo:lo + len(block)] |= picked
        done = covered.all(axis=1)
        if done.any():
            draws[active[done]] = step
            keep = ~done
            active = active[keep]
            covered = covered[keep]
    return draws


@functools.cache
def traced_peak_of_one_task():
    """Traced peak bytes of ``_p_miss(30, 7, 15, 20000, 6)``, measured once for
    the ``TestPackedCoverage`` bounds."""
    planner._p_miss(30, 7, 15, 10, 0)   # numpy.random imports on first use
    tracemalloc.start()
    try:
        planner._p_miss(30, 7, 15, 20000, 6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPackedCoverage:
    # m on both sides of one and of several coverage bytes; one row, two full
    # blocks of keys, and four blocks plus three rows (the trial counts, 2048
    # and 4099, name the cases); uniform keys and keys that tie across the cut.
    @pytest.mark.parametrize("m", [2, 8, 9, 30, 63, 64, 65, 129])
    @pytest.mark.parametrize("trials", [1, 2 * planner._KEY_ROWS, 4 * planner._KEY_ROWS + 3])
    @pytest.mark.parametrize("levels_per_client", [None, 4])
    def test_draws_equal_the_bool_matrix_form(self, m, trials, levels_per_client):
        subset_size = max(1, m // 3)
        levels = None if levels_per_client is None else levels_per_client * m
        full = reference_mc_subsets(m, subset_size, trials, CoarseKeys(5, levels))
        for limit in (1, None):
            assert_clipped_draws(m, subset_size, trials, lambda: CoarseKeys(5, levels), limit, full)

    # m at 3, 4 and 5 past a multiple of 8, in one coverage byte and in two.
    @pytest.mark.parametrize("m", [3, 4, 5, 11, 12, 13])
    @pytest.mark.parametrize("trials", [1, 4 * planner._KEY_ROWS + 3])
    @pytest.mark.parametrize("levels_per_client", [None, 4])
    def test_draws_equal_the_bool_matrix_form_in_part_bytes(self, m, trials, levels_per_client):
        subset_size = max(2, m // 3)
        levels = None if levels_per_client is None else levels_per_client * m
        full = reference_mc_subsets(m, subset_size, trials, CoarseKeys(9, levels))
        assert_clipped_draws(m, subset_size, trials, lambda: CoarseKeys(9, levels), None, full)

    # One task of `trustfed plan --M 30 --V 15` at its default 20000 trials
    # peaks at about 0.85 MiB of traced allocations with packed coverage
    # bytes and a count of covered trials, against 2.13 MiB for the
    # bool-matrix form above.
    def test_traced_peak_of_one_task(self):
        assert traced_peak_of_one_task() < 2.25 * 2**20

    # Coverage in bytes, not 64-bit words (about 1.66 MiB), keeps that task
    # under 1.75 MiB.
    def test_traced_peak_of_one_task_stays_below_word_coverage(self):
        assert traced_peak_of_one_task() < 1.75 * 2**20

    # Counting covered trials, with no per-trial draw count or trial index,
    # keeps that task under 0.95 MiB (1.16 MiB with both kept).
    def test_traced_peak_of_one_task_keeps_no_per_trial_arrays(self):
        assert traced_peak_of_one_task() < 0.95 * 2**20


class TestPMiss:
    # Sizes 1 (geometrics), 2, a middle size and m - 1 over two blocks of keys
    # plus three rows; v = 1, a v too small to cover (l * v < m), the median
    # draw count and a v above every trial's draw count.
    @pytest.mark.parametrize("subset_size", [1, 2, 13, 29])
    def test_equals_one_minus_prob_covered(self, subset_size):
        m, trials, seed = 30, 2 * planner._KEY_ROWS + 3, 4
        est = planner.mc_coverage(m, subset_size, trials, seed)
        for v in sorted({1, (m - 1) // subset_size, int(np.median(est.draws)),
                         int(est.draws.max()) + 1}):
            got = planner._p_miss(m, subset_size, v, trials, seed)
            assert got.hex() == (1.0 - est.prob_covered(v)).hex(), v


# The benchmark's plan reports: `trustfed plan --M 30 --V 15` and `--M 30 --L 7`
# at their default 20000 trials, as float.hex of (mc_estimate, mc_std_err,
# gap_sigma), and `--M 30 --L 1`, whose single-item (geometric) stream no case
# of the fixture below reaches.  That fixture covers only 2500 trials.
PAPER_SCALE_REPORTS = [
    (dict(v=15), 0, ("0x1.e1bcd35a85879p+2", "0x1.ccaf3980dbc04p-8", "0x1.1d0be33cc72fdp+7")),
    (dict(v=15), 6, ("0x1.e25a1cac08313p+2", "0x1.cc447a01deee9p-8", "0x1.2009db56a59afp+7")),
    (dict(subset_size=7), 0, ("0x1.f87a786c22681p+3", "0x1.0e03f7f5729b5p-5", "0x1.8279288ce2d95p-2")),
    (dict(subset_size=7), 6, ("0x1.f8374bc6a7efap+3", "0x1.0cb2839cb9dbap-5", "0x1.08bceac0442b8p-3")),
    (dict(subset_size=1), 0, ("0x1.df286594af4f1p+6", "0x1.07d7fa25a479bp-2", "0x1.de35fa3be5822p-3")),
    (dict(subset_size=1), 6, ("0x1.ddc786c22680ap+6", "0x1.076986f0f37d0p-2", "0x1.92d0aeac0e572p+0")),
]


@pytest.mark.parametrize("target, seed, want", PAPER_SCALE_REPORTS)
def test_paper_scale_report_is_pinned(target, seed, want):
    report = planner.coverage_report(30, trials=20000, seed=seed, **target)
    assert tuple(report[key].hex() for key in ("mc_estimate", "mc_std_err", "gap_sigma")) == want


# Every numeric field of coverage_report, as float.hex, for both planning
# modes at a few population sizes and seeds.  Speed-ups of the oracle must
# reproduce these bit for bit.  Re-record (only when the oracle's draws are
# meant to change) with ``PYTHONPATH=src python tests/test_planner.py``.
REPORT_FIXTURE = Path(__file__).with_name("planner_reports.json")
REPORT_TRIALS = 2500   # more than one block of keys in _newly_covered
REPORT_TARGETS = ((5, 3, 2), (10, 4, 3), (30, 15, 7), (70, 15, 10))   # (m, v, subset_size)


def _report_cases():
    cases = {}
    for m, v, subset_size in REPORT_TARGETS:
        for seed in (0, 41):
            cases[f"M{m}-V{v}-seed{seed}"] = dict(m=m, v=v, seed=seed)
            cases[f"M{m}-L{subset_size}-seed{seed}"] = dict(m=m, subset_size=subset_size, seed=seed)
    return cases


REPORT_CASES = _report_cases()


def observe_report(kwargs) -> dict:
    report = planner.coverage_report(trials=REPORT_TRIALS, **kwargs)
    return {key: float(value).hex() if isinstance(value, (int, float)) else value
            for key, value in report.items()}


@pytest.fixture(scope="module")
def recorded_reports():
    return json.loads(REPORT_FIXTURE.read_text())


class TestReportFixture:
    def test_fixture_covers_every_case(self, recorded_reports):
        assert sorted(recorded_reports) == sorted(REPORT_CASES)

    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_report_matches_fixture(self, case, recorded_reports):
        assert observe_report(REPORT_CASES[case]) == recorded_reports[case]


if __name__ == "__main__":
    REPORT_FIXTURE.write_text(json.dumps(
        {name: observe_report(kwargs) for name, kwargs in sorted(REPORT_CASES.items())},
        indent=1, sort_keys=True) + "\n")
