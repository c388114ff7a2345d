"""Verifier-coverage planning: closed-form guidelines plus a Monte Carlo oracle.

``expected_L`` and ``expected_V`` read one inclusion-exclusion sum over
binomial coefficients, whose terms ``_terms`` states.  The terms cancel almost
completely, and past roughly fifty clients a binomial no longer fits in a
double at all, so both sums are exact over the integers: ``expected_L`` adds
one correctly rounded quotient per subset size in floating point, and
``expected_V`` divides its exact numerator by its denominator once.

``mc_coverage`` is the independent check: it repeatedly draws uniform
fixed-size subsets until the whole client set is covered and reports the
empirical draw-count distribution, read off one stream that says after each
draw which still-uncovered trials it covered.  Planning the subset size for v
verifiers needs only the probability that v draws cover, for every subset
size, so those simulations count the trials that the first v draws cover and
stop there, one per subset size with its own derived seed, run on the calling
thread and one helper thread per further CPU, and are summed in order of
size.  Such a simulation keeps the packed coverage rows of the trials still
uncovered and a count of the covered ones, with no per-trial draw count.
Each draw's keys come in blocks of 1,024 rows; that is the same random stream
as drawing them at once, and the first v draws are the same either way, so
the report is bit-identical to summing over full ``mc_coverage`` runs.

A draw of size l picks the l smallest of a row's m uniform keys.  Each block
is sorted row by row and every row picks its keys at or below its l-th
smallest, the same set ``np.argpartition`` picks whenever the l-th and
(l+1)-th smallest differ; the rare rows where they tie take argpartition's
own picks.  The speed comes from numpy's SIMD sort: with its AVX2/AVX-512
dispatch switched off, sorting is slower than argpartition at m = 30, though
the reports stay the same.

Each trial's coverage is a row of bytes, one bit per client: client j is
bit j % 8 of byte j // 8.  A block's picks are compared into one reused bool
buffer, 8 columns per byte, whose columns past m are set once per call, and
``np.packbits`` packs it into the rows' bytes.

``coverage_report`` compares the closed forms with the oracle and flags any
disagreement beyond three standard errors instead of hiding it; in
particular the closed-form ``expected_L`` sum starts one unit below the
simulated mean minimal subset size (its first, always-certain term is not part
of the sum), and the report says so rather than papering over it.
"""

import os
from dataclasses import dataclass
from itertools import islice
from math import comb

import numpy as np

from .errors import DomainError
from .seeds import derive_seed

__all__ = [
    "expected_L",
    "expected_V",
    "CoverageEstimate",
    "mc_coverage",
    "coverage_report",
]


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value}")


def _check_subset_size(m: int, subset_size: int, **more):
    _check_positive(m=m, subset_size=subset_size, **more)
    if subset_size > m:
        raise DomainError("subset_size cannot exceed m")


def _terms(m: int, l: int):
    """``((-1)**(s+1) * C(m, s), C(m - s, l))`` for s = 1..m: the signed ways to
    pick s missed clients, and the l-subsets that miss them all (0 for l > m - s)."""
    return (((-1) ** (s + 1) * comb(m, s), comb(m - s, l)) for s in range(1, m + 1))


def expected_L(m: int, v: int) -> float:
    """Closed-form guideline for the per-verifier subset size.

    Sums, over subset sizes l = 1..m, the probability that v uniform l-subsets
    of an m-set leave some element uncovered (inclusion-exclusion over the
    missed elements).
    """
    _check_positive(m=m, v=v)
    total = 0.0
    for l in range(1, m + 1):
        num = sum(t * miss ** v for t, miss in _terms(m, l))
        total += num / comb(m, l) ** v
    return total


def expected_V(m: int, subset_size: int) -> float:
    """Expected number of uniform ``subset_size``-subsets needed to cover m clients."""
    _check_subset_size(m, subset_size)
    c = comb(m, subset_size)
    num, den = 0, 1
    for t, miss in _terms(m, subset_size):
        # h > 0: for 1 <= l <= m and s >= 1, C(m, l) - C(m - s, l) >= C(m - 1, l - 1) >= 1.
        h = c - miss
        num, den = num * h + t * den, den * h
    return c * num / den


@dataclass(frozen=True)
class CoverageEstimate:
    """Empirical draw-until-cover distribution for one (m, subset_size) pair."""

    m: int
    subset_size: int
    draws: np.ndarray

    @property
    def trials(self) -> int:
        return self.draws.size

    @property
    def mean(self) -> float:
        return float(self.draws.mean())

    @property
    def std_err(self) -> float:
        if self.trials < 2:
            return float("inf")
        return float(self.draws.std(ddof=1) / np.sqrt(self.trials))

    def prob_covered(self, v: int) -> float:
        """Empirical probability that ``v`` draws already cover everything."""
        return float((self.draws <= v).mean())

    def prob_covered_se(self, v: int) -> float:
        p = self.prob_covered(v)
        return float(np.sqrt(p * (1.0 - p) / self.trials))


_KEY_ROWS = 1024   # rows of random keys drawn per block in _newly_covered


def _newly_covered(m: int, subset_size: int, trials: int, rng):
    # Draws until every trial is covered, yielding after each draw the mask
    # of still-uncovered trials, in trial order, that the draw covered; only
    # their coverage rows are kept.  Each draw's keys come in blocks of rows
    # through one reused buffer, the same row-major stream as drawing them all
    # at once in far less memory.  Picks are read off a sorted copy (see the
    # module docstring).  A row tied across the cut takes argpartition's
    # picks; it picks row by row, so they are the ones it made on the whole
    # block.  ``ranked[:, l]`` needs l < m, which every caller ensures.
    # Coverage rows are packed bytes (see the module docstring); the flag
    # columns past m are never written, so a covered trial's bytes are 0xFF.
    l = subset_size
    width = -(-m // 8)
    covered = np.zeros((trials, width), dtype=np.uint8)
    keys = np.empty((min(trials, _KEY_ROWS), m))
    sorted_keys = np.empty_like(keys)
    flags = np.ones((len(keys), 8 * width), dtype=bool)
    while len(covered):
        for lo in range(0, len(covered), _KEY_ROWS):
            block = keys[:min(_KEY_ROWS, len(covered) - lo)]
            rng.random(out=block)
            ranked = sorted_keys[:len(block)]
            np.copyto(ranked, block)
            ranked.sort(axis=1)
            picked = flags[:len(block)]
            np.less_equal(block, ranked[:, l - 1:l], out=picked[:, :m])
            tied = np.flatnonzero(ranked[:, l - 1] == ranked[:, l])
            if tied.size:
                picked[tied, :m] = False
                picks = np.argpartition(block[tied], l - 1, axis=1)[:, :l]
                picked[tied[:, None], picks] = True
            packed = np.packbits(picked, bitorder="little")
            covered[lo:lo + len(block)] |= packed.reshape(len(block), width)
        done = (covered == 0xFF).all(axis=1)
        yield done
        if done.any():
            covered = covered[~done]


def _draws(m: int, subset_size: int, trials: int, seed: int):
    # The one rule for which random stream a subset size draws from: size m
    # covers at once, size 1 sums geometrics (the classic coupon collector:
    # each trial's waiting time is an exact sum of independent geometrics),
    # any other size sorts keys.  Yields, after each draw, the mask of
    # still-uncovered trials, in trial order, that the draw covered.
    rng = np.random.default_rng(seed)
    if subset_size == m:
        yield np.ones(trials, dtype=bool)
    elif subset_size == 1:
        waits = np.zeros(trials, dtype=np.int64)
        for k in range(m):
            waits += rng.geometric((m - k) / m, size=trials)
        for step in range(1, int(waits.max()) + 1):
            done = waits == step
            yield done
            waits = waits[~done]
    else:
        yield from _newly_covered(m, subset_size, trials, rng)


def _draw_counts(masks, trials: int) -> np.ndarray:
    # Each trial's draw count from a stream of newly covered masks: the
    # number of the mask that covered it, 0 for a trial that none did.
    draws = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    for step, done in enumerate(masks, 1):
        if done.any():
            draws[active[done]] = step
            active = active[~done]
    return draws


def mc_coverage(m: int, subset_size: int, trials: int, seed: int) -> CoverageEstimate:
    """Simulate drawing uniform subsets until the m-set is covered."""
    _check_subset_size(m, subset_size, trials=trials)
    if seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    return CoverageEstimate(m, subset_size, _draw_counts(_draws(m, subset_size, trials, seed), trials))


def _p_miss(m: int, subset_size: int, v: int, trials: int, seed: int) -> float:
    # Share of trials that v draws of this size leave uncovered; the same
    # value as ``1 - mc_coverage(...).prob_covered(v)``, whose mean of a bool
    # array is this exact count divided once, simulating no further than v
    # draws.  Fewer than m picks in all can never cover the m-set.
    if subset_size * v < m:
        return 1.0
    steps = islice(_draws(m, subset_size, trials, seed), v)
    return 1.0 - sum(int(np.count_nonzero(done)) for done in steps) / trials


def mc_mean_covering_subset_size(m: int, v: int, trials: int, seed: int):
    """Monte Carlo estimate of the mean minimal subset size that covers m.

    Uses the tail-sum identity: the mean equals one plus, for every subset
    size l >= 1, the probability that v draws of size l miss someone.  Each
    term is estimated from an independent simulation with its own derived
    seed, so the calling thread and one helper thread per further CPU take
    subset sizes from one shared iterator and store each term in its size's
    slot; the terms are summed in order of l.  Once every helper has joined,
    the first error any thread caught is raised here.

    Returns (estimate, standard error).
    """
    _check_positive(m=m, v=v, trials=trials)
    import threading

    sizes = iter(range(1, m))
    lock = threading.Lock()
    p_misses = [None] * (m - 1)
    errors = []

    def work():
        try:
            while True:
                with lock:
                    l = next(sizes, None)
                if l is None:
                    return
                p_misses[l - 1] = _p_miss(m, l, v, trials, derive_seed(seed, "size", l))
        except Exception as exc:
            errors.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = [threading.Thread(target=work) for _ in range((cpus or 1) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    total = 1.0
    var = 0.0
    for p_miss in p_misses:
        total += p_miss
        var += p_miss * (1.0 - p_miss) / trials
    return total, float(np.sqrt(var))


def coverage_report(m: int, v: int = None, subset_size: int = None,
                    trials: int = 20000, seed: int = 0) -> dict:
    """Compare a closed-form value against the Monte Carlo oracle.

    Exactly one of ``v`` (plan the subset size) or ``subset_size`` (plan the
    verifier count) must be given.  The result carries both values, the
    standard error, the gap in sigmas, and a note whenever the closed form and
    the simulation disagree beyond three standard errors.  With a zero
    standard error the gap is 0 if the two values are equal and infinite if
    they are not.  The suggestion is the closed form rounded, but at least 1,
    the smallest size or count the planner accepts.
    """
    if (v is None) == (subset_size is None):
        raise DomainError("give exactly one of v or subset_size")
    if v is not None:
        closed = expected_L(m, v)
        mc_value, se = mc_mean_covering_subset_size(m, v, trials, seed)
        quantity = "per-verifier subset size"
    else:
        closed = expected_V(m, subset_size)
        est = mc_coverage(m, subset_size, trials, seed)
        mc_value, se = est.mean, est.std_err
        quantity = "verifiers needed for full coverage"
    gap = abs(closed - mc_value)
    gap_sigma = gap / se if se > 0 else (float("inf") if gap else 0.0)
    report = {
        "m": m,
        "quantity": quantity,
        "closed_form": closed,
        "suggested": max(1, round(closed)),
        "mc_estimate": mc_value,
        "mc_std_err": se,
        "gap_sigma": gap_sigma,
        "note": None,
    }
    if gap_sigma > 3.0:
        report["note"] = (
            f"closed form ({closed:.4f}) and Monte Carlo estimate "
            f"({mc_value:.4f} +- {se:.4f}) disagree by {gap_sigma:.1f} sigma; "
            "the closed-form sum omits the guaranteed first unit of coverage, "
            "so it sits about one below the simulated mean"
        )
    return report
