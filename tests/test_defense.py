import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustfed import defense
from trustfed.errors import DomainError, NumericalError, ShapeError
from trustfed.ledger import VALID_SCORES


def make_client(cid, du, db=None, size=10, u_local=None):
    du = np.atleast_2d(np.asarray(du, float))
    if db is None:
        db = np.zeros(du.shape[0])
    if u_local is None:
        u_local = np.zeros_like(du)
    return defense.TaskClient(cid, du, np.asarray(db, float), size,
                              np.atleast_2d(np.asarray(u_local, float)))


def make_task(members, trust=None, verifier=0, rnd=1):
    trust = trust or {c.client_id: 1.0 for c in members}
    return defense.VerificationTask(verifier, tuple(members), rnd, trust)


def oracle_similarity_filter(task):
    """Straight-line reimplementation of the similarity filter (the oracle).

    Works directly on gradient deviations: the weight offset U_* - U_i points
    along du_i - du_* because every client trains away from the same global
    weights, so the suspect score is the cosine between a client's gradient
    deviation and the cohort mean gradient.
    """
    cs = task.clients
    total = sum(c.data_size for c in cs)
    g_mean = sum((c.data_size / total) * c.du for c in cs)
    if np.linalg.norm(g_mean) == 0:
        return frozenset()
    u_mean = sum((c.data_size / total) * c.u_local for c in cs)
    raw = []
    for c in cs:
        diff = u_mean - c.u_local
        if np.linalg.norm(diff) == 0:
            raw.append(0.0)
        else:
            raw.append(float(
                (diff.ravel() / np.linalg.norm(diff)) @ (g_mean.ravel() / np.linalg.norm(g_mean))))
    lo, hi = min(raw), max(raw)
    if hi == lo:
        return frozenset()
    scaled = [(a - lo) / (hi - lo) for a in raw]
    med = sorted(scaled)[(len(cs) - 1) // 2]
    return frozenset(c.client_id for c, a in zip(cs, scaled) if a > med)


def oracle_best_2partition(points):
    """Exhaustive minimum within-cluster SSE split; feasible up to ~12 points."""
    n = len(points)
    best_cost, best = None, None
    for bits in range(1, 2 ** (n - 1)):  # fix point 0 in cluster A to kill symmetry
        a_idx = [i for i in range(n) if not (bits >> i) & 1]
        b_idx = [i for i in range(n) if (bits >> i) & 1]
        if not a_idx or not b_idx:
            continue
        cost = 0.0
        for idx in (a_idx, b_idx):
            chunk = points[idx]
            cost += ((chunk - chunk.mean(axis=0)) ** 2).sum()
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, (frozenset(a_idx), frozenset(b_idx))
    return best


def reference_two_means(features):
    """The farthest-pair seeding by explicit key, ``(-d, min id, max id)``.

    Row k is client k, so ids run ``0..n-1`` in row order.  The 2-means
    iterations that follow the seeding are the production ones, spelled out.
    """
    n = len(features)
    ids = list(range(n))
    dists = np.linalg.norm(features[:, None, :] - features[None, :, :], axis=2)
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            key = (-dists[i, j], min(ids[i], ids[j]), max(ids[i], ids[j]))
            if best is None or key < best[0]:
                best = (key, i, j)
    _, i, j = best
    if dists[i, j] == 0.0:
        return None
    a, b = (i, j) if ids[i] < ids[j] else (j, i)
    center_a, center_b = features[a].copy(), features[b].copy()
    member_a = np.zeros(n, dtype=bool)
    for _ in range(defense.KMEANS_MAX_ITER):
        da = np.linalg.norm(features - center_a, axis=1)
        db = np.linalg.norm(features - center_b, axis=1)
        new_a = da <= db
        if new_a.all() or not new_a.any():
            return None
        if (new_a == member_a).all():
            break
        member_a = new_a
        center_a = features[member_a].mean(axis=0)
        center_b = features[~member_a].mean(axis=0)
    return member_a


class TestSimilarityFilter:
    def test_symmetric_two_clients_degenerate(self):
        a = make_client(0, [[1.0, 0.0]], u_local=[[1.0, 0.0]])
        b = make_client(1, [[0.0, 1.0]], u_local=[[0.0, 1.0]])
        assert defense.filter_gradient_similarity(make_task([a, b])) == frozenset()

    def test_all_equal_scores_give_empty_set(self):
        members = [make_client(i, [[1.0, 1.0]], u_local=[[2.0, 2.0]]) for i in range(4)]
        assert defense.filter_gradient_similarity(make_task(members)) == frozenset()

    def test_zero_mean_gradient_gives_empty_set(self):
        a = make_client(0, [[1.0, 0.0]], u_local=[[3.0, 1.0]])
        b = make_client(1, [[-1.0, 0.0]], u_local=[[1.0, 3.0]])
        assert defense.filter_gradient_similarity(make_task([a, b])) == frozenset()

    def test_two_aligned_among_seven(self):
        # Two clients report gradients deviating along the mean gradient
        # direction (+x), five deviate against it; the aligned pair are the
        # suspects.  u_local is reconstruction-consistent with lr = 1.
        deviations = [5.0, 5.0, -2.0, -2.0, -2.0, -2.0, -2.0]
        members = [
            make_client(i, [[10.0 + d, 0.0]], u_local=[[-(10.0 + d), 0.0]])
            for i, d in enumerate(deviations)
        ]
        task = make_task(members)
        got = defense.filter_gradient_similarity(task)
        assert got == frozenset({0, 1})
        assert got == oracle_similarity_filter(task)

    def test_matches_oracle_on_random_tasks(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            members = [
                make_client(i, rng.standard_normal((3, 4)),
                            db=rng.standard_normal(3),
                            size=int(rng.integers(1, 50)),
                            u_local=rng.standard_normal((3, 4)))
                for i in range(n)
            ]
            task = make_task(members)
            assert defense.filter_gradient_similarity(task) == oracle_similarity_filter(task)

    def test_strict_median_bounds_set_size(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            members = [
                make_client(i, rng.standard_normal((2, 3)),
                            u_local=rng.standard_normal((2, 3)))
                for i in range(n)
            ]
            got = defense.filter_gradient_similarity(make_task(members))
            assert len(got) <= n // 2

    def test_scale_invariance_of_membership(self):
        rng = np.random.default_rng(5)
        members = [
            make_client(i, rng.standard_normal((2, 3)), u_local=rng.standard_normal((2, 3)))
            for i in range(6)
        ]
        base = defense.filter_gradient_similarity(make_task(members))
        for scale in (0.01, 3.7, 250.0):
            # Scale every offset from the mean and the mean gradient together.
            sizes = [c.data_size for c in members]
            total = sum(sizes)
            u_mean = sum((s / total) * c.u_local for s, c in zip(sizes, members))
            scaled_members = [
                defense.TaskClient(c.client_id, scale * c.du, c.db, c.data_size,
                                   u_mean + scale * (c.u_local - u_mean))
                for c in members
            ]
            assert defense.filter_gradient_similarity(make_task(scaled_members)) == base

    def test_single_client_rejected(self):
        with pytest.raises(DomainError):
            defense.filter_gradient_similarity(make_task([make_client(0, [[1.0]])]))


class TestByClassFilter:
    def test_two_distinct_clients_tie_break_lowest_id(self):
        a = make_client(3, [[1.0, 0.0]], db=[0.0])
        b = make_client(9, [[5.0, 5.0]], db=[1.0])
        got = defense.filter_byclass_kmeans(make_task([a, b]))
        assert got == frozenset({3})

    def test_identical_summaries_give_empty_set(self):
        members = [make_client(i, [[1.0, 2.0]], db=[3.0]) for i in range(5)]
        assert defense.filter_byclass_kmeans(make_task(members)) == frozenset()

    def test_well_separated_groups_match_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            split = int(rng.integers(1, n))
            centers = np.array([0.0, 40.0])
            mus = []
            for i in range(n):
                group = 0 if i < split else 1
                mus.append(centers[group] + 0.5 * rng.standard_normal(4))
            members = [
                make_client(i, mu[:2, None], db=mu[2:]) for i, mu in enumerate(mus)
            ]
            trust = {i: 1.0 for i in range(n)}
            trust[0] = 0.2  # anchor the suspicious cluster on client 0's group
            task = make_task(members, trust=trust)
            got = defense.filter_byclass_kmeans(task)
            features = np.array([
                [np.linalg.norm(np.array(ma) - np.array(mb)) for mb in mus] for ma in mus
            ])
            best_a, best_b = oracle_best_2partition(features)
            expect = best_a if 0 in best_a else best_b
            assert got == frozenset(expect)

    def test_cluster_with_lowest_trust_is_flagged(self):
        low = [make_client(i, [[0.0, 0.0]], db=[float(i) * 0.01]) for i in range(3)]
        high = [make_client(i, [[10.0, 10.0]], db=[10.0 + i * 0.01]) for i in range(3, 6)]
        trust = {i: 1.0 for i in range(6)}
        trust[4] = 0.1
        got = defense.filter_byclass_kmeans(make_task(low + high, trust=trust))
        assert got == frozenset({3, 4, 5})

    def test_two_means_tie_break_matches_key_reference(self):
        # Points on a small integer grid make equal distances exact and
        # common, so the farthest pair is often tied.
        rng = np.random.default_rng(12)
        tied = 0
        for _ in range(400):
            n = int(rng.integers(2, 9))
            features = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
            dists = np.linalg.norm(features[:, None, :] - features[None, :, :], axis=2)
            tied += int(dists.max() > 0 and (dists == dists.max()).sum() > 2)
            got = defense._two_means(features)
            expect = reference_two_means(features)
            if expect is None:
                assert got is None
            else:
                assert got is not None and (got == expect).all()
        assert tied >= 100

    def test_deterministic_across_runs_and_orders(self):
        rng = np.random.default_rng(7)
        members = [
            make_client(i, rng.standard_normal((2, 3)), db=rng.standard_normal(2))
            for i in range(7)
        ]
        trust = {i: float(rng.choice([0.2, 0.6, 1.0])) for i in range(7)}
        base = defense.filter_byclass_kmeans(make_task(members, trust=trust))
        for _ in range(5):
            perm = list(members)
            rng.shuffle(perm)
            assert defense.filter_byclass_kmeans(make_task(perm, trust=trust)) == base


class TestCombineAndVerify:
    def test_score_table(self):
        got = defense.combine_scores(frozenset({1, 2}), frozenset({2, 3}), (1, 2, 3, 4))
        assert got == {1: 0.5, 2: 0.0, 3: 0.5, 4: 1.0}

    def test_identical_benign_pair_scores_at_least_half(self):
        members = [make_client(i, [[1.0, 1.0]], db=[0.5], u_local=[[2.0, 2.0]])
                   for i in range(2)]
        report = defense.verify(make_task(members))
        assert all(s >= 0.5 for s in report.scores.values())

    def test_colluding_pair_among_seven_scores_zero(self):
        # Five benign clients report small heterogeneous gradients; two
        # colluders report matching large deviant ones, dominating the cohort
        # mean so both filters nominate them.  u_local is consistent with
        # the reconstruction identity at lr = 1.
        rng = np.random.default_rng(8)
        members = []
        for i in range(5):
            du = 0.2 * rng.standard_normal((2, 2))
            members.append(make_client(i, du, db=0.1 * rng.standard_normal(2),
                                       u_local=-du))
        for i in (5, 6):
            du = np.array([[-6.0, 2.0], [2.5, 4.0]]) + 0.05 * rng.standard_normal((2, 2))
            members.append(make_client(i, du, db=[4.0, 4.0], u_local=-du))
        trust = {i: 1.0 for i in range(7)}
        trust[5] = 0.4
        task = make_task(members, trust=trust)
        report = defense.verify(task)
        assert report.scores[5] == 0.0
        assert report.scores[6] == 0.0
        s1 = defense.filter_gradient_similarity(task)
        s2 = defense.filter_byclass_kmeans(task)
        assert s1 == oracle_similarity_filter(task)
        assert {5, 6} <= set(s1)
        assert {5, 6} <= set(s2)

    def test_degenerate_task_scores_all_ones(self):
        members = [make_client(i, [[0.0, 0.0]], db=[0.0], u_local=[[1.0, 1.0]])
                   for i in range(4)]
        report = defense.verify(make_task(members))
        assert set(report.scores.values()) == {1.0}

    def test_scores_in_domain(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            members = [
                make_client(i, rng.standard_normal((3, 2)), db=rng.standard_normal(3),
                            u_local=rng.standard_normal((3, 2)))
                for i in range(n)
            ]
            report = defense.verify(make_task(members))
            assert set(report.scores.values()) <= {0.0, 0.5, 1.0}
            assert set(report.scores) == set(range(n))

    @pytest.mark.parametrize("field", ["du", "db"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_report_raises(self, field, bad):
        members = [make_client(i, [[1.0, float(i)], [0.0, 2.0]], db=[0.5, float(i)])
                   for i in range(4)]
        getattr(members[2], field)[-1] = bad
        with pytest.raises(NumericalError):
            defense.verify(make_task(members))

    def test_misshapen_report_raises(self):
        members = [make_client(i, [[1.0, float(i)], [0.0, 2.0]], db=[0.5, float(i)])
                   for i in range(3)]
        members.append(make_client(3, [[1.0, 3.0], [0.0, 2.0]], db=[0.5, 3.0, 1.0]))
        with pytest.raises(ShapeError):
            defense.verify(make_task(members))

    @pytest.mark.parametrize("n", [0, 1])
    def test_task_with_fewer_than_two_clients_rejected(self, n):
        # Both filters compare clients; the task owns the floor for both.
        members = [make_client(i, [[1.0]]) for i in range(n)]
        with pytest.raises(DomainError, match="at least two clients"):
            make_task(members)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        members = [
            make_client(i, rng.standard_normal((2, 2)), db=rng.standard_normal(2),
                        u_local=rng.standard_normal((2, 2)))
            for i in range(6)
        ]
        trust = {i: float(rng.choice([0.3, 0.8, 1.0])) for i in range(6)}
        base = defense.verify(make_task(members, trust=trust)).scores
        for _ in range(4):
            perm = list(members)
            rng.shuffle(perm)
            assert defense.verify(make_task(perm, trust=trust)).scores == base


# Small integers make exact ties (the filters' degenerate branches) common.
ENTRIES = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))


@st.composite
def tasks(draw):
    n = draw(st.integers(2, 7))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(ENTRIES, min_size=size, max_size=size))).reshape(shape)

    members = [
        make_client(cid, array(rows, cols), db=array(rows), size=draw(st.integers(1, 500)),
                    u_local=array(rows, cols))
        for cid in draw(st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True))
    ]
    trust = {c.client_id: draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for c in members}
    return members, trust


class TestVerifyProperties:
    # The contract rejects any other score, so verifiers must never emit one.
    @settings(deadline=None, max_examples=50)
    @given(tasks(), st.integers(0, 2**32 - 1))
    def test_verify_and_corruptions_emit_only_valid_scores(self, drawn, seed):
        members, trust = drawn
        report = defense.verify(make_task(members, trust=trust))
        assert set(report.scores) == {c.client_id for c in members}
        for got in (report, defense.corrupt_report(report, "random", seed),
                    defense.corrupt_report(report, "reverse", seed)):
            assert set(got.scores.values()) <= set(VALID_SCORES)

    @settings(deadline=None, max_examples=50)
    @given(tasks(), st.randoms(use_true_random=False))
    def test_verify_ignores_member_order(self, drawn, random):
        members, trust = drawn
        shuffled = list(members)
        random.shuffle(shuffled)
        assert (defense.verify(make_task(shuffled, trust=trust))
                == defense.verify(make_task(members, trust=trust)))


class TestCorruptReport:
    def make_report(self):
        return defense.ScoreReport(2, {0: 0.0, 1: 0.5, 2: 1.0, 3: 1.0}, 1)

    def test_reverse_twice_is_identity(self):
        report = self.make_report()
        back = defense.corrupt_report(
            defense.corrupt_report(report, "reverse", 0), "reverse", 0)
        assert back.scores == report.scores

    def test_reverse_of_all_ones(self):
        report = defense.ScoreReport(1, {0: 1.0, 1: 1.0}, 1)
        assert set(defense.corrupt_report(report, "reverse", 0).scores.values()) == {0.0}

    def test_reverse_keeps_halves(self):
        got = defense.corrupt_report(self.make_report(), "reverse", 0)
        assert got.scores == {0: 1.0, 1: 0.5, 2: 0.0, 3: 0.0}

    def test_random_is_seed_deterministic(self):
        report = self.make_report()
        a = defense.corrupt_report(report, "random", 11)
        b = defense.corrupt_report(report, "random", 11)
        c = defense.corrupt_report(report, "random", 12)
        assert a.scores == b.scores
        assert set(a.scores.values()) <= {0.0, 0.5, 1.0}
        assert a.scores != c.scores or True  # different seed may coincide on 4 scores

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            defense.corrupt_report(self.make_report(), "mirror", 0)


class TestAssignment:
    def test_full_subset_gives_everyone_everything(self):
        got = defense.assign_clients_to_verifiers({1, 2, 3}, [7, 8], 3, seed=0)
        assert got == {7: (1, 2, 3), 8: (1, 2, 3)}

    def test_subset_sizes_and_membership(self):
        mset = set(range(30))
        got = defense.assign_clients_to_verifiers(mset, range(15), 7, seed=1)
        assert len(got) == 15
        for subset in got.values():
            assert len(subset) == 7
            assert len(set(subset)) == 7
            assert set(subset) <= mset

    def test_oversized_subset_rejected(self):
        with pytest.raises(DomainError):
            defense.assign_clients_to_verifiers({1, 2}, [0], 3, seed=0)

    def test_coverage_rate_matches_monte_carlo_oracle(self):
        # Fraction of rounds covering all of the verification set, against an
        # independent estimate from the planner's draw-until-cover oracle.
        from trustfed import planner
        m, v, l = 10, 5, 4
        rounds = 3000
        covered = 0
        for r in range(rounds):
            got = defense.assign_clients_to_verifiers(range(m), range(v), l, seed=r)
            union = set().union(*got.values())
            covered += union == set(range(m))
        rate = covered / rounds
        est = planner.mc_coverage(m, l, trials=200000, seed=123)
        expect = est.prob_covered(v)
        sigma = np.sqrt(expect * (1 - expect) / rounds + est.prob_covered_se(v) ** 2)
        assert abs(rate - expect) <= 2.0 * sigma

    def test_seed_determinism(self):
        a = defense.assign_clients_to_verifiers(range(12), range(4), 5, seed=9)
        b = defense.assign_clients_to_verifiers(range(12), range(4), 5, seed=9)
        assert a == b


# Finite float64 values, with signed zeros, subnormals and squares that
# overflow drawn often; or values of one scale, whose sums round by order.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072e-308, 1e300, -1e300]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
ONE_SCALE = st.floats(-10.0, 10.0)


@st.composite
def laid_out(draw, ndim):
    """A float64 array in C order, Fortran order or a strided view."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    full = shape if layout != "strided" else tuple(2 * n for n in shape)
    elements = draw(st.sampled_from([FLOATS, ONE_SCALE]))
    values = draw(st.lists(elements, min_size=int(np.prod(full)), max_size=int(np.prod(full))))
    arr = np.array(values, dtype=np.float64).reshape(full)
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "strided":
        return arr[(slice(None, None, 2),) * (ndim - 1) + (slice(None, None, -2),)]
    return arr


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactHelpers:
    """The defense's norms and means are numpy's own arithmetic without its
    dispatch, so each equals the numpy call it replaces bit for bit."""

    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(laid_out))
    def test_norm_is_linalg_norm(self, x):
        with np.errstate(over="ignore"):
            assert same_bits(defense._norm(x), float(np.linalg.norm(x)))

    @settings(deadline=None)
    @given(st.integers(2, 3).flatmap(lambda ndim: st.tuples(laid_out(ndim), st.integers(0, ndim - 1))))
    def test_norms_along_an_axis_are_linalg_norm(self, case):
        d, axis = case
        with np.errstate(over="ignore"):
            assert same_bits(defense._norms(d, axis), np.linalg.norm(d, axis=axis))

    @settings(deadline=None)
    @given(laid_out(2))
    def test_mean_rows_is_mean(self, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(defense._mean_rows(rows), rows.mean(axis=0))

    def test_a_c_order_ravel_would_not_be_exact(self):
        """The whole-array norm must sum in memory order, as numpy does:
        reading a Fortran-order array row by row changes the bits."""
        def c_order_norm(x):
            v = x.ravel(order="C")
            return math.sqrt(v.dot(v))

        rng = np.random.default_rng(7)
        differs = 0
        for _ in range(50):
            x = np.asfortranarray(rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-4, 4, (9, 7)))
            expect = float(np.linalg.norm(x))
            assert same_bits(defense._norm(x), expect)
            differs += not same_bits(c_order_norm(x), expect)
        assert differs > 0
