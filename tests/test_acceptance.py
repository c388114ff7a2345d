"""Acceptance suite: one test per release criterion, one printed line each.

The simulation criteria run the desk-scale configuration (40 clients, queue
10, 5 verifiers scoring 4 clients each, 100 rounds) on three frozen seeds.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite takes a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from trustfed import clients, defense, ledger, nn, planner
from trustfed.harness import SimConfig, run
from trustfed.hashing import model_digest
from trustfed.seeds import derive_seed

SEEDS = (6, 10, 15)
ROUNDS = 100

_cache = {}


def sim(**kwargs):
    key = tuple(sorted(kwargs.items()))
    if key not in _cache:
        _cache[key] = run(SimConfig(rounds=ROUNDS, **kwargs))
    return _cache[key]


def final(res):
    return res.metrics[-1]


def mean_rate(res, attr, start_round=20):
    values = [getattr(m, attr) for m in res.metrics[start_round - 1:]
              if getattr(m, attr) is not None]
    return float(np.mean(values)) if values else None


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    return passed


class TestCriterion1PlannerPaperConsistency:
    def test_expected_L_suggests_seven(self):
        started = time.perf_counter()
        value = planner.expected_L(30, 15)
        elapsed = time.perf_counter() - started
        ok = round(value) == 7 and elapsed < 1.0
        assert report("1a", ok, f"expected_L(30,15)={value:.4f} rounds to {round(value)} in {elapsed:.3f}s")

    def test_expected_V_suggests_fifteen(self):
        started = time.perf_counter()
        value = planner.expected_V(30, 7)
        elapsed = time.perf_counter() - started
        ok = round(value) == 15 and elapsed < 1.0
        # Exact rational evaluation of the closed-form covering-time sum gives
        # 15.7525, which rounds to 16; the reference verifier count 15 is its
        # floor.  The same sum is pinned elsewhere by the coupon-collector
        # identity and the Monte Carlo agreement tests, so the value itself is
        # right and this rounding requirement cannot be met.  Kept failing on
        # purpose rather than bending the formula; see the coverage report,
        # which surfaces closed-form/oracle gaps instead of hiding them.
        assert report("1b", ok, f"expected_V(30,7)={value:.4f} rounds to {round(value)} in {elapsed:.3f}s")

    def test_discrepancy_is_surfaced_not_hidden(self):
        rep = planner.coverage_report(10, v=4, trials=40000, seed=derive_seed(2024, "acc1"))
        ok = rep["gap_sigma"] > 3.0 and rep["note"] is not None
        assert report("1c", ok,
                      f"subset-size closed form sits {rep['gap_sigma']:.0f} sigma from the "
                      "oracle and the report carries a note saying so")


class TestCriterion2PlannerOracleAgreement:
    def test_grid_agreement_and_coupon_collector(self):
        started = time.perf_counter()
        worst = 0.0
        for m in (5, 10, 20):
            for l in sorted({1, math.ceil(m / 4), math.ceil(m / 2), m}):
                est = planner.mc_coverage(m, l, trials=1_000_000,
                                          seed=derive_seed(2024, "acc2", m, l))
                gap = abs(planner.expected_V(m, l) - est.mean)
                if est.std_err > 0:
                    worst = max(worst, gap / est.std_err)
                    assert gap <= 3.0 * est.std_err, (m, l, gap, est.std_err)
                else:
                    assert gap == 0.0
        harmonic_ok = all(
            abs(planner.expected_V(m, 1) - m * sum(1.0 / k for k in range(1, m + 1))) < 1e-6
            for m in (5, 10, 20)
        )
        elapsed = time.perf_counter() - started
        ok = harmonic_ok and elapsed < 120.0
        assert report("2", ok,
                      f"12-point grid within 3 std errors (worst {worst:.2f}), coupon-collector "
                      f"identity within 1e-6, {elapsed:.0f}s total")


class TestCriterion3AttackEfficacy:
    def test_undefended_backdoor_takes_hold(self):
        bas = []
        for seed in SEEDS:
            res = sim(attacker_ratio=0.25, attack="blackbox", defense_enabled=False, seed=seed)
            bas.append(final(res).ba)
        ok = all(ba >= 0.8 for ba in bas)
        assert report("3", ok, "undefended final BA by seed: "
                      + ", ".join(f"{ba:.3f}" for ba in bas) + " (need >= 0.8)")


class TestCriterion4DefenseEfficacy:
    def test_defended_runs_suppress_backdoor(self):
        lines = []
        ok = True
        for seed in SEEDS:
            on = sim(attacker_ratio=0.25, attack="blackbox", defense_enabled=True, seed=seed)
            clean = sim(attacker_ratio=0.0, defense_enabled=False, seed=seed)
            ba = final(on).ba
            ma_gap = final(clean).ma - final(on).ma
            tpr = mean_rate(on, "tpr")
            tnr = mean_rate(on, "tnr")
            ok = ok and ba <= 0.10 and ma_gap <= 0.05 and tpr >= 0.9 and tnr >= 0.7
            lines.append(f"seed {seed}: ba={ba:.3f} ma_gap={ma_gap:+.3f} tpr={tpr:.2f} tnr={tnr:.2f}")
        assert report("4", ok, "; ".join(lines))


class TestCriterion5AttackVariants:
    @pytest.mark.parametrize("attack", ["pgd", "pgd_mr"])
    def test_variant_bounds(self, attack):
        lines = []
        ok = True
        for seed in SEEDS:
            res = sim(attacker_ratio=0.25, attack=attack, defense_enabled=True, seed=seed)
            clean = sim(attacker_ratio=0.0, defense_enabled=False, seed=seed)
            ba = final(res).ba
            ma_gap = final(clean).ma - final(res).ma
            ok = ok and ba <= 0.10 and ma_gap <= 0.05
            lines.append(f"seed {seed}: ba={ba:.3f} ma_gap={ma_gap:+.3f}")
        assert report(f"5:{attack}", ok, "; ".join(lines))


class TestCriterion6VerifierCorruption:
    def test_caav_withstands_reverse_scores(self):
        lines = []
        ok = True
        for seed in SEEDS:
            caav = sim(attacker_ratio=0.25, attack="blackbox", verifier_policy="caav",
                       bad_verifier_fraction=0.3, bad_verifier_mode="reverse", seed=seed)
            open_ = sim(attacker_ratio=0.25, attack="blackbox", verifier_policy="open",
                        bad_verifier_fraction=0.3, bad_verifier_mode="reverse", seed=seed)
            caav_ba, open_ba = final(caav).ba, final(open_).ba
            ok = ok and caav_ba <= 0.10 and open_ba > caav_ba
            lines.append(f"seed {seed}: caav={caav_ba:.3f} open={open_ba:.3f}")
        assert report("6", ok, "; ".join(lines))


class TestCriterion7UnitAndPropertySuites:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(70)
        worst = 0.0
        for _ in range(5):
            dims = [3, 4, 2]
            layers = [nn.Layer(rng.standard_normal((o, i)), rng.standard_normal(o))
                      for o, i in zip(dims[1:], dims[:-1])]
            model = nn.ModelParams(tuple(layers))
            x = rng.standard_normal((6, 3))
            y = rng.integers(0, 2, 6)
            analytic = nn.gradients(model, x, y)
            step = 1e-5
            for k, layer in enumerate(model.layers):
                for idx in np.ndindex(layer.weights.shape):
                    def shifted(eps):
                        ws = [l.weights.copy() for l in model.layers]
                        bs = [l.bias.copy() for l in model.layers]
                        ws[k][idx] += eps
                        shifted_model = nn.ModelParams(tuple(
                            nn.Layer(w, b) for w, b in zip(ws, bs)))
                        return nn.loss(shifted_model, x, y)
                    fd = (shifted(step) - shifted(-step)) / (2 * step)
                    scale = max(abs(fd), 1e-3)
                    worst = max(worst, abs(analytic[k].weights[idx] - fd) / scale)
        ok = worst < 1e-4
        assert report("7:gradcheck", ok, f"worst relative gradient error {worst:.2e}")

    def test_trust_mean_identity(self):
        rng = np.random.default_rng(71)
        tl = ledger.TrustLedger()
        tl.register([0])
        history = []
        ok = True
        for _ in range(500):
            s = float(rng.choice([0.0, 0.5, 1.0]))
            history.append(s)
            tl.update(0, s)
            ok = ok and tl.trust(0) == sum(history) / len(history)
        assert report("7:trust-mean", ok, f"running trust equals exact mean over {len(history)} updates")

    def test_aggregation_weight_scale_invariance(self):
        def agg(scale):
            store = ledger.OffchainStore()
            models = [nn.init_mlp(3, 4, 2, seed=s) for s in range(3)]
            state = ledger.ContractState(3, store.put(nn.to_bytes(models[0])))
            tl = ledger.TrustLedger()
            tl.register([0, 1, 2])
            for cid, model in enumerate(models):
                zeros = nn.UltimateGradient(np.zeros((2, 4)), np.zeros(2), cid, 1)
                sub = clients.Submission(cid, model, zeros, scale * (cid + 3),
                                         model_digest(model), 1)
                store.put(nn.to_bytes(model))
                ledger.submit(state, store, sub)
            return nn.to_bytes(ledger.aggregate(state, tl, store))
        ok = agg(1) == agg(2) == agg(8) == agg(3)
        assert report("7:weight-scale", ok, "aggregate bit-identical under weight scaling")

    def test_similarity_set_bounded_by_half(self):
        rng = np.random.default_rng(72)
        ok = True
        for _ in range(300):
            n = int(rng.integers(2, 11))
            members = tuple(
                defense.TaskClient(i, rng.standard_normal((2, 3)), rng.standard_normal(2),
                                   int(rng.integers(1, 40)), rng.standard_normal((2, 3)))
                for i in range(n)
            )
            task = defense.VerificationTask(0, members, 1, {i: 1.0 for i in range(n)})
            ok = ok and len(defense.filter_gradient_similarity(task)) <= n // 2
        assert report("7:median-bound", ok, "|S1| <= floor(n/2) over 300 random tasks")

    def test_two_means_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(73)
        ok = True
        for _ in range(20):
            n = int(rng.integers(4, 13))
            split = int(rng.integers(1, n))
            mus = np.array([
                (0.0 if i < split else 30.0) + rng.standard_normal(4) for i in range(n)
            ])
            members = tuple(
                defense.TaskClient(i, mus[i][:2, None], mus[i][2:], 10,
                                   np.zeros((2, 1)))
                for i in range(n)
            )
            trust = {i: 1.0 for i in range(n)}
            trust[0] = 0.1
            task = defense.VerificationTask(0, members, 1, trust)
            got = defense.filter_byclass_kmeans(task)
            features = np.array([[np.linalg.norm(a - b) for b in mus] for a in mus])
            best_cost, best = None, None
            for bits in range(1, 2 ** (n - 1)):
                a_idx = [i for i in range(n) if not (bits >> i) & 1]
                b_idx = [i for i in range(n) if (bits >> i) & 1]
                cost = sum(((features[idx] - features[idx].mean(axis=0)) ** 2).sum()
                           for idx in (a_idx, b_idx))
                if best_cost is None or cost < best_cost:
                    best_cost, best = cost, (frozenset(a_idx), frozenset(b_idx))
            expect = best[0] if 0 in best[0] else best[1]
            ok = ok and got == expect
        assert report("7:kmeans-oracle", ok, "clusters match exhaustive min-SSE split on 20 tasks")

    def test_reverse_corruption_is_involution(self):
        rng = np.random.default_rng(74)
        ok = True
        for _ in range(50):
            scores = {i: float(rng.choice([0.0, 0.5, 1.0])) for i in range(8)}
            rep = defense.ScoreReport(1, scores, 1)
            twice = defense.corrupt_report(defense.corrupt_report(rep, "reverse", 0), "reverse", 0)
            ok = ok and twice.scores == scores
        assert report("7:reverse-involution", ok, "reverse twice restores every report")

    def test_hash_tamper_rejected(self):
        store = ledger.OffchainStore()
        model = nn.init_mlp(3, 4, 2, seed=7)
        digest = store.put(nn.to_bytes(model))
        blob = bytearray(store._blobs[digest])
        blob[10] ^= 0x01
        store._blobs[digest] = bytes(blob)
        try:
            store.fetch(digest)
            ok = False
        except ledger.IntegrityError:
            ok = True
        except Exception:
            ok = False
        assert report("7:hash-tamper", ok, "single flipped byte fails integrity check")

    def test_full_run_determinism(self):
        cfg = dict(rounds=10, n_clients=12, queue_size=4, verify_set_size=4, n_verifiers=3,
                   verify_subset_size=3, per_client_size=60, test_size=200,
                   warm_start_size=400, warm_start_epochs=20,
                   attacker_ratio=0.25, attack="blackbox", seed=77)
        a = run(SimConfig(**cfg))
        b = run(SimConfig(**cfg))
        ok = (model_digest(a.final_model) == model_digest(b.final_model)
              and [(m.ma, m.ba, m.tpr, m.tnr) for m in a.metrics]
              == [(m.ma, m.ba, m.tpr, m.tnr) for m in b.metrics])
        assert report("7:determinism", ok, "paired 10-round runs bit-identical")


class TestCriterion8ForcedScoreEquivalence:
    def test_unit_scores_reproduce_fedavg(self):
        digests = []
        for seed in SEEDS:
            common = dict(rounds=20, attacker_ratio=0.25, attack="blackbox", seed=seed)
            forced = run(SimConfig(defense_enabled=True, force_unit_scores=True, **common))
            plain = run(SimConfig(defense_enabled=False, **common))
            digests.append(model_digest(forced.final_model) == model_digest(plain.final_model))
        ok = all(digests)
        assert report("8", ok, f"20-round forced-score runs bit-identical to plain averaging: {digests}")
