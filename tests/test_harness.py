import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import trustfed
from trustfed import defense, harness, hashing, ledger, nn
from trustfed.clients import Attack
from trustfed.data import Dataset, PartitionSpec, gen_dataset, partition_non_iid
from trustfed.errors import ConfigError, DegenerateAggregationError, DomainError
from trustfed.harness import (
    SimConfig,
    emit,
    eval_ba,
    eval_detection,
    eval_ma,
    run,
)
from trustfed.hashing import model_digest
from trustfed.seeds import derive_seed

DESK_CFG = Path(__file__).resolve().parents[1] / "demos" / "desk_run.cfg"

FAST = dict(rounds=3, n_clients=12, queue_size=4, verify_set_size=4, n_verifiers=3,
            verify_subset_size=3, per_client_size=60, test_size=200,
            warm_start_size=400, warm_start_epochs=20)


class TestEvalMa:
    def test_constant_predictor(self):
        model = nn.ModelParams((nn.Layer(np.zeros((3, 2)), np.array([5.0, 0.0, 0.0])),))
        test = Dataset(np.random.default_rng(0).standard_normal((20, 2)),
                       np.zeros(20, dtype=int), 3)
        assert eval_ma(model, test) == 1.0

    def test_uniform_model_ties_to_class_zero(self):
        model = nn.ModelParams((nn.Layer(np.zeros((4, 3)), np.zeros(4)),))
        y = np.array([0, 1, 2, 3] * 5)
        test = Dataset(np.random.default_rng(1).standard_normal((20, 3)), y, 4)
        assert eval_ma(model, test) == (y == 0).mean()

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(2)
        model = nn.init_mlp(4, 6, 3, seed=3)
        test = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 3, 30), 3)
        correct = 0
        for i in range(30):
            probs = nn.forward(model, test.x[i])
            correct += int(np.argmax(probs)) == test.y[i]
        assert eval_ma(model, test) == correct / 30

    def test_empty_set_rejected(self):
        model = nn.init_mlp(2, 3, 2, seed=0)
        with pytest.raises(DomainError):
            eval_ma(model, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))

    # nn._batch owns the rule; eval_ma does not restate it.
    def test_empty_set_gets_the_batch_rule(self):
        model = nn.init_mlp(2, 3, 2, seed=0)
        with pytest.raises(DomainError, match="a batch needs at least one row"):
            eval_ma(model, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


class TestEvalBa:
    def test_hardwired_target(self):
        model = nn.ModelParams((nn.Layer(np.zeros((3, 2)), np.array([0.0, 9.0, 0.0])),))
        trig = Dataset(np.ones((10, 2)), np.ones(10, dtype=int), 3)
        assert eval_ba(model, trig, 1) == 1.0

    def test_counts_fraction_predicted_target(self):
        rng = np.random.default_rng(4)
        model = nn.init_mlp(3, 5, 3, seed=5)
        trig = Dataset(rng.standard_normal((40, 3)), np.full(40, 2), 3)
        probs = nn.forward_batch(model, trig.x)
        expect = (probs.argmax(axis=1) == 2).mean()
        assert eval_ba(model, trig, 2) == expect


class TestEvalDetection:
    def make_ledger(self, scores):
        tl = ledger.TrustLedger()
        tl.register(scores)
        for cid, vals in scores.items():
            for s in vals:
                tl.update(cid, s)
        return tl

    def test_perfect_separation(self):
        tl = self.make_ledger({0: [0.0], 1: [0.0], 2: [1.0], 3: [1.0]})
        tpr, tnr = eval_detection([0, 1, 2, 3], tl, attacker_ids={0, 1})
        assert (tpr, tnr) == (1.0, 1.0)

    def test_fresh_ledger(self):
        tl = self.make_ledger({0: [], 1: [], 2: []})
        tpr, tnr = eval_detection([0, 1, 2], tl, attacker_ids={0})
        assert (tpr, tnr) == (0.0, 1.0)

    def test_absent_when_no_attackers(self):
        tl = self.make_ledger({0: [], 1: []})
        tpr, tnr = eval_detection([0, 1], tl, attacker_ids=set())
        assert tpr is None and tnr == 1.0

    def test_empty_queue_rejected(self):
        with pytest.raises(DomainError, match="empty queue"):
            eval_detection([], self.make_ledger({0: [0.0]}), attacker_ids={0})

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        scores = {cid: [float(s) for s in rng.choice([0.0, 0.5, 1.0], size=rng.integers(0, 5))]
                  for cid in range(10)}
        tl = self.make_ledger(scores)
        attackers = {0, 3, 7}
        tpr, tnr = eval_detection(list(range(10)), tl, attackers)
        flagged = {c for c in range(10)
                   if scores[c] and sum(scores[c]) / len(scores[c]) < 0.5}
        assert tpr == len(flagged & attackers) / 3
        assert tnr == len(set(range(10)) - attackers - flagged) / 7


class TestRun:
    def test_one_round_equals_plain_fedavg_oracle(self):
        # Straight-line reimplementation of a clean one-round FedAvg pass
        # using the same labeled sub-seeds; the harness must match bit-exactly.
        cfg = SimConfig(rounds=1, attacker_ratio=0.0, defense_enabled=False, **{
            k: v for k, v in FAST.items() if k != "rounds"})
        result = run(cfg)

        import math
        pool = gen_dataset(int(math.ceil(cfg.pool_factor * cfg.n_clients * cfg.per_client_size)),
                           cfg.n_classes, cfg.n_features, derive_seed(cfg.seed, "trainpool"),
                           cfg.data_separation)
        parts = partition_non_iid(pool, PartitionSpec(cfg.n_clients, cfg.non_iid_degree,
                                                      cfg.per_client_size, derive_seed(cfg.seed, "partition")))
        model = nn.init_mlp(cfg.n_features, cfg.hidden_width, cfg.n_classes, derive_seed(cfg.seed, "init"))
        warm = gen_dataset(cfg.warm_start_size, cfg.n_classes, cfg.n_features,
                           derive_seed(cfg.seed, "warm_start"), cfg.data_separation)
        model = nn.sgd_train(model, warm.x, warm.y,
                             nn.TrainConfig(0.1, cfg.warm_start_epochs, 64, derive_seed(cfg.seed, "warm_start_train")))
        rng = np.random.default_rng(derive_seed(cfg.seed, "round", 1, "sample"))
        chosen = sorted(int(c) for c in rng.choice(cfg.n_clients, cfg.queue_size, replace=False))
        locals_ = []
        for cid in chosen:
            tc = nn.TrainConfig(cfg.learning_rate, cfg.local_epochs, cfg.batch_size,
                                derive_seed(cfg.seed, "round", 1, "client", cid))
            locals_.append(nn.sgd_train(model, parts[cid].x, parts[cid].y, tc))
        sizes = [len(parts[cid]) for cid in chosen]
        coeffs = [s / sum(sizes) for s in sizes]
        expect = nn.lincomb(locals_, coeffs)
        assert model_digest(result.final_model) == model_digest(expect)

    def test_bit_exact_determinism(self):
        cfg = dict(attacker_ratio=0.25, attack="blackbox", defense_enabled=True, seed=11, **FAST)
        a = run(SimConfig(**cfg))
        b = run(SimConfig(**cfg))
        assert model_digest(a.final_model) == model_digest(b.final_model)
        for ma, mb in zip(a.metrics, b.metrics):
            assert (ma.round_index, ma.ma, ma.ba, ma.tpr, ma.tnr) == \
                   (mb.round_index, mb.ma, mb.ba, mb.tpr, mb.tnr)
        assert ledger.export_events(a.state) == ledger.export_events(b.state)

    def test_metric_bounds(self):
        res = run(SimConfig(attacker_ratio=0.25, attack="blackbox", seed=12, **FAST))
        for m in res.metrics:
            assert 0.0 <= m.ma <= 1.0 and 0.0 <= m.ba <= 1.0
            for rate in (m.tpr, m.tnr):
                assert rate is None or 0.0 <= rate <= 1.0

    def test_scores_stay_in_domain_without_attack(self):
        res = run(SimConfig(attacker_ratio=0.0, attack="none", defense_enabled=True, seed=13, **FAST))
        snapshot = res.trust.snapshot()
        assert all(0.0 <= s <= 1.0 for s in snapshot.values())
        assert res.metrics[-1].ba <= 0.2  # base rate of a clean model

    def test_forced_unit_scores_equal_fedavg(self):
        common = dict(attacker_ratio=0.25, attack="blackbox", seed=14, **FAST)
        forced = run(SimConfig(defense_enabled=True, force_unit_scores=True, **common))
        plain = run(SimConfig(defense_enabled=False, **common))
        assert model_digest(forced.final_model) == model_digest(plain.final_model)

    def test_verify_lag_delays_trust(self):
        cfg = SimConfig(attacker_ratio=0.25, attack="blackbox", verify_lag=1, seed=15, **FAST)
        res = run(cfg)
        # lag keeps round-1 trust untouched, so nobody is flagged yet
        assert res.metrics[0].tpr in (None, 0.0)

    def test_round_without_verifiers_scores_nobody(self, monkeypatch):
        # With no verifier drawn, the round still opens verification, nobody
        # reports, and uniform trust aggregates exactly as plain FedAvg.
        common = dict(FAST, rounds=4, attacker_ratio=0.25, attack="blackbox", seed=16)
        plain = run(SimConfig(defense_enabled=False, **common))
        monkeypatch.setattr(ledger, "select_verifiers", lambda *args, **kwargs: ())
        result = run(SimConfig(**common))
        kinds = [(e.round_index, e.kind) for e in result.state.events]
        assert all((t, ledger.VERIFICATION_REQUESTED) in kinds for t in range(1, 5))
        assert not any(kind == ledger.SCORES_RECEIVED for _, kind in kinds)
        assert model_digest(result.final_model) == model_digest(plain.final_model)

    def test_lag_of_the_whole_run_applies_no_report(self):
        common = dict(FAST, attacker_ratio=0.25, attack="blackbox", seed=17)
        plain = run(SimConfig(defense_enabled=False, **common))
        result = run(SimConfig(verify_lag=FAST["rounds"], **common))
        assert all(result.trust.count(cid) == 0 for cid in result.trust.clients())
        assert model_digest(result.final_model) == model_digest(plain.final_model)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(queue_size=50, n_clients=10).validate()
        with pytest.raises(ConfigError):
            SimConfig(verify_subset_size=20, verify_set_size=10).validate()
        with pytest.raises(ConfigError):
            SimConfig(attacker_ratio=1.5).validate()
        with pytest.raises(ConfigError):
            SimConfig(verify_set_size=5, queue_size=10).validate()

    # defense.check_task_size owns the two-client floor; validate asks it.
    def test_subset_floor_is_the_verification_task_floor(self):
        alone = defense.TaskClient(0, np.zeros((2, 2)), np.zeros(2), 10, np.zeros((2, 2)))
        with pytest.raises(DomainError) as floor:
            defense.VerificationTask(0, (alone,), 1, {0: 1.0})
        with pytest.raises(ConfigError) as refused:
            SimConfig(verify_subset_size=1).validate()
        assert str(refused.value) == str(floor.value)
        assert isinstance(refused.value.__cause__, DomainError)

    def test_unknown_attack_rejected_by_validate(self):
        cfg = SimConfig(attack="trojan")
        with pytest.raises(ConfigError, match="unknown attack 'trojan'; expected one of none, blackbox, pgd, pgd_mr"):
            cfg.validate()

    def test_attack_member_equals_its_name(self):
        cfg = SimConfig(attack=Attack.PGD)
        assert cfg.validate().attack == "pgd"
        assert json.loads(json.dumps(cfg.to_dict()))["attack"] == "pgd"

    def test_fully_dishonest_verifier_pool_needs_full_compromise(self):
        with pytest.raises(ConfigError):
            SimConfig(bad_verifier_fraction=1.0, attacker_ratio=0.25).validate()
        SimConfig(bad_verifier_fraction=1.0, attacker_ratio=1.0).validate()

    @pytest.mark.parametrize("fraction, n_bad", [(0.1, 4), (0.25, 10)])
    def test_dishonest_verifiers_within_the_attackers_come_from_them(self, fraction, n_bad):
        # 0 < p * n_clients <= attackers: no outsiders join, and a seeded
        # subset of the compromised clients misbehaves (all of them at p = ratio).
        cfg = SimConfig(n_clients=40, attacker_ratio=0.25, bad_verifier_fraction=fraction, seed=3)
        attackers = harness._pick_attackers(cfg)
        pool, bad = harness._verifier_population(cfg, attackers)
        assert pool == list(range(40))
        assert len(bad) == n_bad and bad <= attackers

    def test_store_holds_one_queue_and_the_global_model(self, monkeypatch):
        # Aggregated blobs and replaced global models are evicted every round,
        # also when a zero-weight queue is dropped (forced here in round 2).
        held, stores = [], []
        real_aggregate = ledger.aggregate

        def aggregate(state, trust, store):
            held.append(len(store._blobs))
            stores.append(store)
            if state.round_counter == 2:
                state.queue = []
                raise DegenerateAggregationError("forced")
            return real_aggregate(state, trust, store)

        monkeypatch.setattr(ledger, "aggregate", aggregate)
        cfg = SimConfig(**dict(FAST, rounds=4), seed=5)
        result = run(cfg)
        assert len(held) == cfg.rounds
        assert all(n <= cfg.queue_size + 1 for n in held)
        assert set(stores[0]._blobs) == {result.state.global_model_digest}
        stores[0].fetch(result.state.global_model_digest)


class TestHashPasses:
    def test_each_submission_is_hashed_four_times(self, monkeypatch):
        # Per submission: the client's digest (kept on the model, so the
        # Submission check reuses it), the store's put, and the fetches in
        # submit and in aggregate.  Per stored global model: the put.
        passes = []

        class CountingHashlib:
            @staticmethod
            def sha256(data=b""):
                passes.append(len(data))
                return hashlib.sha256(data)

        monkeypatch.setattr(hashing, "hashlib", CountingHashlib)
        cfg = SimConfig.from_file(DESK_CFG)
        cfg.rounds = 2
        cfg.warm_start_epochs = 2
        result = run(cfg)
        assert [e.kind for e in result.state.events].count(ledger.GLOBAL_UPDATED) == 2
        assert len(passes) == 4 * cfg.rounds * cfg.queue_size + cfg.rounds + 1 == 83


class TestWarmStartMemo:
    # seed, n_features, hidden_width, n_classes, warm_start_size, warm_start_epochs, data_separation
    BASE = (3, 6, 8, 3, 60, 2, 5.0)
    CHANGED = (4, 7, 9, 4, 61, 3, 4.0)

    def test_every_input_changes_the_initial_model(self):
        base = model_digest(harness._warm_start(*self.BASE))
        for i, value in enumerate(self.CHANGED):
            args = list(self.BASE)
            args[i] = value
            assert model_digest(harness._warm_start(*args)) != base, f"argument {i}"

    def test_run_passes_its_config_to_the_memo(self, monkeypatch):
        calls = []
        real = harness._warm_start
        monkeypatch.setattr(harness, "_warm_start", lambda *a: calls.append(a) or real(*a))
        cfg = SimConfig(seed=21, data_separation=4.5, **FAST)
        run(cfg)
        assert calls == [(21, cfg.n_features, cfg.hidden_width, cfg.n_classes,
                          cfg.warm_start_size, cfg.warm_start_epochs, 4.5)]

    def test_cached_model_is_shared_and_read_only(self):
        model = harness._warm_start(*self.BASE)
        assert harness._warm_start(*self.BASE) is model
        for layer in model.layers:
            for arr in (layer.weights, layer.bias):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_memo_does_not_leak_between_runs(self):
        # B reuses the warm start that A cached; it must match B in a fresh process.
        shared = dict(attacker_ratio=0.25, seed=22, **FAST)
        run(SimConfig(attack="blackbox", **shared))
        b = run(SimConfig(attack="pgd_mr", **shared))
        script = (
            "from trustfed.harness import SimConfig, run\n"
            "from trustfed.hashing import model_digest\n"
            f"r = run(SimConfig(attack='pgd_mr', **{shared!r}))\n"
            "print(model_digest(r.final_model))\n"
            "print([(m.ma, m.ba, m.tpr, m.tnr) for m in r.metrics])\n"
        )
        src = str(Path(trustfed.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        digest, rounds = out.stdout.splitlines()
        assert model_digest(b.final_model) == digest
        assert repr([(m.ma, m.ba, m.tpr, m.tnr) for m in b.metrics]) == rounds


def _fresh_process_run(**kwargs):
    """(final-model digest, repr of per-round metrics) of ``run`` in a new interpreter."""
    script = (
        "from trustfed.harness import SimConfig, run\n"
        "from trustfed.hashing import model_digest\n"
        f"r = run(SimConfig(**{kwargs!r}))\n"
        "print(model_digest(r.final_model))\n"
        "print([(m.ma, m.ba, m.tpr, m.tnr) for m in r.metrics])\n"
    )
    src = str(Path(trustfed.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return tuple(out.stdout.splitlines())


def _data_digest(parts, test) -> str:
    h = hashlib.sha256()
    for ds in (*parts, test):
        h.update(ds.x.tobytes())
        h.update(ds.y.tobytes())
        h.update(str(ds.n_classes).encode())
    return h.hexdigest()


class TestSyntheticDataMemo:
    # seed, n_clients, non_iid_degree, per_client_size, pool_factor, n_classes,
    # n_features, data_separation, test_size
    BASE = (3, 6, 0.5, 30, 1.6, 3, 6, 5.0, 50)
    CHANGED = (4, 7, 0.3, 31, 2.0, 4, 7, 4.0, 51)

    def test_every_input_changes_the_data(self):
        base = _data_digest(*harness._synthetic_data(*self.BASE))
        for i, value in enumerate(self.CHANGED):
            args = list(self.BASE)
            args[i] = value
            assert _data_digest(*harness._synthetic_data(*args)) != base, f"argument {i}"

    def test_run_passes_its_config_to_the_memo(self, monkeypatch):
        calls = []
        real = harness._synthetic_data
        monkeypatch.setattr(harness, "_synthetic_data", lambda *a: calls.append(a) or real(*a))
        cfg = SimConfig(seed=23, non_iid_degree=0.4, pool_factor=1.7, data_separation=4.5, **FAST)
        run(cfg)
        assert calls == [(23, cfg.n_clients, 0.4, cfg.per_client_size, 1.7, cfg.n_classes,
                          cfg.n_features, 4.5, cfg.test_size)]

    def test_cached_data_is_shared_and_read_only(self):
        parts, test = harness._synthetic_data(*self.BASE)
        assert harness._synthetic_data(*self.BASE)[0] is parts
        assert harness._synthetic_data(*self.BASE)[1] is test
        assert isinstance(parts, tuple) and len(parts) == self.BASE[1]
        for ds in (*parts, test):
            for arr in (ds.x, ds.y):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_sweep_ordered_run_matches_a_fresh_process(self):
        # pgd reuses the data (and warm start) that the none runs cached.
        shared = dict(attacker_ratio=0.25, seed=24, **FAST)
        run(SimConfig(attack="none", **shared))
        run(SimConfig(attack="none", defense_enabled=False, **shared))
        b = run(SimConfig(attack="pgd", **shared))
        digest, rounds = _fresh_process_run(attack="pgd", **shared)
        assert model_digest(b.final_model) == digest
        assert repr([(m.ma, m.ba, m.tpr, m.tnr) for m in b.metrics]) == rounds

    def test_csv_rewritten_between_runs_is_read_again(self, tmp_path):
        shape = dict(n_clients=6, queue_size=3, verify_set_size=3, n_verifiers=2,
                     verify_subset_size=2, rounds=2, per_client_size=50,
                     trigger_coords=(1, 2), seed=3)

        def write(path, seed):
            ds = gen_dataset(1500, 3, 6, seed=seed)
            np.savetxt(path, np.column_stack([ds.x, ds.y]), delimiter=",")

        path = tmp_path / "data.csv"
        write(path, 1)
        first = run(SimConfig(data_csv=str(path), **shape))
        write(path, 2)
        second = run(SimConfig(data_csv=str(path), **shape))
        other = tmp_path / "other.csv"
        write(other, 2)
        reference = run(SimConfig(data_csv=str(other), **shape))
        assert model_digest(second.final_model) == model_digest(reference.final_model)
        assert model_digest(second.final_model) != model_digest(first.final_model)


class TestEmit:
    def run_small(self, seed=16):
        return run(SimConfig(attacker_ratio=0.25, attack="blackbox", seed=seed, **FAST))

    def test_csv_row_count_and_header(self, tmp_path):
        res = self.run_small()
        paths = emit(res, tmp_path)
        with open(paths["metrics"]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["round", "ma", "ba", "tpr", "tnr", "wall_time"]
        assert len(rows) == 1 + FAST["rounds"]

    def test_numpy_integer_config_values_are_written_as_numbers(self, tmp_path):
        plain = self.run_small()
        cfg = SimConfig(attacker_ratio=0.25, attack="blackbox", seed=np.int64(16),
                        **{k: np.int64(v) for k, v in FAST.items()})
        summary = json.loads(emit(run(cfg), tmp_path)["summary"].read_text())
        assert summary["seed"] == 16 and summary["config"]["n_clients"] == FAST["n_clients"]
        assert summary["final_ma"] == plain.summary["final_ma"]

    def test_rerun_identical_modulo_wall_time(self, tmp_path):
        paths_a = emit(self.run_small(), tmp_path / "a")
        paths_b = emit(self.run_small(), tmp_path / "b")
        strip = lambda p: [row[:5] for row in csv.reader(Path(p).read_text().splitlines())]
        assert strip(paths_a["metrics"]) == strip(paths_b["metrics"])
        summary_a = json.loads(Path(paths_a["summary"]).read_text())
        summary_b = json.loads(Path(paths_b["summary"]).read_text())
        summary_a.pop("mean_round_time"), summary_b.pop("mean_round_time")
        assert summary_a == summary_b

    def test_summary_round_count(self, tmp_path):
        res = self.run_small()
        paths = emit(res, tmp_path)
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["rounds"] == FAST["rounds"]
        assert summary["seed"] == 16

    def test_events_exported_one_per_line(self, tmp_path):
        res = self.run_small()
        paths = emit(res, tmp_path)
        lines = Path(paths["events"]).read_text().strip().splitlines()
        assert len(lines) == len(res.state.events)
        assert all(json.loads(line)["kind"] for line in lines)


class TestConfigFile:
    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "n_clients = 12\n"
            "queue_size = 4\n"
            "verify_set_size = 4\n"
            "attack = pgd\n"
            "defense_enabled = on\n"
            "attacker_ratio = 0.25\n"
            "trigger_coords = 1,2\n"
            "pgd_delta = 0.5\n"
            "seed = 9\n"
        )
        cfg = SimConfig.from_file(path)
        assert cfg.n_clients == 12
        assert cfg.attack == "pgd"
        assert cfg.defense_enabled is True
        assert cfg.trigger_coords == (1, 2)
        assert cfg.pgd_delta == 0.5
        assert cfg.seed == 9

    def test_none_unsets_only_optional_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("attack = none\npgd_delta = none\ndata_csv =\n")
        cfg = SimConfig.from_file(path)
        assert cfg.attack == "none"
        assert cfg.pgd_delta is None and cfg.data_csv is None

    @pytest.mark.parametrize("f", fields(SimConfig), ids=lambda f: f.name)
    def test_default_written_as_text_parses_back(self, tmp_path, f):
        if f.default is None:
            text = "none"
        elif isinstance(f.default, bool):
            text = "on" if f.default else "off"
        elif isinstance(f.default, tuple):
            text = ",".join(str(c) for c in f.default)
        else:
            text = str(f.default)
        path = tmp_path / "run.cfg"
        path.write_text(f"{f.name} = {text}\n")
        parsed = getattr(SimConfig.from_file(path), f.name)
        assert parsed == f.default and type(parsed) is type(f.default)

    @pytest.mark.parametrize("overrides", [
        {"rounds": "ten"},
        {"seed": 1.5},
        {"defense_enabled": 2},
        {"rounds": True},
        {"learning_rate": float("inf")},
        {"trigger_coords": (1, 2.0)},
        {"attack": "none", "data_csv": 3},
        {"learning_rate": 10**400},
        {"trigger_value": 10**400},
        {"trigger_coords": ()},
    ])
    def test_wrongly_typed_library_value_rejected_by_validate(self, overrides):
        cfg = SimConfig(**overrides)
        with pytest.raises(ConfigError, match=list(overrides)[-1]):
            cfg.validate()

    # Also with a CSV data set, whose feature count validate cannot know.
    @pytest.mark.parametrize("data_csv", [None, "data.csv"])
    def test_negative_trigger_coordinate_rejected_by_validate(self, data_csv):
        cfg = SimConfig(trigger_coords=(1, -1), data_csv=data_csv)
        with pytest.raises(ConfigError, match="trigger_coords"):
            cfg.validate()

    def test_numpy_integers_pass_as_ints_and_ints_as_floats(self):
        cfg = SimConfig(rounds=np.int64(3), seed=np.int32(4), learning_rate=1, trigger_value=5)
        assert cfg.validate() is cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("definitely_not_a_key = 3\n")
        with pytest.raises(ConfigError):
            SimConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("queue_size\n")
        with pytest.raises(ConfigError):
            SimConfig.from_file(path)


def _time_verify_cost(task_size: int, repeats: int = 50, seed: int = 0) -> float:
    """Mean seconds to verify one task of ``task_size`` synthetic clients.

    Used to check that per-verifier cost scales with the subset size rather
    than with the whole verification set.
    """
    rng = np.random.default_rng(seed)
    n_classes, width = 5, 32
    members = []
    for cid in range(task_size):
        members.append(defense.TaskClient(
            client_id=cid,
            du=rng.standard_normal((n_classes, width)),
            db=rng.standard_normal(n_classes),
            data_size=200,
            u_local=rng.standard_normal((n_classes, width)),
        ))
    trust_map = {cid: 1.0 for cid in range(task_size)}
    task = defense.VerificationTask(0, tuple(members), 1, trust_map)
    defense.verify(task)  # warm up
    started = time.perf_counter()
    for _ in range(repeats):
        defense.verify(task)
    return (time.perf_counter() - started) / repeats


class TestVerifierCostScaling:
    def test_per_verifier_cost_grows_with_task_size(self):
        # Distributing verification over small subsets must beat one verifier
        # scoring the whole set; the filters are superlinear in task size.
        small = _time_verify_cost(7, repeats=60, seed=0)
        large = _time_verify_cost(30, repeats=60, seed=0)
        assert small < large


class TestDefenseEffect:
    def test_defense_reduces_backdoor_on_paired_run(self):
        base = dict(rounds=40, attacker_ratio=0.25, attack="blackbox", seed=6)
        off = run(SimConfig(defense_enabled=False, **base))
        on = run(SimConfig(defense_enabled=True, **base))
        assert on.metrics[-1].ba < off.metrics[-1].ba
