from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustfed import clients, ledger, nn
from trustfed.errors import (
    DegenerateAggregationError,
    DomainError,
    IntegrityError,
    RegistryError,
)
from trustfed.hashing import model_digest


def constant_model(value, width=2):
    w = np.full((2, width), float(value))
    b = np.full(2, float(value))
    return nn.ModelParams((nn.Layer(w, b),))


def make_submission(client_id, model, data_size=10, round_index=1):
    zeros = nn.UltimateGradient(np.zeros_like(model.layers[-1].weights),
                                np.zeros_like(model.layers[-1].bias),
                                client_id, round_index)
    return clients.Submission(client_id, model, zeros, data_size,
                              model_digest(model), round_index)


def fresh_contract(capacity, model=None):
    store = ledger.OffchainStore()
    model = model or constant_model(0.0)
    state = ledger.ContractState(capacity, store.put(nn.to_bytes(model)))
    return state, store


def unscored_ledger(n):
    tl = ledger.TrustLedger()
    tl.register(range(n))
    return tl


def submit_models(state, store, models, sizes=None):
    sizes = sizes or [10] * len(models)
    subs = []
    for cid, (model, size) in enumerate(zip(models, sizes)):
        sub = make_submission(cid, model, data_size=size)
        store.put(nn.to_bytes(model))
        ledger.submit(state, store, sub)
        subs.append(sub)
    return subs


class TestTrustLedger:
    def test_first_zero_score_drops_trust_to_zero(self):
        tl = ledger.TrustLedger()
        tl.register([5])
        assert tl.trust(5) == 1.0 and tl.count(5) == 0
        tl.update(5, 0.0)
        assert tl.trust(5) == 0.0 and tl.count(5) == 1

    def test_running_mean_sequence(self):
        tl = ledger.TrustLedger()
        tl.register([1])
        tl.update(1, 1.0)
        tl.update(1, 0.0)
        assert tl.trust(1) == 0.5
        tl.update(1, 1.0)
        assert tl.trust(1) == 2.0 / 3.0

    def test_trust_equals_mean_of_history_exactly(self):
        rng = np.random.default_rng(1)
        tl = ledger.TrustLedger()
        tl.register([0])
        history = []
        for _ in range(200):
            s = float(rng.choice([0.0, 0.5, 1.0]))
            history.append(s)
            tl.update(0, s)
            assert tl.trust(0) == sum(history) / len(history)
            assert 0.0 <= tl.trust(0) <= 1.0

    def test_unknown_client_rejected(self):
        tl = ledger.TrustLedger()
        with pytest.raises(RegistryError):
            tl.update(3, 1.0)

    def test_invalid_score_rejected(self):
        tl = ledger.TrustLedger()
        tl.register([0])
        with pytest.raises(DomainError):
            tl.update(0, 0.3)


class TestSubmitAndStore:
    def test_single_submit_fills_unit_queue(self):
        state, store = fresh_contract(1)
        submit_models(state, store, [constant_model(1.0)])
        kinds = [e.kind for e in state.events]
        assert kinds == [ledger.MODEL_SUBMITTED, ledger.QUEUE_FULL]

    def test_tampered_blob_rejected(self):
        state, store = fresh_contract(2)
        model = constant_model(1.0)
        sub = make_submission(0, model)
        digest = store.put(nn.to_bytes(model))
        blob = bytearray(store._blobs[digest])
        blob[-1] ^= 0xFF
        store._blobs[digest] = bytes(blob)
        with pytest.raises(IntegrityError):
            ledger.submit(state, store, sub)
        assert state.queue == [] and state.events == []

    def test_missing_blob_rejected(self):
        state, store = fresh_contract(2)
        sub = make_submission(0, constant_model(1.0))
        with pytest.raises(IntegrityError):
            ledger.submit(state, store, sub)

    def test_full_queue_rejected(self):
        state, store = fresh_contract(1)
        submit_models(state, store, [constant_model(1.0)])
        events = list(state.events)
        late = constant_model(2.0)
        store.put(nn.to_bytes(late))
        with pytest.raises(DomainError, match="aggregation queue is full"):
            ledger.submit(state, store, make_submission(1, late))
        assert len(state.queue) == 1 and state.events == events

    def test_thirty_submits_emit_one_queue_full(self):
        state, store = fresh_contract(30)
        submit_models(state, store, [constant_model(i) for i in range(30)])
        kinds = [e.kind for e in state.events]
        assert kinds.count(ledger.QUEUE_FULL) == 1
        assert kinds.count(ledger.MODEL_SUBMITTED) == 30

    def test_store_roundtrip(self):
        store = ledger.OffchainStore()
        blob = b"some model bytes"
        digest = store.put(blob)
        assert store.fetch(digest) == blob
        assert digest in store

    def test_store_discard(self):
        store = ledger.OffchainStore()
        kept, dropped = store.put(b"kept"), store.put(b"dropped")
        store.discard([dropped, "0" * 64])
        assert dropped not in store
        assert store.fetch(kept) == b"kept"
        with pytest.raises(IntegrityError):
            store.fetch(dropped)


class TestAggregate:
    def test_equal_weights_average(self):
        state, store = fresh_contract(2)
        submit_models(state, store, [constant_model(1.0), constant_model(3.0)])
        tl = ledger.TrustLedger()
        tl.register([0, 1])
        out = ledger.aggregate(state, tl, store)
        assert np.allclose(nn.flatten(out), 2.0, atol=1e-12)
        assert state.queue == []

    def test_zero_trust_drops_model(self):
        state, store = fresh_contract(2)
        submit_models(state, store, [constant_model(1.0), constant_model(3.0)])
        tl = ledger.TrustLedger()
        tl.register([0, 1])
        tl.update(0, 0.0)
        out = ledger.aggregate(state, tl, store)
        assert np.allclose(nn.flatten(out), 3.0, atol=1e-12)

    def test_size_weighted_mean(self):
        state, store = fresh_contract(2)
        submit_models(state, store, [constant_model(1.0), constant_model(3.0)], sizes=[1, 3])
        tl = ledger.TrustLedger()
        tl.register([0, 1])
        out = ledger.aggregate(state, tl, store)
        assert np.allclose(nn.flatten(out), 2.5, atol=1e-12)

    def test_queued_model_cannot_be_changed_after_its_digest_is_checked(self):
        # Fault injection: a client keeps a handle on its submitted model and
        # tries to rewrite it in place before the contract aggregates.
        models = [constant_model(0.1), constant_model(0.3)]
        state, store = fresh_contract(2)
        subs = submit_models(state, store, models)
        w = subs[0].model.layers[0].weights
        with pytest.raises(ValueError):
            w.flags.writeable = True
        with pytest.raises(ValueError):
            w[0, 0] = 1e6
        out = ledger.aggregate(state, unscored_ledger(2), store)
        assert model_digest(out) == model_digest(nn.lincomb(models, [0.5, 0.5]))
        assert np.allclose(nn.flatten(out), 0.2, atol=1e-12)

    def test_weight_scaling_is_bit_identical(self):
        # Doubling sizes (or halving trust uniformly) must not move a bit.
        models = [constant_model(v) for v in (0.3, 1.7, -2.2)]
        tl = ledger.TrustLedger()
        tl.register([0, 1, 2])
        results = []
        for scale in (1, 2, 4, 8):
            state, store = fresh_contract(3)
            submit_models(state, store, models, sizes=[7 * scale, 11 * scale, 13 * scale])
            results.append(nn.to_bytes(ledger.aggregate(state, tl, store)))
        assert len(set(results)) == 1

    def test_halved_trust_is_bit_identical(self):
        models = [constant_model(v) for v in (0.5, -1.5)]
        full = ledger.TrustLedger()
        full.register([0, 1])  # trust 1, 1
        half = ledger.TrustLedger()
        half.register([0, 1])
        for cid in (0, 1):
            half.update(cid, 1.0)
            half.update(cid, 0.0)  # trust exactly 0.5 each
        outs = []
        for tl in (full, half):
            state, store = fresh_contract(2)
            submit_models(state, store, models)
            outs.append(nn.to_bytes(ledger.aggregate(state, tl, store)))
        assert outs[0] == outs[1]

    def test_all_trust_one_equals_fedavg_bit_exact(self):
        models = [constant_model(v) for v in (0.1, 2.3, -0.7)]
        tl = ledger.TrustLedger()
        tl.register([0, 1, 2])
        for cid in (0, 1, 2):
            tl.update(cid, 1.0)
        state1, store1 = fresh_contract(3)
        submit_models(state1, store1, models, sizes=[5, 9, 2])
        trusted = ledger.aggregate(state1, tl, store1)
        state2, store2 = fresh_contract(3)
        submit_models(state2, store2, models, sizes=[5, 9, 2])
        plain = ledger.aggregate(state2, unscored_ledger(3), store2)
        assert nn.to_bytes(trusted) == nn.to_bytes(plain)

    def test_model_replacement_dominates_fedavg(self):
        g = constant_model(0.0)
        local = constant_model(1.0)
        k = 4
        boosted = clients.model_replace(local, g, float(k))
        state, store = fresh_contract(k, model=g)
        submit_models(state, store, [boosted] + [g] * (k - 1))
        out = ledger.aggregate(state, unscored_ledger(k), store)
        assert np.allclose(nn.flatten(out), nn.flatten(local), atol=1e-9)

    def test_single_model_queue(self):
        state, store = fresh_contract(1)
        submit_models(state, store, [constant_model(4.2)])
        out = ledger.aggregate(state, unscored_ledger(1), store)
        assert np.allclose(nn.flatten(out), 4.2, atol=1e-12)

    def test_partial_queue_rejected(self):
        state, store = fresh_contract(3)
        submit_models(state, store, [constant_model(1.0)])
        tl = ledger.TrustLedger()
        tl.register([0])
        with pytest.raises(DomainError):
            ledger.aggregate(state, tl, store)

    def test_degenerate_aggregation_freezes_global(self):
        state, store = fresh_contract(2)
        submit_models(state, store, [constant_model(1.0), constant_model(3.0)])
        before = state.global_model_digest
        tl = ledger.TrustLedger()
        tl.register([0, 1])
        tl.update(0, 0.0)
        tl.update(1, 0.0)
        with pytest.raises(DegenerateAggregationError):
            ledger.aggregate(state, tl, store)
        assert state.global_model_digest == before
        assert state.queue == []
        assert state.events[-1].kind == ledger.DEGENERATE_AGGREGATION

    def test_digest_matches_stored_global_after_update(self):
        state, store = fresh_contract(2)
        submit_models(state, store, [constant_model(1.0), constant_model(2.0)])
        out = ledger.aggregate(state, unscored_ledger(2), store)
        blob = store.fetch(state.global_model_digest)
        assert blob == nn.to_bytes(out)
        updated = [e for e in state.events if e.kind == ledger.GLOBAL_UPDATED]
        assert updated[-1].digest == state.global_model_digest

    def assert_refused_unchanged(self, state, store):
        before = (state.global_model_digest, list(state.queue), list(state.events))
        with pytest.raises(IntegrityError):
            ledger.aggregate(state, unscored_ledger(2), store)
        assert (state.global_model_digest, state.queue, state.events) == before

    def test_blob_altered_after_submit_refused(self):
        state, store = fresh_contract(2)
        subs = submit_models(state, store, [constant_model(1.0), constant_model(2.0)])
        digest = subs[1].model_digest
        blob = bytearray(store._blobs[digest])
        blob[-1] ^= 0xFF
        store._blobs[digest] = bytes(blob)
        self.assert_refused_unchanged(state, store)

    def test_blob_deleted_after_submit_refused(self):
        state, store = fresh_contract(2)
        subs = submit_models(state, store, [constant_model(1.0), constant_model(2.0)])
        del store._blobs[subs[0].model_digest]
        self.assert_refused_unchanged(state, store)


class TestVerificationSelection:
    def test_queue_selected_when_m_equals_queue_size(self):
        state, store = fresh_contract(3)
        submit_models(state, store, [constant_model(i) for i in range(3)])
        chosen = ledger.select_verification_set(state)
        assert chosen == frozenset([0, 1, 2])
        assert state.verification_set == chosen


class TestVerifierSelection:
    def test_caav_with_full_trust_allows_anyone(self):
        state, _ = fresh_contract(2)
        tl = ledger.TrustLedger()
        tl.register(range(10))
        chosen = ledger.select_verifiers(state, tl, 4, "caav", seed=5)
        assert len(chosen) == 4
        assert set(chosen) <= set(range(10))

    def test_caav_excludes_low_trust(self):
        state, _ = fresh_contract(2)
        tl = ledger.TrustLedger()
        tl.register(range(6))
        tl.update(0, 0.0)  # trust 0.0
        tl.update(1, 0.0)
        tl.update(1, 1.0)  # trust 0.5, still excluded (strictly above 1/2)
        for _ in range(50):
            chosen = ledger.select_verifiers(state, tl, 3, "caav", seed=6)
            assert 0 not in chosen and 1 not in chosen

    def test_caav_exact_pool_returned_on_shortfall(self):
        state, _ = fresh_contract(2)
        tl = ledger.TrustLedger()
        tl.register(range(5))
        for cid in (0, 1, 2):
            tl.update(cid, 0.0)
        chosen = ledger.select_verifiers(state, tl, 3, "caav", seed=7)
        assert set(chosen) == {3, 4}
        assert state.events[-1].kind == ledger.VERIFIER_SHORTFALL

    def test_open_ignores_trust(self):
        state, _ = fresh_contract(2)
        tl = ledger.TrustLedger()
        tl.register(range(4))
        for cid in range(4):
            tl.update(cid, 0.0)
        chosen = ledger.select_verifiers(state, tl, 2, "open", seed=8)
        assert len(chosen) == 2

    def test_unknown_policy_rejected(self):
        state, _ = fresh_contract(2)
        with pytest.raises(DomainError, match="unknown verifier policy 'closed'"):
            ledger.select_verifiers(state, unscored_ledger(4), 2, "closed", seed=9)


class TestEvents:
    def test_export_is_one_json_record_per_event(self):
        state, store = fresh_contract(1)
        submit_models(state, store, [constant_model(1.0)])
        lines = ledger.export_events(state)
        assert len(lines) == 2
        import json
        record = json.loads(lines[0])
        assert record["kind"] == ledger.MODEL_SUBMITTED
        assert record["client"] == 0

    def test_event_sequence_deterministic(self):
        def build():
            state, store = fresh_contract(2)
            submit_models(state, store, [constant_model(1.0), constant_model(2.0)])
            ledger.aggregate(state, unscored_ledger(2), store)
            return ledger.export_events(state)
        assert build() == build()


class TestContractProperties:
    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(ledger.VALID_SCORES)),
                    max_size=200))
    def test_trust_is_the_exact_mean_of_any_score_sequence(self, updates):
        tl = unscored_ledger(4)
        for cid, score in updates:
            tl.update(cid, score)
        for cid in range(4):
            mine = [Fraction(s) for c, s in updates if c == cid]
            expect = float(sum(mine) / len(mine)) if mine else 1.0
            assert tl.trust(cid) == expect

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 1000), st.sampled_from(ledger.VALID_SCORES)),
                    min_size=1, max_size=6),
           st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_aggregate_ignores_a_power_of_two_data_size_scale(self, queued, exponent, seed):
        rng = np.random.default_rng(seed)
        models = [nn.ModelParams((nn.Layer(rng.standard_normal((3, 2)), rng.standard_normal(3)),))
                  for _ in queued]

        def digest(scale):
            state, store = fresh_contract(len(queued))
            tl = unscored_ledger(len(queued))
            for cid, ((size, score), model) in enumerate(zip(queued, models)):
                tl.update(cid, score)
                store.put(nn.to_bytes(model))
                ledger.submit(state, store, make_submission(cid, model, data_size=size * scale))
            try:
                return ledger.aggregate(state, tl, store).digest
            except DegenerateAggregationError:
                return None

        assert digest(2 ** exponent) == digest(1)
