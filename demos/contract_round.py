"""The simulated contract's mechanics: store, queue, trust, events.

Shows a full submission/verification/aggregation cycle at the ledger level,
including what happens when stored bytes are tampered with, before submission
or while queued, and when every queued submission ends up with zero weight.
"""

import numpy as np

from trustfed import clients, ledger, nn
from trustfed.errors import DegenerateAggregationError, IntegrityError
from trustfed.hashing import model_digest


def submission(cid, model, size=100):
    zeros = nn.UltimateGradient(np.zeros_like(model.layers[-1].weights),
                                np.zeros_like(model.layers[-1].bias), cid, 1)
    return clients.Submission(cid, model, zeros, size, model_digest(model), 1)


store = ledger.OffchainStore()
global_model = nn.init_mlp(4, 6, 2, seed=0)
state = ledger.ContractState(queue_capacity=3, global_model_digest=store.put(nn.to_bytes(global_model)))
trust = ledger.TrustLedger()
trust.register(range(3))
state.round_counter = 1

print("submitting three local models (bytes go off-chain, hashes on-chain):")
models = [nn.init_mlp(4, 6, 2, seed=s) for s in (1, 2, 3)]
for cid, model in enumerate(models):
    store.put(nn.to_bytes(model))
    ledger.submit(state, store, submission(cid, model))
    print(f"  client {cid} submitted, digest {model_digest(model)[:12]}...")

print("\ntrust updates arrive from verifiers (running mean of scores):")
for cid, scores in ((0, [1.0, 1.0]), (1, [0.5, 1.0]), (2, [0.0, 0.0])):
    for s in scores:
        trust.update(cid, s)
    print(f"  client {cid}: scores {scores} -> trust {trust.trust(cid):.2f}")

new_global = ledger.aggregate(state, trust, store)
print(f"\naggregated; new global digest {state.global_model_digest[:12]}... "
      f"(queue now holds {len(state.queue)})")

print("\nevent log so far:")
for line in ledger.export_events(state):
    print("  " + line)

print("\ntampering with a stored blob flips the integrity check:")
victim = nn.init_mlp(4, 6, 2, seed=9)
digest = store.put(nn.to_bytes(victim))
blob = bytearray(store._blobs[digest])
blob[20] ^= 0xFF
store._blobs[digest] = bytes(blob)
try:
    ledger.submit(state, store, submission(0, victim))
except IntegrityError as exc:
    print(f"  rejected: {exc}")

print("\naltering a queued blob after submission makes the contract refuse to aggregate:")
for cid, model in enumerate(models):
    store.put(nn.to_bytes(model))
    ledger.submit(state, store, submission(cid, model))
queued = model_digest(models[1])
blob = bytearray(store._blobs[queued])
blob[20] ^= 0xFF
store._blobs[queued] = bytes(blob)
before = state.global_model_digest
try:
    ledger.aggregate(state, trust, store)
except IntegrityError as exc:
    print(f"  refused: {exc}")
print(f"  digest unchanged: {state.global_model_digest == before}; "
      f"queue still holds {len(state.queue)}")

print("\nif every queued submission has zero trust, the global model freezes:")
state2 = ledger.ContractState(2, store.put(nn.to_bytes(global_model)))
trust2 = ledger.TrustLedger()
trust2.register([0, 1])
for cid, model in enumerate(models[:2]):
    store.put(nn.to_bytes(model))
    ledger.submit(state2, store, submission(cid, model))
    trust2.update(cid, 0.0)
before = state2.global_model_digest
try:
    ledger.aggregate(state2, trust2, store)
except DegenerateAggregationError as exc:
    print(f"  {exc}")
print(f"  digest unchanged: {state2.global_model_digest == before}")
