"""Simulated smart contract: queue, trust ledger, events, off-chain store.

The contract itself never sees raw models, only content hashes.  Model bytes
live in the off-chain store and every fetch re-hashes the blob, so a single
flipped byte surfaces as an integrity failure.  ``aggregate`` fetches every
queued blob before it changes any state, so the contract combines only queued
models whose stored bytes still hash to their digests.  Trust scores are
running means of per-round verification scores; they weight the aggregation
together with each client's data size.  An undefended run is ``aggregate``
over a ledger that never receives a score, where every trust is exactly 1.
The verification set is the queue.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import (
    DegenerateAggregationError,
    DomainError,
    IntegrityError,
    RegistryError,
)
from .hashing import blob_digest

__all__ = [
    "MODEL_SUBMITTED",
    "QUEUE_FULL",
    "GLOBAL_UPDATED",
    "VERIFICATION_REQUESTED",
    "SCORES_RECEIVED",
    "DEGENERATE_AGGREGATION",
    "VERIFIER_SHORTFALL",
    "TRUST_THRESHOLD",
    "Event",
    "OffchainStore",
    "TrustLedger",
    "ContractState",
    "check_queue_capacity",
    "submit",
    "aggregate",
    "select_verification_set",
    "check_verifier_count",
    "select_verifiers",
    "export_events",
]

MODEL_SUBMITTED = "ModelSubmitted"
QUEUE_FULL = "QueueFull"
GLOBAL_UPDATED = "GlobalUpdated"
VERIFICATION_REQUESTED = "VerificationRequested"
SCORES_RECEIVED = "ScoresReceived"
DEGENERATE_AGGREGATION = "DegenerateAggregation"
VERIFIER_SHORTFALL = "VerifierShortfall"

# Order matters: defense.combine_scores gives entry k to a client that k of its two filters leave out.
VALID_SCORES = (0.0, 0.5, 1.0)
# caav admits verifiers with trust strictly above it; the harness flags clients strictly below it.
TRUST_THRESHOLD = 0.5


@dataclass(frozen=True, slots=True)
class Event:
    round_index: int
    kind: str
    client_id: int = None
    digest: str = None


class OffchainStore:
    """Content-addressed blob store with integrity-checked reads."""

    def __init__(self):
        self._blobs = {}

    def put(self, blob: bytes) -> str:
        digest = blob_digest(blob)
        self._blobs[digest] = bytes(blob)
        return digest

    def fetch(self, digest: str) -> bytes:
        if digest not in self._blobs:
            raise IntegrityError(f"no blob stored under {digest[:12]}...")
        blob = self._blobs[digest]
        if blob_digest(blob) != digest:
            raise IntegrityError(f"stored bytes do not hash to {digest[:12]}...")
        return blob

    def discard(self, digests) -> None:
        """Drop the blobs stored under ``digests``; unknown digests are ignored."""
        for digest in digests:
            self._blobs.pop(digest, None)

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs


class TrustLedger:
    """Per-client trust: the exact running mean of received scores.

    The mean is kept as (sum of scores, count) so reading the trust is a
    single division; iterating the textbook update S <- ((t-1)S + s)/t in
    floating point would slowly drift off the true mean.  Unscored clients
    report the initial trust of 1.
    """

    def __init__(self):
        self._sums = {}
        self._counts = {}

    def register(self, client_ids):
        for cid in client_ids:
            cid = int(cid)
            self._sums.setdefault(cid, 0.0)
            self._counts.setdefault(cid, 0)

    def clients(self):
        return sorted(self._sums)

    def _check(self, client_id: int):
        if client_id not in self._sums:
            raise RegistryError(f"unknown client {client_id}")

    def trust(self, client_id: int) -> float:
        self._check(client_id)
        count = self._counts[client_id]
        return 1.0 if count == 0 else self._sums[client_id] / count

    def count(self, client_id: int) -> int:
        self._check(client_id)
        return self._counts[client_id]

    def update(self, client_id: int, score: float):
        self._check(client_id)
        if score not in VALID_SCORES:
            raise DomainError(f"score must be one of {VALID_SCORES}, got {score}")
        self._sums[client_id] += score
        self._counts[client_id] += 1

    def snapshot(self) -> dict:
        return {cid: self.trust(cid) for cid in self._sums}


def check_queue_capacity(n: int):
    """``DomainError`` unless the aggregation queue holds at least one submission."""
    if n < 1:
        raise DomainError("queue capacity must be positive")


class ContractState:
    """Aggregation queue, current verification set, and the event log."""

    def __init__(self, queue_capacity: int, global_model_digest: str):
        check_queue_capacity(queue_capacity)
        self.queue_capacity = queue_capacity
        self.queue = []
        self.global_model_digest = global_model_digest
        self.verification_set = frozenset()
        self.round_counter = 0
        self.events = []

    def log(self, kind: str, client_id: int = None, digest: str = None):
        self.events.append(Event(self.round_counter, kind, client_id, digest))


def submit(state: ContractState, store: OffchainStore, sub):
    """Queue a ``clients.Submission`` after checking its stored bytes against the digest."""
    if len(state.queue) >= state.queue_capacity:
        raise DomainError("aggregation queue is full; aggregate before submitting")
    store.fetch(sub.model_digest)
    state.queue.append(sub)
    state.log(MODEL_SUBMITTED, client_id=sub.client_id, digest=sub.model_digest)
    if len(state.queue) == state.queue_capacity:
        state.log(QUEUE_FULL)


def aggregate(state: ContractState, ledger: TrustLedger, store: OffchainStore) -> nn.ModelParams:
    """Replace the global model by the trust-and-size weighted mean of the queue.

    Every queued blob is fetched first, so a missing or altered blob raises
    ``IntegrityError`` with the queue, the global digest and the event log
    untouched.  The in-memory models are then combined: a ``Submission``
    checks that its model hashes to its digest, and that stays true because
    the model's arrays sit in immutable ``bytes``.  Weights are normalized
    first, so scaling all of them by one constant cannot change the result.
    With every weight zero the queue is dropped and the old model stands.
    """
    if len(state.queue) != state.queue_capacity:
        raise DomainError(
            f"queue holds {len(state.queue)} of {state.queue_capacity} submissions"
        )
    for sub in state.queue:
        store.fetch(sub.model_digest)
    weights = [ledger.trust(s.client_id) * s.data_size for s in state.queue]
    total = float(np.sum(weights))
    if total <= 0.0:
        state.queue = []
        state.log(DEGENERATE_AGGREGATION)
        raise DegenerateAggregationError(
            "all queued submissions have zero weight; global model unchanged"
        )
    model = nn.lincomb([s.model for s in state.queue], [w / total for w in weights])
    digest = store.put(nn.to_bytes(model))
    state.global_model_digest = digest
    state.queue = []
    state.log(GLOBAL_UPDATED, digest=digest)
    return model


def select_verification_set(state: ContractState) -> frozenset:
    """Mark the queued submitters as this round's verification set."""
    chosen = frozenset(s.client_id for s in state.queue)
    state.verification_set = chosen
    state.log(VERIFICATION_REQUESTED)
    return chosen


VERIFIER_POLICIES = ("open", "caav")


def check_verifier_count(v: int):
    """``DomainError`` unless a round draws at least one verifier."""
    if v < 1:
        raise DomainError("verifier count must be positive")


def select_verifiers(state: ContractState, ledger: TrustLedger, v: int, policy: str, seed: int,
                     open_pool=None):
    """Draw ``v`` verifiers from the pool the policy allows.

    ``open`` admits the whole verifier pool, which may include identities that
    are not clients at all; ``caav`` admits only clients with trust strictly
    above one half, so outsiders are never eligible there.  A shortfall
    returns all eligible verifiers and logs it, and verification proceeds
    degraded.
    """
    check_verifier_count(v)
    if policy == "open":
        pool = sorted(open_pool) if open_pool is not None else ledger.clients()
    elif policy == "caav":
        pool = [cid for cid in ledger.clients() if ledger.trust(cid) > TRUST_THRESHOLD]
    else:
        raise DomainError(f"unknown verifier policy {policy!r}")
    if len(pool) < v:
        state.log(VERIFIER_SHORTFALL)
        return tuple(pool)
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(c) for c in rng.choice(pool, size=v, replace=False)))


def _event_line(ev: Event) -> str:
    """The one JSON record format of an event: round, kind, client id, digest."""
    return json.dumps({"round": ev.round_index, "kind": ev.kind,
                       "client": ev.client_id, "digest": ev.digest}, sort_keys=True)


def export_events(state: ContractState):
    """One JSON record per event: round, kind, client id, digest."""
    return [_event_line(ev) for ev in state.events]
