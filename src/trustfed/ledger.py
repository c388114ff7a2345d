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

The event log is the contract's public audit trail: packed 45-byte records,
each digest as the raw 32 bytes a chain would hold.  One table, ``_FIELDS``,
states which kinds carry a client id and which a digest, and ``ContractState.log``
refuses an event without exactly its kind's fields; ``Event`` is the read-back form.
"""

import json
import re
import struct
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
# Each event kind, in record order, and whether it carries (a client id, a digest).
_FIELDS = {MODEL_SUBMITTED: (True, True), QUEUE_FULL: (False, False), GLOBAL_UPDATED: (False, True),
           VERIFICATION_REQUESTED: (False, False), SCORES_RECEIVED: (True, False),
           DEGENERATE_AGGREGATION: (False, False), VERIFIER_SHORTFALL: (False, False)}
_KINDS = tuple(_FIELDS)
# One event: round, kind index, client id (0 if none), raw digest (zeros if none).
_RECORD = struct.Struct("<IBq32s")
_HEX_DIGEST = re.compile("[0-9a-f]{64}")

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

    Each client's mean is kept as one ``[sum of scores, count]`` entry, so
    reading the trust is a single division; iterating the textbook update
    S <- ((t-1)S + s)/t in floating point would slowly drift off the true
    mean.  Unscored clients report the initial trust of 1.
    """

    def __init__(self):
        self._entries = {}

    def register(self, client_ids):
        for cid in client_ids:
            self._entries.setdefault(int(cid), [0.0, 0])

    def clients(self):
        return sorted(self._entries)

    def _entry(self, client_id: int) -> list:
        if client_id not in self._entries:
            raise RegistryError(f"unknown client {client_id}")
        return self._entries[client_id]

    def trust(self, client_id: int) -> float:
        total, count = self._entry(client_id)
        return 1.0 if count == 0 else total / count

    def count(self, client_id: int) -> int:
        return self._entry(client_id)[1]

    def update(self, client_id: int, score: float):
        entry = self._entry(client_id)
        if score not in VALID_SCORES:
            raise DomainError(f"score must be one of {VALID_SCORES}, got {score}")
        entry[0] += score
        entry[1] += 1

    def snapshot(self) -> dict:
        return {cid: self.trust(cid) for cid in self._entries}


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
        self._log = bytearray()

    def log(self, kind: str, client_id: int = None, digest: str = None):
        """Append one event; ``DomainError`` for an unknown kind, a client id or digest
        its kind does not carry or lacks (``_FIELDS``), and any the record cannot hold."""
        if kind not in _FIELDS:
            raise DomainError(f"unknown event kind {kind!r}")
        has_client, has_digest = _FIELDS[kind]
        if (client_id is not None, digest is not None) != (has_client, has_digest):
            raise DomainError(f"a {kind} event carries {'a' if has_client else 'no'} client id "
                              f"and {'a' if has_digest else 'no'} digest")
        if client_id is not None and client_id < 0:
            raise DomainError(f"client id must be non-negative, got {client_id}")
        if digest is not None and not (isinstance(digest, str) and _HEX_DIGEST.fullmatch(digest)):
            raise DomainError(f"digest must be 64 lowercase hex characters, got {digest!r}")
        try:
            self._log += _RECORD.pack(self.round_counter, _KINDS.index(kind), client_id or 0,
                                      bytes.fromhex(digest) if digest else b"")
        except struct.error as exc:
            raise DomainError(f"round counter or client id outside the event record: {exc}") from None

    def iter_events(self):
        """Each logged ``Event`` in order, rebuilt one record at a time."""
        for offset in range(0, len(self._log), _RECORD.size):
            rnd, index, client_id, raw = _RECORD.unpack_from(self._log, offset)
            has_client, has_digest = _FIELDS[_KINDS[index]]
            yield Event(rnd, _KINDS[index], client_id if has_client else None, raw.hex() if has_digest else None)

    @property
    def events(self):
        """A fresh list of every logged ``Event``; changing it leaves the log as it is."""
        return list(self.iter_events())


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


def export_events(state: ContractState):
    """Yield one JSON line per event, record by record: round, kind, client id, digest."""
    for ev in state.iter_events():
        yield json.dumps({"round": ev.round_index, "kind": ev.kind,
                          "client": ev.client_id, "digest": ev.digest}, sort_keys=True)
