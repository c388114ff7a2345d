"""Verifier-side scoring of reported ultimate gradients.

Two independent filters each nominate a suspicious subset of the task's
clients:

* Gradient-similarity filter.  Compares each client's reported gradient
  against the size-weighted crowd: ``a_i`` is the cosine between the client's
  gradient deviation from the cohort mean and the mean gradient direction.
  After min-max scaling, clients strictly above the (lower) median are
  suspects: colluding clients share their strongest gradient component, so
  their deviations over-align with the crowd mean while honest heterogeneous
  clients scatter.
* By-class clustering filter.  Summarizes every gradient by its per-class row
  sums, embeds clients by their mutual L2 distances, splits them with a
  deterministic 2-means, and suspects the cluster containing the least
  trusted client (ties by lowest id).

Tasks hold their clients in id order, so the 2-means' farthest-pair tie-break
(lowest ids first) is the first row-major maximum, whatever the arrival order.

A client in both sets scores 0, in neither scores 1, otherwise 1/2.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import nn
from .errors import DomainError, NumericalError, ShapeError
from .ledger import VALID_SCORES

__all__ = [
    "TaskClient",
    "VerificationTask",
    "check_task_size",
    "ScoreReport",
    "make_task",
    "filter_gradient_similarity",
    "filter_byclass_kmeans",
    "combine_scores",
    "verify",
    "corrupt_report",
    "assign_clients_to_verifiers",
]

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class TaskClient:
    """One client's reported data as seen by a verifier."""

    client_id: int
    du: np.ndarray
    db: np.ndarray
    data_size: int
    u_local: np.ndarray  # ultimate weights reconstructed from the global model


def check_task_size(n_clients: int):
    """``DomainError`` unless a task holds the two clients its filters need to compare."""
    if n_clients < 2:
        raise DomainError("a verification task needs at least two clients to compare")


@dataclass(frozen=True)
class VerificationTask:
    verifier_id: int
    clients: tuple
    round_index: int
    trust: dict

    def __post_init__(self):
        ordered = tuple(sorted(self.clients, key=lambda c: c.client_id))
        object.__setattr__(self, "clients", ordered)
        check_task_size(len(ordered))
        ids = [c.client_id for c in ordered]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate client in verification task")
        for c in ordered:
            if c.client_id not in self.trust:
                raise DomainError(f"missing trust snapshot for client {c.client_id}")
            if c.du.ndim != 2 or c.db.shape != c.du.shape[:1]:
                raise ShapeError(f"client {c.client_id}: dU rows must match db length")
            if not (np.isfinite(c.du).all() and np.isfinite(c.db).all()):
                raise NumericalError(f"client {c.client_id} reported a non-finite gradient")

    def client_ids(self):
        return tuple(c.client_id for c in self.clients)


@dataclass(frozen=True)
class ScoreReport:
    verifier_id: int
    scores: dict
    round_index: int


def make_task(verifier_id, submissions, global_model, learning_rate, trust, round_index) -> VerificationTask:
    """Build a task from submissions, reconstructing each client's ultimate weights.

    Verifiers only download gradients, but the similarity filter needs the
    weights themselves; ``U_local = U_global - lr * dU`` recovers them to
    rounding from the public global model.  The filters score this
    reconstruction, which is what the golden digests pin.
    """
    u_global, _ = global_model.ultimate()
    members = []
    for sub in submissions:
        members.append(TaskClient(
            client_id=sub.client_id,
            du=sub.ug.du,
            db=sub.ug.db,
            data_size=sub.data_size,
            u_local=u_global - learning_rate * sub.ug.du,
        ))
    return VerificationTask(verifier_id, tuple(members), round_index, trust)


# numpy's own arithmetic for the norms and means below, without the Python
# dispatch of ``np.linalg.norm`` and ``ndarray.mean``: same operations, same
# order, same bits.

def _norm(x) -> float:
    """``float(np.linalg.norm(x))``: the dot of the memory-order ravel."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


def _norms(d, axis):
    """``np.linalg.norm(d, axis=axis)``."""
    return np.sqrt(np.add.reduce(d * d, axis=axis))


def _mean_rows(rows):
    """``rows.mean(axis=0)``."""
    return np.add.reduce(rows, axis=0) / len(rows)


def _size_weighted_mean(arrays, sizes):
    total = float(sum(sizes))
    out = np.zeros_like(arrays[0])
    for arr, w in zip(arrays, sizes):
        out += (w / total) * arr
    return out


def filter_gradient_similarity(task: VerificationTask) -> frozenset:
    """Suspects by over-alignment with the crowd's mean gradient direction.

    The offset is taken as ``U_* - U_i``: since every client trains away from
    the same global weights, that offset points exactly along the client's
    gradient deviation from the cohort mean, and a score that is high for
    coordinated updates requires this orientation.  The task guarantees at
    least two clients.
    """
    clients = task.clients
    sizes = [c.data_size for c in clients]
    u_mean = _size_weighted_mean([c.u_local for c in clients], sizes)
    g_mean = _size_weighted_mean([c.du for c in clients], sizes)
    g_norm = _norm(g_mean)
    if g_norm == 0.0:
        return frozenset()
    g_unit = g_mean / g_norm
    scores = []
    for c in clients:
        diff = u_mean - c.u_local
        norm = _norm(diff)
        # Elementwise product + sum instead of a BLAS dot: fused multiply-adds
        # would break the exact symmetry ties the degenerate cases rely on.
        scores.append(0.0 if norm == 0.0 else float(((diff / norm) * g_unit).sum()))
    scores = np.array(scores)
    span = scores.max() - scores.min()
    if span == 0.0:
        return frozenset()
    scaled = (scores - scores.min()) / span
    median = np.sort(scaled)[(len(clients) - 1) // 2]
    return frozenset(c.client_id for c, a in zip(clients, scaled) if a > median)


def _two_means(features):
    """Deterministic 2-means: seed with the farthest pair, cap the iterations.

    Rows must come in ascending client-id order.  Returns a boolean membership
    array for the cluster seeded by the lower row of the pair, or ``None`` when
    one cluster ends up empty.  Ties everywhere break toward that same cluster,
    so reordering the clients cannot change the split.
    """
    n = len(features)
    dists = _norms(features[:, None, :] - features[None, :, :], axis=2)
    a, b = divmod(int(np.argmax(np.triu(dists, 1))), n)
    if dists[a, b] == 0.0:
        return None
    center_a, center_b = features[a].copy(), features[b].copy()
    member_a = np.zeros(n, dtype=bool)
    for _ in range(KMEANS_MAX_ITER):
        da = _norms(features - center_a, axis=1)
        db = _norms(features - center_b, axis=1)
        new_a = da <= db
        if new_a.all() or not new_a.any():
            return None
        if (new_a == member_a).all():
            break
        member_a = new_a
        center_a = _mean_rows(features[member_a])
        center_b = _mean_rows(features[~member_a])
    return member_a


def filter_byclass_kmeans(task: VerificationTask) -> frozenset:
    """Suspects by clustering the by-class gradient summaries.

    Each client's feature vector holds its L2 distances to every task member
    (self-distance zero included).  The suspicious cluster is the one holding
    the client with the lowest trust in the snapshot, ties by lowest id.  The
    task guarantees at least two clients.
    """
    clients = task.clients
    mus = np.array([nn.by_class_gradient(c) for c in clients])
    features = _norms(mus[:, None, :] - mus[None, :, :], axis=2)
    ids = task.client_ids()
    member_a = _two_means(features)
    if member_a is None:
        return frozenset()
    anchor_pos = min(range(len(clients)), key=lambda k: (task.trust[ids[k]], ids[k]))
    suspicious = member_a if member_a[anchor_pos] else ~member_a
    return frozenset(ids[k] for k in range(len(clients)) if suspicious[k])


def combine_scores(s1: frozenset, s2: frozenset, client_ids) -> dict:
    """Each client's score: ``VALID_SCORES[k]`` when k of the two suspect sets leave it out."""
    return {cid: VALID_SCORES[(cid not in s1) + (cid not in s2)] for cid in client_ids}


def verify(task: VerificationTask) -> ScoreReport:
    """Run both filters and combine them into a per-client score report."""
    s1 = filter_gradient_similarity(task)
    s2 = filter_byclass_kmeans(task)
    return ScoreReport(task.verifier_id, combine_scores(s1, s2, task.client_ids()), task.round_index)


CORRUPTION_MODES = ("random", "reverse")


def corrupt_report(report: ScoreReport, mode: str, seed: int) -> ScoreReport:
    """Dishonest-verifier transforms: seeded uniform scores, or 0 <-> 1 swaps."""
    if mode == "random":
        rng = np.random.default_rng(seed)
        scores = {
            cid: float(rng.choice(VALID_SCORES))
            for cid in sorted(report.scores)
        }
    elif mode == "reverse":
        scores = {cid: 1.0 - s for cid, s in report.scores.items()}
    else:
        raise DomainError(f"unknown corruption mode {mode!r}")
    return ScoreReport(report.verifier_id, scores, report.round_index)


def assign_clients_to_verifiers(verification_set, verifier_ids, subset_size: int, seed: int) -> dict:
    """Give each verifier an independent uniform subset of the verification set.

    Subsets may overlap across verifiers; a client scored several times simply
    receives several trust updates, applied in verifier-id order.
    """
    members = sorted(int(c) for c in verification_set)
    if subset_size < 1 or subset_size > len(members):
        raise DomainError(
            f"subset size {subset_size} out of range for {len(members)} clients"
        )
    rng = np.random.default_rng(seed)
    assignment = {}
    for vid in sorted(int(v) for v in verifier_ids):
        chosen = rng.choice(members, size=subset_size, replace=False)
        assignment[vid] = tuple(sorted(int(c) for c in chosen))
    return assignment
