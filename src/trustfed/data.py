"""Synthetic classification data, non-IID partitioning, and trigger injection.

The generator stands in for full-scale image benchmarks at desk scale: classes
are unit-variance Gaussian clusters whose means sit on a scaled coordinate
simplex, so the task is linearly separable and a small MLP saturates it.

Heterogeneity knob: each client has a dominant class (assigned round-robin)
and draws a fraction ``phi`` of its samples from that class, the rest from a
uniformly chosen class.  ``phi = 0`` is IID, ``phi = 1`` is single-class.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Dataset",
    "PartitionSpec",
    "PoisonSpec",
    "gen_dataset",
    "partition_non_iid",
    "poison",
    "triggered_testset",
    "load_csv",
]

DEFAULT_SEPARATION = 4.0


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [n, d] with integer labels [n] in [0, n_classes), both held
    in immutable ``bytes`` numpy will not make writable, so runs can share them."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "x", np.frombuffer(x.tobytes()).reshape(x.shape))
        object.__setattr__(self, "y", np.frombuffer(y.tobytes(), np.int64).reshape(y.shape))
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DomainError("features must be [n, d] with one label per row")
        if not np.isfinite(x).all():
            raise DomainError("features contain non-finite entries")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise DomainError("labels out of range")

    def __len__(self) -> int:
        return self.y.size

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], self.n_classes)


@dataclass(frozen=True)
class PartitionSpec:
    n_clients: int
    non_iid_degree: float
    per_client_size: int
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 1 or self.per_client_size < 1:
            raise DomainError("n_clients and per_client_size must be positive")
        if not 0.0 <= self.non_iid_degree <= 1.0:
            raise DomainError("non_iid_degree must lie in [0, 1]")


@dataclass(frozen=True)
class PoisonSpec:
    """Backdoor trigger: clamp ``trigger_coords`` to ``trigger_value`` and relabel."""

    target_class: int
    trigger_coords: tuple = field(default=(0,))
    trigger_value: float = 6.0
    pdr: float = 0.0
    edge_case: bool = False

    def __post_init__(self):
        object.__setattr__(self, "trigger_coords", tuple(int(c) for c in self.trigger_coords))
        if not self.trigger_coords:
            raise DomainError("trigger_coords must be nonempty")
        if any(c < 0 for c in self.trigger_coords):
            raise DomainError("trigger_coords must be nonnegative feature indices")
        if not 0.0 <= self.pdr <= 1.0:
            raise DomainError("pdr must lie in [0, 1]")


def gen_dataset(n: int, n_classes: int, n_features: int, seed: int,
                separation: float = DEFAULT_SEPARATION) -> Dataset:
    """Sample ``n`` points from ``n_classes`` Gaussian clusters, labels balanced.

    Class k's mean is ``separation`` along coordinate axis k, which needs
    ``n_features >= n_classes``.  The default separation keeps pairwise Bayes
    accuracy above 99 percent.
    """
    if n < 1 or n_classes < 1 or n_features < 1:
        raise DomainError("n, n_classes and n_features must be positive")
    if n_features < n_classes:
        raise DomainError("need n_features >= n_classes to place cluster means")
    rng = np.random.default_rng(seed)
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    y = np.repeat(np.arange(n_classes), counts)
    y = y[rng.permutation(n)]
    means = np.zeros((n_classes, n_features))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    x = means[y] + rng.standard_normal((n, n_features))
    return Dataset(x, y, n_classes)


def partition_non_iid(data: Dataset, spec: PartitionSpec):
    """Split ``data`` into per-client datasets without replacement.

    Client i's dominant class is ``i mod n_classes``.  Every draw takes a
    dominant-class sample with probability ``phi`` and otherwise a sample from
    a uniformly chosen class, so the expected dominant fraction is
    ``phi + (1 - phi) / n_classes``.
    """
    need = spec.n_clients * spec.per_client_size
    if len(data) < need:
        raise DomainError(f"need at least {need} samples, got {len(data)}")
    rng = np.random.default_rng(spec.seed)
    pools = []
    for c in range(data.n_classes):
        idx = np.flatnonzero(data.y == c)
        pools.append(list(idx[rng.permutation(idx.size)]))
    phi = spec.non_iid_degree
    parts = []
    for client in range(spec.n_clients):
        dominant = client % data.n_classes
        chosen = []
        for _ in range(spec.per_client_size):
            if phi > 0.0 and rng.random() < phi:
                c = dominant
            else:
                c = int(rng.integers(data.n_classes))
            if not pools[c]:
                raise DomainError(f"class {c} exhausted while partitioning")
            chosen.append(pools[c].pop())
        parts.append(data.subset(np.array(chosen, dtype=np.int64)))
    return parts


def _poison_count(pdr: float, n: int) -> int:
    # ceil(pdr * n) with a guard against float dust, e.g. 0.33 * 100.
    return min(n, max(0, math.ceil(pdr * n - 1e-9)))


def _edge_candidates(data: Dataset) -> np.ndarray:
    """Indices of samples beyond two std-devs of distance from their class mean."""
    dist = np.empty(len(data))
    tail = np.zeros(len(data), dtype=bool)
    for c in range(data.n_classes):
        members = np.flatnonzero(data.y == c)
        if members.size == 0:
            continue
        mu = data.x[members].mean(axis=0)
        d = np.linalg.norm(data.x[members] - mu, axis=1)
        dist[members] = d
        tail[members] = d > d.mean() + 2.0 * d.std()
    return np.flatnonzero(tail)


def poison(data: Dataset, spec: PoisonSpec, seed: int):
    """Trigger-and-relabel exactly ceil(pdr * n) samples; returns (set, flags).

    Untouched rows are bit-identical to the input.  With ``edge_case`` the
    poisoned rows are taken from the tail of the feature distribution first,
    mimicking rare-region backdoors.
    """
    if spec.target_class < 0 or spec.target_class >= data.n_classes:
        raise DomainError("target_class out of range")
    if max(spec.trigger_coords) >= data.n_features:
        raise DomainError("trigger coordinate out of feature range")
    n = len(data)
    count = _poison_count(spec.pdr, n)
    flags = np.zeros(n, dtype=bool)
    if count == 0:
        return data, flags
    rng = np.random.default_rng(seed)
    if spec.edge_case:
        tail = _edge_candidates(data)
        if tail.size >= count:
            chosen = rng.choice(tail, size=count, replace=False)
        else:
            rest = np.setdiff1d(np.arange(n), tail)
            extra = rng.choice(rest, size=count - tail.size, replace=False)
            chosen = np.concatenate([tail, extra])
    else:
        chosen = rng.choice(n, size=count, replace=False)
    x = data.x.copy()
    y = data.y.copy()
    coords = np.array(spec.trigger_coords)
    x[np.ix_(chosen, coords)] = spec.trigger_value
    y[chosen] = spec.target_class
    flags[chosen] = True
    return Dataset(x, y, data.n_classes), flags


def triggered_testset(data: Dataset, spec: PoisonSpec) -> Dataset:
    """Apply the trigger to every sample not originally of the target class.

    The result is relabeled to the target class and used only to measure how
    often a model follows the trigger.
    """
    if max(spec.trigger_coords, default=0) >= data.n_features and len(data):
        raise DomainError("trigger coordinate out of feature range")
    keep = np.flatnonzero(data.y != spec.target_class)
    x = data.x[keep].copy()
    x[:, np.array(spec.trigger_coords)] = spec.trigger_value
    y = np.full(keep.size, spec.target_class, dtype=np.int64)
    return Dataset(x, y, data.n_classes)


def load_csv(path, n_classes: int = None) -> Dataset:
    """Read samples from CSV rows of ``d`` feature columns plus an integer label.

    A header row, a non-numeric cell, a ragged row or a label that is not an
    exact integer below 2**53 in magnitude (where float64 stops holding every
    integer) raises ``DomainError``.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DomainError(f"malformed CSV {path}: {exc}") from exc
    if raw.size == 0 or raw.shape[1] < 2:
        raise DomainError("CSV needs at least one feature column and a label column")
    x = raw[:, :-1]
    y = raw[:, -1]
    if not ((y == np.round(y)) & (np.abs(y) < 2.0**53)).all():
        raise DomainError("label column must hold exact integers")
    y = y.astype(np.int64)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    return Dataset(x, y, n_classes)
