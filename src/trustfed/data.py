"""Synthetic classification data, non-IID partitioning, and trigger injection.

The generator stands in for full-scale image benchmarks at desk scale: classes
are unit-variance Gaussian clusters whose means sit on a scaled coordinate
simplex, so the task is linearly separable and a small MLP saturates it.

Heterogeneity knob: each client has a dominant class (assigned round-robin)
and draws a fraction ``phi`` of its samples from that class, the rest from a
uniformly chosen class.  ``phi = 0`` is IID, ``phi = 1`` is single-class.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .nn import _frozen, _labels

__all__ = [
    "Dataset",
    "PartitionSpec",
    "PoisonSpec",
    "check_generator_shape",
    "gen_dataset",
    "partition_non_iid",
    "poison",
    "triggered_testset",
    "load_csv",
]

DEFAULT_SEPARATION = 4.0


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [n, d] and one label per row, an exact integer in
    [0, n_classes) (``nn._labels``, the rule ``nn``'s batches follow), both held
    in immutable ``bytes`` numpy will not make writable, so runs can share them."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        if self.x.ndim != 2:
            raise DomainError("features must be an [n, d] matrix")
        if not np.isfinite(self.x).all():
            raise DomainError("features contain non-finite entries")
        object.__setattr__(self, "y", _frozen(_labels(self.y, len(self.x), self.n_classes), np.int64))

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

    def check_pool_size(self, n_rows: int):
        """``DomainError`` unless a pool of ``n_rows`` samples can fill every client."""
        need = self.n_clients * self.per_client_size
        if n_rows < need:
            raise DomainError(f"need at least {need} samples, got {n_rows}")


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

    def check_fits(self, n_features: int, n_classes: int):
        """``DomainError`` unless the target is a class and each trigger coordinate a feature."""
        if not 0 <= self.target_class < n_classes:
            raise DomainError("target_class out of range")
        if max(self.trigger_coords) >= n_features:
            raise DomainError("trigger coordinate out of feature range")


def check_generator_shape(n: int, n_classes: int, n_features: int):
    """``DomainError`` unless ``gen_dataset`` can place ``n`` samples of ``n_classes``
    clusters in ``n_features`` dimensions: all positive, ``n_features >= n_classes``."""
    if n < 1 or n_classes < 1 or n_features < 1:
        raise DomainError("n, n_classes and n_features must be positive")
    if n_features < n_classes:
        raise DomainError("need n_features >= n_classes to place cluster means")


def gen_dataset(n: int, n_classes: int, n_features: int, seed: int,
                separation: float = DEFAULT_SEPARATION) -> Dataset:
    """Sample ``n`` points from ``n_classes`` Gaussian clusters, labels balanced.

    Class k's mean is ``separation`` along coordinate axis k, which needs
    ``n_features >= n_classes``.  The default separation keeps pairwise Bayes
    accuracy above 99 percent.
    """
    return Dataset(*_gen_arrays(n, n_classes, n_features, seed, separation), n_classes)


def _gen_arrays(n, n_classes, n_features, seed, separation):
    """``gen_dataset``'s features and labels as the generator makes them: writable,
    neither frozen nor validated, for callers that keep only parts of them."""
    check_generator_shape(n, n_classes, n_features)
    rng = np.random.default_rng(seed)
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    y = np.repeat(np.arange(n_classes), counts)
    y = y[rng.permutation(n)]
    return _add_class_means(rng.standard_normal((n, n_features)), y, separation), y


def _add_class_means(z: np.ndarray, y: np.ndarray, separation: float) -> np.ndarray:
    """``z`` plus each row's class mean, in place; its row-sized temporaries are freed
    on return, so the result is the only array the size of ``z``.

    Bit for bit ``means[y] + z`` without gathering a ``means[y]`` the size of ``z``:
    IEEE addition commutes, and ``0.0 + z`` turns a ``-0.0`` draw into ``+0.0``.
    """
    rows = np.arange(len(y))
    own = z[rows, y] + separation   # from the draws themselves, so exact for separation = -0.0 too
    z += 0.0
    z[rows, y] = own
    return z


def partition_non_iid(data: Dataset, spec: PartitionSpec):
    """Split ``data`` into per-client datasets without replacement.

    Client i's dominant class is ``i mod n_classes``.  Every draw takes a
    dominant-class sample with probability ``phi`` and otherwise a sample from
    a uniformly chosen class, so the expected dominant fraction is
    ``phi + (1 - phi) / n_classes``.
    """
    return [data.subset(rows) for rows in _partition(data.y, data.n_classes, spec)]


def _partition(y, n_classes, spec: PartitionSpec):
    """``partition_non_iid``'s choice of rows: each client's row indices into ``y``.

    Each class's row indices are shuffled once into its own stretch of one
    array; a draw from class c counts down its stretch, taking the last index
    not yet taken.
    """
    spec.check_pool_size(len(y))
    rng = np.random.default_rng(spec.seed)
    rows = [np.flatnonzero(y == c) for c in range(n_classes)]
    shuffled = np.concatenate([idx[rng.permutation(idx.size)] for idx in rows])
    ends = np.cumsum([idx.size for idx in rows]).tolist()
    starts = [0] + ends[:-1]
    del rows
    phi = spec.non_iid_degree
    parts = []
    for client in range(spec.n_clients):
        dominant = client % n_classes
        taken = []
        for _ in range(spec.per_client_size):
            if phi > 0.0 and rng.random() < phi:
                c = dominant
            else:
                c = int(rng.integers(n_classes))
            if ends[c] == starts[c]:
                raise DomainError(f"class {c} exhausted while partitioning")
            ends[c] -= 1
            taken.append(ends[c])
        parts.append(shuffled[taken])
    return parts


def _poison_count(pdr: float, n: int) -> int:
    # ceil(pdr * n) with a guard against float dust, e.g. 0.33 * 100.
    return min(n, max(0, math.ceil(pdr * n - 1e-9)))


def _edge_candidates(data: Dataset) -> np.ndarray:
    """Indices of samples beyond two std-devs of distance from their class mean."""
    tail = np.zeros(len(data), dtype=bool)
    for c in range(data.n_classes):
        members = np.flatnonzero(data.y == c)
        if members.size == 0:
            continue
        mu = data.x[members].mean(axis=0)
        d = np.linalg.norm(data.x[members] - mu, axis=1)
        tail[members] = d > d.mean() + 2.0 * d.std()
    return np.flatnonzero(tail)


def poison(data: Dataset, spec: PoisonSpec, seed: int):
    """Trigger-and-relabel exactly ceil(pdr * n) samples; returns (set, flags).

    Untouched rows are bit-identical to the input.  With ``edge_case`` the
    poisoned rows are taken from the tail of the feature distribution first,
    mimicking rare-region backdoors.
    """
    spec.check_fits(data.n_features, data.n_classes)
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
    spec.check_fits(data.n_features, data.n_classes)
    keep = np.flatnonzero(data.y != spec.target_class)
    x = data.x[keep]   # fancy indexing copies
    x[:, np.array(spec.trigger_coords)] = spec.trigger_value
    y = np.full(keep.size, spec.target_class, dtype=np.int64)
    return Dataset(x, y, data.n_classes)


def load_csv(path) -> Dataset:
    """Read samples from CSV rows of ``d`` feature columns plus an integer label.

    The class count is one more than the largest label.  A file with no data
    rows, a header row, a non-numeric cell, a ragged row, a label that is not an
    exact integer (``Dataset``) or more classes than rows raises ``DomainError``.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns "input contained no data" and returns an empty array.
            warnings.simplefilter("error", UserWarning)
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise DomainError(f"malformed CSV {path}: {exc}") from exc
    if raw.shape[1] < 2:
        raise DomainError("CSV needs at least one feature column and a label column")
    x = raw[:, :-1]
    y = raw[:, -1]
    # int() reads labels below 2**53 exactly; Dataset refuses the rest (NaN, inf) as out of range.
    data = Dataset(x, y, int(y[np.abs(y) < 2.0**53].max(initial=0)) + 1)
    if data.n_classes > len(data):
        raise DomainError(f"labels imply {data.n_classes} classes but the CSV has {len(data)} rows")
    return data
