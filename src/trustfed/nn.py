"""Minimal dense softmax classifier with plain SGD and last-layer bookkeeping.

The model is a stack of dense layers with ReLU between them and softmax on the
output.  The final layer is the "ultimate" layer: its weight matrix has one
row per class, and the per-round change of that matrix (divided by the
negative learning rate) is the ultimate gradient that verifiers inspect.

Everything is float64 and pure: operations return new ``ModelParams`` and all
randomness comes from explicit seeds, so identical inputs give bit-identical
outputs.  Each model's parameters are one float64 vector in an immutable
``bytes`` buffer numpy will not make writable, and its layers are views into
that vector, so each model flattens, serializes and hashes itself once and
keeps all three.  Every model built here comes from ``_from_flat``, which
freezes and scans its vector once; the public ``Layer`` and ``ModelParams``
constructors check every array an outside caller gives them.  ``_batch`` reads
every entry point's batch and labels; ``data.Dataset`` shares ``_labels``.
"""

from dataclasses import dataclass
from functools import cached_property
import struct

import numpy as np

from .errors import DomainError, NumericalError, ShapeError
from .hashing import blob_digest

__all__ = [
    "Layer",
    "ModelParams",
    "TrainConfig",
    "UltimateGradient",
    "init_mlp",
    "forward",
    "forward_batch",
    "loss",
    "gradients",
    "sgd_train",
    "check_gradient_rate",
    "check_mlp_shape",
    "extract_ultimate_gradient",
    "by_class_gradient",
    "lincomb",
    "flatten",
    "to_bytes",
    "from_bytes",
]


def _frozen(arr, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(arr, dtype=dtype)
    return np.frombuffer(arr.tobytes(), dtype).reshape(arr.shape)


@dataclass(frozen=True)
class Layer:
    """One dense layer: ``weights`` is [out, in], ``bias`` is [out]."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "bias", _frozen(self.bias))
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("layer expects a weight matrix and a bias vector")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[0]} output rows"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericalError("layer contains non-finite entries")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ModelParams:
    """Ordered dense layers; the last one is the ultimate layer."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ShapeError("model needs at least one layer")
        if any(0 in layer.weights.shape for layer in layers):
            raise ShapeError("every layer needs at least one input and one output")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ShapeError(
                    f"layer input {nxt.in_dim} does not chain from previous "
                    f"output {prev.out_dim}"
                )

    @property
    def n_features(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_dim

    def ultimate(self):
        """Return (U, b) of the ultimate layer."""
        last = self.layers[-1]
        return last.weights, last.bias

    def check_architecture(self, other: "ModelParams"):
        """``ShapeError`` unless ``other`` has this model's layer shapes."""
        if _shapes(self) != _shapes(other):
            raise ShapeError("models have different architectures")

    @cached_property
    def _flat(self) -> np.ndarray:
        """The read-only vector ``flatten`` returns; ``_from_flat`` sets it up front."""
        return _frozen(np.concatenate([part for layer in self.layers
                                       for part in (layer.weights.ravel(), layer.bias)]))

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The serialization ``to_bytes`` returns (format described there)."""
        dims = [d for shape in _shapes(self) for d in shape]
        header = struct.pack(f"<{1 + len(dims)}I", len(self.layers), *dims)
        return b"".join((header, flatten(self).astype("<f8", copy=False)))

    @cached_property
    def digest(self) -> str:
        """SHA-256 of ``canonical_bytes``: the model's identity in the off-chain store."""
        return blob_digest(self.canonical_bytes)


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD settings; ``seed`` fixes the batch shuffling."""

    learning_rate: float
    local_epochs: int = 1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise DomainError("learning_rate must be nonnegative")
        if self.local_epochs < 1:
            raise DomainError("local_epochs must be positive")
        if self.batch_size < 1:
            raise DomainError("batch_size must be positive")


@dataclass(frozen=True)
class UltimateGradient:
    """Reported per-round change of the ultimate layer, (dU, db) = -delta/lr.

    Only frozen here: ``Submission`` and ``VerificationTask`` check the arrays."""

    du: np.ndarray
    db: np.ndarray
    client_id: int
    round_index: int

    def __post_init__(self):
        object.__setattr__(self, "du", _frozen(self.du))
        object.__setattr__(self, "db", _frozen(self.db))


def check_mlp_shape(n_features: int, hidden_width: int, n_classes: int):
    """``DomainError`` unless every dimension of ``init_mlp``'s perceptron is positive."""
    if min(n_features, hidden_width, n_classes) < 1:
        raise DomainError("all dimensions must be positive")


def init_mlp(n_features: int, hidden_width: int, n_classes: int, seed: int) -> ModelParams:
    """Two-layer perceptron (features -> hidden ReLU -> classes), He-scaled init."""
    check_mlp_shape(n_features, hidden_width, n_classes)
    rng = np.random.default_rng(seed)
    shapes = [(hidden_width, n_features), (n_classes, hidden_width)]
    parts = []
    for out_dim, in_dim in shapes:
        parts += [rng.standard_normal(out_dim * in_dim) * np.sqrt(2.0 / in_dim), np.zeros(out_dim)]
    return _from_flat(np.concatenate(parts), shapes)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits ``z``, computed in place; returns ``z``.

    The row max is taken one class column at a time with ``np.maximum``,
    which is exact in any order and far cheaper on narrow rows than
    ``max(axis=-1)``.  The row sum stays ``sum(axis=-1)``: a column-by-column
    sum would match it bit for bit only below 8 classes, where numpy's
    reduction is still a plain running sum rather than a pairwise one.
    """
    top = z[..., 0].copy()
    for c in range(1, z.shape[-1]):
        np.maximum(top, z[..., c], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _raw(model: ModelParams):
    """The model's weight matrices and bias vectors as two lists."""
    return [layer.weights for layer in model.layers], [layer.bias for layer in model.layers]


def _shapes(model: ModelParams):
    """Each layer's weight shape, (out, in), in layer order."""
    return [layer.weights.shape for layer in model.layers]


def _views(flat: np.ndarray, shapes):
    """Per-layer weight and bias views into ``flat``; ``flatten`` is the inverse.

    The one owner of the parameter layout: row-major weights, then bias, layer
    by layer, for layers of the given (out, in) ``shapes``.  A vector of any
    other length raises ``ShapeError``.
    """
    if flat.size != sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes):
        raise ShapeError(f"{flat.size} parameters do not fill layers of shapes {shapes}")
    weights, biases = [], []
    offset = 0
    for out_dim, in_dim in shapes:
        weights.append(flat[offset : offset + out_dim * in_dim].reshape(out_dim, in_dim))
        offset += out_dim * in_dim
        biases.append(flat[offset : offset + out_dim])
        offset += out_dim
    return weights, biases


def _from_flat(flat: np.ndarray, shapes) -> ModelParams:
    """The model whose ``flatten`` is a frozen copy of ``flat``.

    The copy is scanned once for non-finite entries, and the layers are views
    into it built without ``Layer``'s checks: ``_views`` fixes their shapes.
    """
    flat = _frozen(flat)
    weights, biases = _views(flat, shapes)
    if not np.isfinite(flat).all():
        raise NumericalError("model contains non-finite parameters")
    layers = []
    for w, b in zip(weights, biases):
        layer = object.__new__(Layer)
        layer.__dict__.update(weights=w, bias=b)
        layers.append(layer)
    model = ModelParams(tuple(layers))
    model.__dict__["_flat"] = flat
    return model


def _labels(y, n_rows: int, n_classes: int) -> np.ndarray:
    """The label rule, which ``data.Dataset`` shares: ``n_rows`` labels, each an
    exact integer in [0, n_classes), returned as int64; else ``DomainError``."""
    y = np.asarray(y)
    if y.shape != (n_rows,):
        raise DomainError(f"expected {n_rows} labels, got shape {y.shape}")
    if (y.dtype.kind not in "biuf" or not ((y >= 0) & (y < n_classes)).all()
            or y.dtype.kind == "f" and (y != np.floor(y)).any()):
        raise DomainError(f"label column must hold exact integers in [0, {n_classes})")
    return y.astype(np.int64, copy=False)


def _batch(model: ModelParams, x, y=None):
    """The one reader of a batch: ``x`` as float64 [n >= 1, features], or, given
    labels, ``(x, onehot)`` with the labels (``_labels``) as one-hot rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeError(f"expected [n, {model.n_features}] inputs, got {x.shape}")
    if x.shape[0] == 0:
        raise DomainError("a batch needs at least one row")
    return x if y is None else (x, np.eye(model.n_classes)[_labels(y, len(x), model.n_classes)])


def _forward_raw(weights, biases, x: np.ndarray):
    """Return (activations per layer incl. input, probabilities)."""
    acts = [x]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T
        z += b
        if k < last:
            np.maximum(z, 0.0, out=z)
            acts.append(z)
    return acts, _softmax(z)


def _grads_raw(weights, biases, x: np.ndarray, onehot: np.ndarray, grad_w, grad_b):
    """Write the mean cross-entropy gradient of each layer into ``grad_w``/``grad_b``.

    ``onehot`` holds the labels as one-hot rows.  Subtracting it changes only
    the label entries (``p - 0.0`` is ``p`` exactly), so this is the textbook
    ``p[i, y_i] -= 1`` without a fancy-index write.
    """
    # The softmax output is a fresh array, so it becomes the error term in place.
    acts, delta = _forward_raw(weights, biases, x)
    delta -= onehot
    delta /= x.shape[0]
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[k], out=grad_w[k])
        np.add.reduce(delta, axis=0, out=grad_b[k])
        if k > 0:
            delta = delta @ weights[k]
            delta *= acts[k] > 0.0


def forward_batch(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch, shape [n, classes]."""
    _, probs = _forward_raw(*_raw(model), _batch(model, x))
    return probs


def forward(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a single feature vector."""
    return forward_batch(model, np.asarray(x)[None])[0]


def loss(model: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the model on labeled samples."""
    x, onehot = _batch(model, x, y)
    _, probs = _forward_raw(*_raw(model), x)
    picked = probs[onehot == 1.0]
    # Probabilities can round to exactly zero for extreme logits.
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def gradients(model: ModelParams, x: np.ndarray, y: np.ndarray):
    """Mean loss gradient per layer, as a list of ``Layer`` objects."""
    x, onehot = _batch(model, x, y)
    shapes = _shapes(model)
    grads = np.empty_like(flatten(model))
    _grads_raw(*_raw(model), x, onehot, *_views(grads, shapes))
    return list(_from_flat(grads, shapes).layers)


def sgd_train(model: ModelParams, x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ModelParams:
    """Run ``local_epochs`` passes of seeded mini-batch SGD and return the result.

    Batches are drawn without replacement from a fresh shuffle each epoch; a
    batch size larger than the dataset degrades to full-batch steps.  Every
    parameter lives in one flat vector and every gradient in another, with a
    weight and a bias view per layer: the backward pass writes the gradients
    through those views and a step is two calls on the whole vector,
    ``grads *= lr`` then ``params -= grads``, which rounds exactly as
    ``w -= lr * g`` does per layer.  The batch and its labels are checked once
    and the result comes from ``_from_flat``, which scans the trained vector
    once for non-finite parameters.
    """
    x, onehot = _batch(model, x, y)
    rng = np.random.default_rng(cfg.seed)
    shapes = _shapes(model)
    params = flatten(model).copy()
    grads = np.empty_like(params)
    weights, biases = _views(params, shapes)
    grad_w, grad_b = _views(grads, shapes)
    lr = cfg.learning_rate
    n = x.shape[0]
    step = min(cfg.batch_size, n)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, step):
            batch = order[start : start + step]
            _grads_raw(weights, biases, x.take(batch, axis=0), onehot.take(batch, axis=0),
                       grad_w, grad_b)
            grads *= lr
            params -= grads
    return _from_flat(params, shapes)


def check_gradient_rate(learning_rate: float):
    """``DomainError`` unless ``learning_rate`` is positive, as dividing a round's
    displacement by it to recover the ultimate gradient needs."""
    if learning_rate <= 0:
        raise DomainError("learning_rate must be positive to extract a gradient")


def extract_ultimate_gradient(
    before: ModelParams, after: ModelParams, learning_rate: float, client_id: int = -1, round_index: int = 0
) -> UltimateGradient:
    """Recover (dU, db) from the ultimate-layer displacement over one round.

    By construction ``U_after == U_before - lr * dU`` to rounding, so verifiers
    can reconstruct a client's ultimate weights from the public global model.
    They score that reconstruction, which is what the golden digests pin.
    """
    check_gradient_rate(learning_rate)
    before.check_architecture(after)
    u0, b0 = before.ultimate()
    u1, b1 = after.ultimate()
    return UltimateGradient(
        (u1 - u0) / (-learning_rate),
        (b1 - b0) / (-learning_rate),
        client_id=client_id,
        round_index=round_index,
    )


def by_class_gradient(g: UltimateGradient) -> np.ndarray:
    """Per-class summary of an ``UltimateGradient`` or a ``defense.TaskClient``:
    row sums of dU concatenated with db, length 2*classes."""
    return np.concatenate([g.du.sum(axis=1), g.db])


def lincomb(models, coeffs) -> ModelParams:
    """Linear combination of identically shaped models, sum(c_i * m_i)."""
    models = list(models)
    coeffs = [float(c) for c in coeffs]
    if not models or len(models) != len(coeffs):
        raise DomainError("lincomb needs matching nonempty models and coefficients")
    first = models[0]
    for m in models[1:]:
        first.check_architecture(m)
    # sum() starts from 0, so each entry is 0 + c_0 x_0 + c_1 x_1 + ... left
    # to right, exactly as a zero-filled accumulator adds it up.
    return _from_flat(sum(c * flatten(m) for c, m in zip(coeffs, models)), _shapes(first))


def flatten(model: ModelParams) -> np.ndarray:
    """All parameters as one read-only float64 vector, laid out as ``_views``
    reads it: the model's own vector, not a copy."""
    return model._flat


# Canonical serialization: a fixed-width architecture header (layer count and
# per-layer dims, 32-bit little-endian unsigned) followed by ``flatten(model)``
# as little-endian float64.  ``_views`` and ``flatten`` own the payload's
# layout.  Hashes of these bytes identify models in the off-chain store; each
# model keeps its own.

def to_bytes(model: ModelParams) -> bytes:
    return model.canonical_bytes


def from_bytes(blob: bytes) -> ModelParams:
    try:
        (n_layers,) = struct.unpack_from("<I", blob)
        dims = struct.unpack_from(f"<{2 * n_layers}I", blob, 4)
        flat = np.frombuffer(blob, dtype="<f8", offset=4 + 8 * n_layers)
    except (struct.error, ValueError) as exc:
        raise ShapeError(f"malformed model serialization: {exc}") from exc
    return _from_flat(flat, list(zip(dims[::2], dims[1::2])))
