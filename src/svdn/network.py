"""A small fully connected classifier with a bias-free embedding layer.

The model is: affine+ReLU backbone layers, then a pure linear map
``f = h @ W`` (the "eigenlayer" -- no bias, no activation, so that its
columns can be orthogonalized without anything else interfering), then
an affine classifier over the training identities.

Activations are row vectors and weights are (fan_in, fan_out), so a
layer computes ``x @ W + b``.  The weight vectors subject to
decorrelation are the columns of the eigenlayer matrix.  All gradients
are exact analytic expressions; no autodiff involved.

A model is one float64 parameter vector, ``params``: making a model
copies its arrays into it, and its layer arrays are views of it from then
on, so one update of ``params`` moves every parameter at once.  Layers
cannot be rebound; a caller writes in place (``model.eigenlayer[...] = w``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import ValidationError, open_artifact
from .linalg import as_matrix

CHECKPOINT_MAGIC = b"SVDN"
CHECKPOINT_VERSION = 1

_ROLE_BACKBONE = 0
_ROLE_EIGENLAYER = 1
_ROLE_CLASSIFIER = 2

FEATURE_KINDS = ("input", "output")
DEFAULT_FEATURE = "input"


@dataclass(frozen=True)
class AffineLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray    # (fan_out,)


@dataclass(frozen=True)
class EigenModel:
    """Backbone, eigenlayer and classifier over one parameter vector.

    Making a model copies every given array bit for bit into the float64
    vector ``params``, in :meth:`param_items` order, and binds each layer
    array to a view of it; ``backbone`` becomes a tuple.  Fields cannot be
    rebound, so a caller writes in place.  :meth:`copy`, ``pickle`` and
    ``copy.deepcopy`` rebuild a model the same way, so each copy owns a
    vector of its own whose views are its layers."""

    backbone: tuple[AffineLayer, ...]
    eigenlayer: np.ndarray        # (n, k), bias-free
    classifier: AffineLayer       # (k, c)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arrays = [p for _, p in self.param_items()]
        params = np.concatenate([p.ravel() for p in arrays], dtype=np.float64)
        views = iter(_split(params, arrays))
        object.__setattr__(self, "backbone", tuple(AffineLayer(next(views), next(views)) for _ in self.backbone))
        object.__setattr__(self, "eigenlayer", next(views))
        object.__setattr__(self, "classifier", AffineLayer(next(views), next(views)))
        object.__setattr__(self, "params", params)

    def __reduce__(self):
        return EigenModel, (self.backbone, self.eigenlayer, self.classifier)

    @property
    def input_dim(self) -> int:
        return self.backbone[0].weight.shape[0] if self.backbone else self.eigenlayer.shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier.weight.shape[1]

    def copy(self) -> "EigenModel":
        return EigenModel(self.backbone, self.eigenlayer, self.classifier)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays, in a fixed order: views of ``params``."""
        items: list[tuple[str, np.ndarray]] = []
        for i, layer in enumerate(self.backbone):
            items.append((f"backbone{i}.weight", layer.weight))
            items.append((f"backbone{i}.bias", layer.bias))
        items.append(("eigenlayer", self.eigenlayer))
        items.append(("classifier.weight", self.classifier.weight))
        items.append(("classifier.bias", self.classifier.bias))
        return items

    def num_params(self) -> int:
        return self.params.size

    def _check_batch(self, batch) -> np.ndarray:
        batch = as_matrix(batch, "batch")
        if batch.shape[1] != self.input_dim:
            raise ValidationError(
                f"batch has {batch.shape[1]} features but the model expects {self.input_dim}"
            )
        return batch

    def _activations(self, batch: np.ndarray):
        """Yield each backbone layer's activation.  Each layer's bias add
        and ReLU run in place on its product, so a caller that keeps only
        the latest activation holds at most two activation-sized arrays."""
        h = batch
        for layer in self.backbone:
            z = h @ layer.weight
            z += layer.bias
            h = np.maximum(z, 0.0, out=z)
            yield h

    def _eigen_input(self, batch: np.ndarray) -> np.ndarray:
        """The eigenlayer input ``h``: the last backbone activation."""
        h = batch
        for h in self._activations(batch):
            pass
        return h

    def _outputs(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, f, logits) for the eigenlayer input ``h``."""
        f = h @ self.eigenlayer
        return h, f, f @ self.classifier.weight + self.classifier.bias

    def forward(self, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (h, f, logits): the eigenlayer input feature, the
        eigenlayer output feature, and the classifier scores."""
        return self._outputs(self._eigen_input(self._check_batch(batch)))

    def extract_features(self, batch, which: str = DEFAULT_FEATURE) -> np.ndarray:
        """Retrieval features: the eigenlayer's input (``which="input"``,
        the run default) or its output (``which="output"``), with the same
        bits as :meth:`forward`."""
        if which not in FEATURE_KINDS:
            raise ValidationError(f"which must be one of {FEATURE_KINDS}, got {which!r}")
        h = self._eigen_input(self._check_batch(batch))
        return h if which == "input" else h @ self.eigenlayer

    def _check_labels(self, labels, m: int) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != m:
            raise ValidationError(f"labels must be a length-{m} sequence, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValidationError("labels must be integers")
        c = self.num_classes
        if labels.min() < 0 or labels.max() >= c:
            raise ValidationError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
        return labels.astype(np.int64)

    def loss(self, batch, labels) -> float:
        """Mean softmax cross-entropy of the batch."""
        batch = self._check_batch(batch)
        labels = self._check_labels(labels, batch.shape[0])
        _, _, logits = self._outputs(self._eigen_input(batch))
        return _cross_entropy(logits, labels)[0]

    def loss_and_grads(self, batch, labels, frozen: bool = False):
        """Mean softmax cross-entropy and exact gradients for every
        parameter, keyed like :meth:`param_items`.  With ``frozen`` the
        eigenlayer gradient is identically zero and all other gradients
        are exactly what the unfrozen call produces."""
        batch = self._check_batch(batch)
        labels = self._check_labels(labels, batch.shape[0])
        grads = {name: np.zeros_like(p) for name, p in self.param_items()}
        loss = _grads_into(self, batch, labels, frozen, list(grads.values()))
        return loss, grads


def _grads_into(model: EigenModel, batch: np.ndarray, labels: np.ndarray, frozen: bool, gviews) -> float:
    """The one gradient kernel: return the batch's mean cross-entropy and
    write every parameter's exact gradient into ``gviews`` (arrays shaped
    and ordered like :meth:`EigenModel.param_items`).  ``batch`` and
    ``labels`` must already have passed the model's checks.  With
    ``frozen`` the eigenlayer slot is left as it is, so a zeroed slot
    stays zero."""
    acts = [batch, *model._activations(batch)]  # a_0 = batch, a_i = relu(a_{i-1} @ W_i + b_i)
    h, f, logits = model._outputs(acts[-1])
    loss, dlogits = _cross_entropy(logits, labels)
    m = batch.shape[0]
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m

    *g_backbone, g_eigen, g_cls_weight, g_cls_bias = gviews
    np.matmul(f.T, dlogits, out=g_cls_weight)
    np.add.reduce(dlogits, axis=0, out=g_cls_bias)
    df = dlogits @ model.classifier.weight.T
    if not frozen:
        np.matmul(h.T, df, out=g_eigen)
    da = df @ model.eigenlayer.T
    for i in range(len(model.backbone) - 1, -1, -1):
        np.multiply(da, acts[i + 1] > 0.0, out=da)  # ReLU backward (a > 0 exactly where z > 0): da becomes dz
        np.matmul(acts[i].T, da, out=g_backbone[2 * i])
        np.add.reduce(da, axis=0, out=g_backbone[2 * i + 1])
        if i > 0:
            da = da @ model.backbone[i].weight.T
    return loss


def _split(flat: np.ndarray, like) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like the arrays in ``like``."""
    views, off = [], 0
    for p in like:
        views.append(flat[off : off + p.size].reshape(p.shape))
        off += p.size
    return views


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Numerically stable mean cross-entropy; also returns the softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    m = logits.shape[0]
    loss = float(-log_probs[np.arange(m), labels].mean())
    return loss, exp / total


def build_model(input_dim: int, hidden_dims, eigen_dim: int, num_classes: int, seed: int) -> EigenModel:
    """Fresh model with scaled-uniform fan-in initialization,
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)), for every parameter."""
    hidden_dims = tuple(hidden_dims)
    for d in (input_dim, *hidden_dims, eigen_dim, num_classes):
        if not isinstance(d, Integral):
            raise ValidationError(f"layer dimensions must be integers, got {d!r}")
    if input_dim < 1 or eigen_dim < 1 or any(d < 1 for d in hidden_dims):
        raise ValidationError("all layer dimensions must be >= 1")
    if num_classes < 2:
        raise ValidationError(f"need at least 2 classes, got {num_classes}")
    rng = np.random.default_rng(seed)

    def affine(fan_in: int, fan_out: int) -> AffineLayer:
        bound = 1.0 / np.sqrt(fan_in)
        return AffineLayer(
            weight=rng.uniform(-bound, bound, size=(fan_in, fan_out)),
            bias=rng.uniform(-bound, bound, size=fan_out),
        )

    dims = (input_dim, *hidden_dims)
    backbone = [affine(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    n = dims[-1]
    eigen_bound = 1.0 / np.sqrt(n)
    eigenlayer = rng.uniform(-eigen_bound, eigen_bound, size=(n, eigen_dim))
    classifier = affine(eigen_dim, num_classes)
    return EigenModel(backbone=backbone, eigenlayer=eigenlayer, classifier=classifier)


# Checkpoint wire format, all integers little-endian:
#   magic "SVDN" | version u16 | layer count u16
#   per layer: role u8 (0 backbone, 1 eigenlayer, 2 classifier)
#              rows u32 | cols u32 | rows*cols float64 row-major
#              bias flag u8 | cols float64 when flag == 1
def save_checkpoint(model: EigenModel, path) -> None:
    """Write the model to ``path``; the round-trip is bit-exact."""
    layers: list[tuple[int, np.ndarray, np.ndarray | None]] = []
    for layer in model.backbone:
        layers.append((_ROLE_BACKBONE, layer.weight, layer.bias))
    layers.append((_ROLE_EIGENLAYER, model.eigenlayer, None))
    layers.append((_ROLE_CLASSIFIER, model.classifier.weight, model.classifier.bias))

    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<HH", CHECKPOINT_VERSION, len(layers))
    for role, weight, bias in layers:
        rows, cols = weight.shape
        blob += struct.pack("<BII", role, rows, cols)
        blob += np.ascontiguousarray(weight, dtype="<f8").tobytes()
        blob += struct.pack("<B", bias is not None)
        if bias is not None:
            blob += np.ascontiguousarray(bias, dtype="<f8").tobytes()
    with open_artifact(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> EigenModel:
    """Read a model written by :func:`save_checkpoint`, validating the
    magic, version, layer roles, shape chain, and that every parameter is
    finite."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
    off = 4
    try:
        version, count = struct.unpack_from("<HH", raw, off)
        off += 4
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        parsed: list[tuple[int, np.ndarray, np.ndarray | None]] = []
        for _ in range(count):
            role, rows, cols = struct.unpack_from("<BII", raw, off)
            off += 9
            n = rows * cols
            weight = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(rows, cols)
            off += 8 * n
            (flag,) = struct.unpack_from("<B", raw, off)
            off += 1
            bias = None
            if flag == 1:
                bias = np.frombuffer(raw, dtype="<f8", count=cols, offset=off)
                off += 8 * cols
            elif flag != 0:
                raise ValidationError(f"{path}: bad bias flag {flag}")
            parsed.append((role, weight, bias))
    except (struct.error, ValueError) as exc:
        raise ValidationError(f"{path}: truncated or corrupt checkpoint") from exc
    if off != len(raw):
        raise ValidationError(f"{path}: {len(raw) - off} trailing bytes after last layer")

    roles = [role for role, _, _ in parsed]
    if roles[:-2].count(_ROLE_BACKBONE) != len(roles) - 2 or roles[-2:] != [_ROLE_EIGENLAYER, _ROLE_CLASSIFIER]:
        raise ValidationError(f"{path}: unexpected layer roles {roles}")
    if any(bias is None for _, _, bias in parsed[:-2]):
        raise ValidationError(f"{path}: backbone layer missing bias")
    backbone = [AffineLayer(weight, bias) for _, weight, bias in parsed[:-2]]
    _, eigen_w, eigen_b = parsed[-2]
    if eigen_b is not None:
        raise ValidationError(f"{path}: eigenlayer must not carry a bias")
    _, cls_w, cls_b = parsed[-1]
    if cls_b is None:
        raise ValidationError(f"{path}: classifier layer missing bias")

    widths = [w.shape for _, w, _ in parsed]
    for (r1, c1), (r2, c2) in zip(widths, widths[1:]):
        if c1 != r2:
            raise ValidationError(f"{path}: layer shapes do not chain ({c1} -> {r2})")
    model = EigenModel(backbone=backbone, eigenlayer=eigen_w, classifier=AffineLayer(cls_w, cls_b))
    for name, p in model.param_items():
        if not np.isfinite(p).all():
            raise ValidationError(f"{path}: non-finite entries in {name}")
    return model
