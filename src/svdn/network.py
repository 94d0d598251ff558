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
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_int, open_artifact
from .linalg import as_matrix

CHECKPOINT_MAGIC = b"SVDN"
CHECKPOINT_VERSION = 1

FEATURE_KINDS = ("input", "output")
DEFAULT_FEATURE = "input"

# Rows per block (``_row_blocks``) in extract_features and loss: their memory
# grows with their output plus one block's activations instead of two of the
# whole input's.  A constant, not an option, because BLAS may round a row's
# product differently in a block of another height, so a fixed height keeps
# every run's bits.
FEATURE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class AffineLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray    # (fan_out,)


@dataclass(frozen=True, eq=False)
class EigenModel:
    """Backbone, eigenlayer and classifier over one parameter vector.

    Making a model checks the shapes (every weight 2-D, every bias as long as
    its weight is wide, each layer as wide as the next is tall, the eigenlayer
    tall for decorrelation; a ValidationError names the first that is not),
    copies every given array bit for bit into the float64 vector ``params``, in
    :meth:`param_items` order, and binds each layer array to a view of it;
    ``backbone`` becomes a tuple.  Fields cannot be rebound, so writes are in place.
    :meth:`copy`, ``pickle`` and ``copy.deepcopy`` rebuild a model the same
    way, so each copy owns a vector of its own whose views are its layers.
    Models compare and hash by identity."""

    backbone: tuple[AffineLayer, ...]
    eigenlayer: np.ndarray        # (n, k), bias-free
    classifier: AffineLayer       # (k, c)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        items, width = self.param_items(), None
        for name, p in items:
            shape = np.shape(p)
            if name.endswith("bias"):
                if shape != (width,):
                    raise ValidationError(f"{name} must have shape ({width},), got {shape}")
            elif len(shape) != 2:
                raise ValidationError(f"{name} must be 2-D, got shape {shape}")
            elif width is not None and shape[0] != width:
                raise ValidationError(f"layer shapes do not chain ({width} -> {shape[0]})")
            elif name == "eigenlayer" and shape[0] < shape[1]:  # k orthogonal columns need k <= n rows
                raise ValidationError(f"eigenlayer must be tall for decorrelation, got {shape[0]}x{shape[1]}")
            else:
                width = shape[1]
        arrays = [p for _, p in items]
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

    def _activations(self, batch: np.ndarray, out: np.ndarray | None = None):
        """Yield each backbone layer's activation.  Each layer's bias add
        and ReLU run in place on its product, so a caller that keeps only
        the latest activation holds at most two activation-sized arrays.
        Given ``out``, the last layer's product, bias add and ReLU run in
        ``out``, so the caller's array holds the last activation and the
        walk itself holds at most one."""
        h, last = batch, len(self.backbone) - 1
        for i, layer in enumerate(self.backbone):
            z = np.matmul(h, layer.weight, out=out if i == last else None)
            z += layer.bias
            h = np.maximum(z, 0.0, out=z)
            yield h

    def _eigen_input(self, batch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The eigenlayer input ``h``: the last backbone activation, in ``out``
        when given and there is a backbone (else ``batch`` itself)."""
        h = batch
        for h in self._activations(batch, out):
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
        the run default) or its output (``which="output"``).

        The backbone walks the input's ``_row_blocks`` into one
        preallocated output, a new array on every call, so memory grows
        with the output plus one block's two activations; for ``input`` the
        last layer writes into the output, so plus one.  Each block's rows
        carry the bits of :meth:`forward` on that block alone."""
        if which not in FEATURE_KINDS:
            raise ValidationError(f"which must be one of {FEATURE_KINDS}, got {which!r}")
        batch = self._check_batch(batch)
        out = np.empty((batch.shape[0], self.eigenlayer.shape[1 if which == "output" else 0]))
        for s, e in _row_blocks(batch.shape[0]):  # no name keeps a block's activation alive into the next walk
            if which == "input":  # the walk writes into out[s:e]; with no backbone this copies the batch
                out[s:e] = self._eigen_input(batch[s:e], out[s:e])
            else:
                np.matmul(self._eigen_input(batch[s:e]), self.eigenlayer, out=out[s:e])
        return out

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
        """Mean softmax cross-entropy of the batch, walked in the row blocks of
        :meth:`extract_features`: one vector holds every block's label
        log-probabilities, and one mean over it is the loss."""
        batch = self._check_batch(batch)
        labels = self._check_labels(labels, batch.shape[0])
        ll = np.empty(batch.shape[0])
        for s, e in _row_blocks(batch.shape[0]):
            ll[s:e] = _cross_entropy(self._outputs(self._eigen_input(batch[s:e]))[2], labels[s:e])[0]
        return float(-ll.mean())

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
    ll, dlogits = _cross_entropy(logits, labels)
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
    return float(-ll.mean())


def _split(flat: np.ndarray, like) -> list[np.ndarray]:
    """Consecutive views of ``flat`` shaped like the arrays in ``like``."""
    views, off = [], 0
    for p in like:
        views.append(flat[off : off + p.size].reshape(p.shape))
        off += p.size
    return views


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerically stable: each row's label log-probability, and the softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    return log_probs[np.arange(logits.shape[0]), labels], exp / total


def _row_blocks(n: int):
    """(start, stop) of each ``FEATURE_BLOCK``-row block of ``n`` rows.  No
    block starts at the last row unless it is the only one, as a lone last
    row would take BLAS's matrix-vector path, which rounds differently, so
    the last block may hold up to ``FEATURE_BLOCK + 1`` rows."""
    starts = range(0, max(n - 1, 1), FEATURE_BLOCK)
    return zip(starts, [*starts[1:], n])


def build_model(input_dim: int, hidden_dims, eigen_dim: int, num_classes: int, seed: int) -> EigenModel:
    """Fresh model with scaled-uniform fan-in initialization,
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)), for every parameter."""
    input_dim = check_int("input_dim", input_dim, 1)
    hidden_dims = tuple(check_int("hidden_dims entry", d, 1) for d in hidden_dims)
    eigen_dim, num_classes = check_int("eigen_dim", eigen_dim, 1), check_int("num_classes", num_classes, 2)
    rng = np.random.default_rng(check_int("seed", seed, 0))

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
def _layout(n_backbone: int) -> list[tuple[int, int]]:
    """Each checkpoint layer's (role, bias flag), in file order, for a model
    with ``n_backbone`` backbone layers: the writer follows it, the reader checks it."""
    return [(0, 1)] * n_backbone + [(1, 0), (2, 1)]


def save_checkpoint(model: EigenModel, path) -> None:
    """Write the model to ``path``; the round-trip is bit-exact."""
    layout = _layout(len(model.backbone))
    arrays = (p for _, p in model.param_items())  # file order: each weight, then its bias if it has one
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<HH", CHECKPOINT_VERSION, len(layout))
    for role, flag in layout:
        weight = next(arrays)
        blob += struct.pack("<BII", role, *weight.shape)
        blob += np.ascontiguousarray(weight, dtype="<f8").tobytes()
        blob += struct.pack("<B", flag)
        if flag:
            blob += np.ascontiguousarray(next(arrays), dtype="<f8").tobytes()
    with open_artifact(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> EigenModel:
    """Read a model written by :func:`save_checkpoint`, validating the
    magic, version, layer layout, shape chain, and that every parameter is
    finite."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
    layout, arrays, off = [], [], 8  # each layer's (role, bias flag); its weight, then its bias if flagged
    try:
        version, count = struct.unpack_from("<HH", raw, 4)
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            role, rows, cols = struct.unpack_from("<BII", raw, off)
            off += 9
            n = rows * cols
            arrays.append(np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(rows, cols))
            off += 8 * n
            (flag,) = struct.unpack_from("<B", raw, off)
            off += 1
            if flag:
                arrays.append(np.frombuffer(raw, dtype="<f8", count=cols, offset=off))
                off += 8 * cols
            layout.append((role, flag))
    except (struct.error, ValueError, OverflowError) as exc:  # OverflowError: rows * cols past numpy's index range
        raise ValidationError(f"{path}: truncated or corrupt checkpoint") from exc
    if off != len(raw):
        raise ValidationError(f"{path}: {len(raw) - off} trailing bytes after last layer")

    expected = _layout(max(count - 2, 0))
    if layout != expected:  # the first layer that differs; a file of under two layers lacks one
        i, got = next((i, got) for i, (got, want) in enumerate(zip([*layout, "missing"], expected)) if got != want)
        raise ValidationError(f"{path}: layer {i} (role, bias flag) is {got}, expected {expected[i]}")
    views = iter(arrays)  # bound as EigenModel binds its views
    try:
        backbone = tuple(AffineLayer(next(views), next(views)) for _ in range(count - 2))
        model = EigenModel(backbone, next(views), AffineLayer(next(views), next(views)))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    for name, p in model.param_items():
        if not np.isfinite(p).all():
            raise ValidationError(f"{path}: non-finite entries in {name}")
    return model
