"""End-to-end training of the embedding model.

The full procedure is: an initial fine-tuning pass with everything free
(step 0), then repeated iterations of three phases --

  decorrelate: replace the eigenlayer weights with their distance-
               preserving orthogonalization,
  restraint:   train with the eigenlayer frozen so the surrounding
               layers adapt to the orthogonal basis,
  relaxation:  train with everything free again, which lets the weights
               drift off the orthogonal state but improves the overall
               fit --

until the post-relaxation correlation score stops moving (two
consecutive changes below ``epsilon_s``) or the iteration budget runs
out.  Every phase boundary logs the correlation score, the training
loss, and retrieval quality, and (given an output directory) writes a
checkpoint named ``ckpt_rri{t}_{phase}.svdn``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import decorrelate
from .decorrelate import DecorrMethod
from .diagnostics import rri_converged, s_of_w
from .errors import NumericError, ValidationError
from .evaluation import RetrievalDataset, evaluate_features
from .network import EigenModel, FreezeMask, build_model, save_checkpoint, sgd_step

PHASE_STEP0 = "step0"
PHASE_DECORRELATE = "decorrelate"
PHASE_RESTRAINT = "restraint"
PHASE_RELAXATION = "relaxation"
PHASE_BASELINE = "baseline"

TRACE_COLUMNS = ("rri_index", "phase", "s_of_w", "train_loss", "rank1", "map")


@dataclass
class RriSchedule:
    """Hyper-parameters of one training run (epoch counts per phase,
    per-phase learning rates, the iteration budget, the convergence
    threshold, and the seed that drives init and batch shuffling)."""

    step0_epochs: int = 30
    restraint_epochs: int = 20
    relaxation_epochs: int = 15
    max_rri: int = 15
    lr_step0: float = 0.05
    lr_restraint: float = 0.02
    lr_relaxation: float = 0.0075
    batch_size: int = 32
    epsilon_s: float = 0.01
    seed: int = 4

    def validate(self) -> "RriSchedule":
        for name in ("step0_epochs", "restraint_epochs", "relaxation_epochs", "max_rri", "batch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"schedule field {name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_step0", "lr_restraint", "lr_relaxation", "epsilon_s"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"schedule field {name} must be > 0, got {getattr(self, name)}")
        return self


@dataclass
class PhaseRecord:
    rri_index: int
    phase: str
    s_of_w: float
    train_loss: float
    rank1: float
    map: float


@dataclass
class RriTrace:
    records: list[PhaseRecord] = field(default_factory=list)
    converged: bool = False


@dataclass
class ComparisonRow:
    method: DecorrMethod
    rank1: float
    map: float


def write_trace(trace: RriTrace, path) -> None:
    """Trace CSV with one row per phase record; floats via repr() so two
    identical runs produce identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [r.rri_index, r.phase, repr(r.s_of_w), repr(r.train_loss), repr(r.rank1), repr(r.map)]
            )


def training_arrays(data: RetrievalDataset) -> tuple[np.ndarray, np.ndarray, int]:
    """Training features plus identity labels remapped to 0..c-1."""
    X = data.train_features
    raw = data.train_ids
    if raw.size == 0:
        raise ValidationError("dataset has an empty training split")
    classes = np.unique(raw)
    if classes.size < 2:
        raise ValidationError(f"need at least 2 training identities, got {classes.size}")
    y = np.searchsorted(classes, raw).astype(np.int64)
    return X, y, int(classes.size)


def _train_epochs(model, X, y, rng, epochs, lr, batch_size, frozen) -> None:
    mask = FreezeMask(eigenlayer_frozen=frozen)
    n = y.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = model.loss_and_grads(X[idx], y[idx], mask)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged: non-finite loss at epoch {epoch}")
            sgd_step(model, grads, lr)


def evaluate_model(model: EigenModel, data: RetrievalDataset, feature: str = "input") -> tuple[float, float]:
    """(rank-1, mAP) of the model's retrieval features on the dataset."""
    qf = model.extract_features(data.query_features, feature)
    gf = model.extract_features(data.gallery_features, feature)
    report = evaluate_features(data, qf, gf)
    return float(report.cmc[0]), report.map


def _record(model, X, y, data, feature, rri_index, phase) -> PhaseRecord:
    rank1, mean_ap = evaluate_model(model, data, feature)
    return PhaseRecord(
        rri_index=rri_index,
        phase=phase,
        s_of_w=s_of_w(model.eigenlayer).value,
        train_loss=model.loss(X, y),
        rank1=rank1,
        map=mean_ap,
    )


def _checkpoint(model, out_dir, rri_index, phase) -> None:
    if out_dir is not None:
        save_checkpoint(model, Path(out_dir) / f"ckpt_rri{rri_index}_{phase}.svdn")


def train_step0(
    model: EigenModel,
    data: RetrievalDataset,
    schedule: RriSchedule,
    feature: str = "input",
    out_dir=None,
) -> tuple[EigenModel, PhaseRecord]:
    """Initial fine-tuning with every parameter free."""
    schedule.validate()
    X, y, c = training_arrays(data)
    if model.num_classes != c:
        raise ValidationError(f"model has {model.num_classes} classes but the dataset has {c} training identities")
    rng = np.random.default_rng([schedule.seed, 0])
    _train_epochs(model, X, y, rng, schedule.step0_epochs, schedule.lr_step0, schedule.batch_size, frozen=False)
    record = _record(model, X, y, data, feature, 0, PHASE_STEP0)
    _checkpoint(model, out_dir, 0, PHASE_STEP0)
    return model, record


def run_rri(
    model: EigenModel,
    data: RetrievalDataset,
    schedule: RriSchedule,
    method: DecorrMethod = DecorrMethod.US,
    feature: str = "input",
    out_dir=None,
) -> tuple[EigenModel, RriTrace]:
    """Restraint/relaxation iterations on a model that finished step 0.

    Runs at most ``schedule.max_rri`` iterations, stopping early once the
    post-relaxation correlation score stabilizes.  Exhausting the budget
    without stabilizing is not an error; the trace just reports
    ``converged=False``.
    """
    schedule.validate()
    X, y, _ = training_arrays(data)
    n, k = model.eigenlayer.shape
    if n < k:
        raise ValidationError(f"eigenlayer must be tall for decorrelation, got {n}x{k}")
    rng = np.random.default_rng([schedule.seed, 1])
    trace = RriTrace()
    score_history: list[float] = []
    for t in range(1, schedule.max_rri + 1):
        if method is not DecorrMethod.ORIG:
            model.eigenlayer = decorrelate.apply(model.eigenlayer, method)
        trace.records.append(_record(model, X, y, data, feature, t, PHASE_DECORRELATE))
        _checkpoint(model, out_dir, t, PHASE_DECORRELATE)

        _train_epochs(model, X, y, rng, schedule.restraint_epochs, schedule.lr_restraint, schedule.batch_size, frozen=True)
        trace.records.append(_record(model, X, y, data, feature, t, PHASE_RESTRAINT))
        _checkpoint(model, out_dir, t, PHASE_RESTRAINT)

        _train_epochs(model, X, y, rng, schedule.relaxation_epochs, schedule.lr_relaxation, schedule.batch_size, frozen=False)
        record = _record(model, X, y, data, feature, t, PHASE_RELAXATION)
        trace.records.append(record)
        _checkpoint(model, out_dir, t, PHASE_RELAXATION)

        score_history.append(record.s_of_w)
        if rri_converged(score_history, schedule.epsilon_s):
            trace.converged = True
            break
    return model, trace


def run_baseline(
    model: EigenModel,
    data: RetrievalDataset,
    schedule: RriSchedule,
    n_rri: int,
    feature: str = "input",
) -> tuple[EigenModel, PhaseRecord]:
    """Equal-epoch control: the same per-iteration epoch and learning-rate
    budget as ``run_rri`` over ``n_rri`` iterations, but with no weight
    replacement and nothing frozen."""
    schedule.validate()
    X, y, _ = training_arrays(data)
    rng = np.random.default_rng([schedule.seed, 1])
    for _ in range(n_rri):
        _train_epochs(model, X, y, rng, schedule.restraint_epochs, schedule.lr_restraint, schedule.batch_size, frozen=False)
        _train_epochs(model, X, y, rng, schedule.relaxation_epochs, schedule.lr_relaxation, schedule.batch_size, frozen=False)
    return model, _record(model, X, y, data, feature, n_rri, PHASE_BASELINE)


def run_decorr_comparison(
    data: RetrievalDataset,
    schedule: RriSchedule,
    methods=None,
    hidden_dims=(128, 128),
    eigen_dim: int = 64,
    feature: str = "input",
) -> list[ComparisonRow]:
    """Train one model per replacement method (identical init and step 0,
    thanks to the shared seed) and report final retrieval quality."""
    requested = set(methods) if methods is not None else set(DecorrMethod)
    ordered = [m for m in DecorrMethod if m in requested]
    if not ordered:
        raise ValidationError("no decorrelation methods requested")
    X, y, c = training_arrays(data)
    base = build_model(data.dim, hidden_dims, eigen_dim, c, schedule.seed)
    base, _ = train_step0(base, data, schedule, feature)
    rows = []
    for method in ordered:
        model, _ = run_rri(base.copy(), data, schedule, method=method, feature=feature)
        rank1, mean_ap = evaluate_model(model, data, feature)
        rows.append(ComparisonRow(method=method, rank1=rank1, map=mean_ap))
    return rows


def run_dim_sweep(
    data: RetrievalDataset,
    schedule: RriSchedule,
    dims,
    hidden_dims=(128, 128),
    feature: str = "input",
) -> list[tuple[int, PhaseRecord, PhaseRecord]]:
    """Train one model per eigenlayer width: step 0, then RRI from one copy
    and the equal-epoch ``run_baseline`` control (as many iterations as RRI
    ran) from another.  Returns ``(width, final RRI record, baseline
    record)`` per width.  Every width is checked before any training."""
    n_backbone_out = hidden_dims[-1]
    bad = [dim for dim in dims if not 1 <= dim <= n_backbone_out]
    if bad:
        raise ValidationError(f"sweep dims {bad} must lie in 1..{n_backbone_out}, the backbone output width")
    _, _, c = training_arrays(data)
    results = []
    for dim in dims:
        model = build_model(data.dim, hidden_dims, dim, c, schedule.seed)
        model, _ = train_step0(model, data, schedule, feature)
        _, trace = run_rri(model.copy(), data, schedule, feature=feature)
        with_record = trace.records[-1]
        _, base_record = run_baseline(model.copy(), data, schedule, with_record.rri_index, feature)
        results.append((dim, with_record, base_record))
    return results
