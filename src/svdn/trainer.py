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
out.  Each phase is a tuple of data run by one ``train`` closure.  At
every phase boundary one ``record`` closure logs the correlation score, the
training loss and retrieval quality, and passes them with the model to the
caller's ``on_record``; this module names checkpoints but writes no file.

One ``RriSchedule`` holds every setting of a run: a frozen value, checked
once, when made (``replace`` included).  Only ``initial_model`` makes a model of
its shape; every entry point, the comparison and the sweep too, trains the models
it is given and reads none of the shape fields, as ``run_rri`` reads no ``step0_epochs``.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import decorrelate
from .decorrelate import DecorrMethod
from .diagnostics import rri_converged, s_of_w
from .errors import NumericError, ValidationError, check_int, check_real, write_csv
from .evaluation import RetrievalDataset, evaluate_features, require_queries
from .network import DEFAULT_FEATURE, FEATURE_KINDS, EigenModel, _grads_into, _split, build_model

PHASE_STEP0 = "step0"
PHASE_DECORRELATE = "decorrelate"
PHASE_RESTRAINT = "restraint"
PHASE_RELAXATION = "relaxation"
PHASE_BASELINE = "baseline"
CHECKPOINT_PHASES = (PHASE_STEP0, PHASE_DECORRELATE, PHASE_RESTRAINT, PHASE_RELAXATION)  # in run order
CHECKPOINT_GLOB = "ckpt_*.svdn"  # every checkpoint file of a run, the final one included
FINAL_CHECKPOINT = "ckpt_final.svdn"
_CHECKPOINT_NAME = re.compile(r"ckpt_rri(\d+)_([a-z0-9]+)\.svdn$")  # searched, so a prefix is allowed


def checkpoint_name(rri_index: int, phase: str) -> str:
    """File name of the checkpoint written at the end of a phase."""
    return f"ckpt_rri{rri_index}_{phase}.svdn"


def parse_checkpoint_name(name: str) -> tuple[str, str, tuple]:
    """Inverse of ``checkpoint_name``: the RRI index as written and the phase
    (``""`` if ``name`` has neither), and a key that sorts by iteration, then
    phase in run order (unknown ones last), with other names after all, by name."""
    m = _CHECKPOINT_NAME.search(name)
    if m is None:
        return "", "", (1, name)
    rri_index, phase = m.groups()
    order = CHECKPOINT_PHASES.index(phase) if phase in CHECKPOINT_PHASES else len(CHECKPOINT_PHASES)
    return rri_index, phase, (0, int(rri_index), order, name)


@dataclass(frozen=True)
class RriSchedule:
    """Settings of one training run: epoch counts per phase, per-phase
    learning rates, the iteration budget, the convergence threshold, the
    seed that drives init and batch shuffling, the model shape (backbone
    widths, eigenlayer width) and the retrieval feature scored at every
    phase boundary."""

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
    hidden_dims: tuple[int, ...] = (128, 128)
    eigen_dim: int = 64
    feature: str = DEFAULT_FEATURE

    def __post_init__(self) -> None:
        """Check every field by the type of its default: integers (seed >= 0,
        the others >= 1, ``check_int``), finite positive numbers (``check_real``),
        widths (each an integer >= 1, stored as a tuple), and the feature."""
        for f in fields(self):
            value, label = getattr(self, f.name), f"schedule field {f.name!r}"
            if isinstance(f.default, int):
                value = check_int(label, value, 0 if f.name == "seed" else 1)
            elif isinstance(f.default, float):
                value = check_real(label, value, positive=True)
            elif isinstance(f.default, tuple):
                if not isinstance(value, (tuple, list)):
                    raise ValidationError(f"{label} must hold integers >= 1, got {value!r}")
                value = tuple(check_int(f"{label} entry", d, 1) for d in value)
            object.__setattr__(self, f.name, value)
        if self.feature not in FEATURE_KINDS:
            raise ValidationError(f"schedule field 'feature' must be one of {FEATURE_KINDS}, got {self.feature!r}")


@dataclass
class PhaseRecord:
    rri_index: int
    phase: str
    s_of_w: float
    train_loss: float
    rank1: float
    map: float


TRACE_COLUMNS = tuple(f.name for f in fields(PhaseRecord))


@dataclass
class RriTrace:
    records: list[PhaseRecord] = field(default_factory=list)
    converged: bool = False


def write_trace(trace: RriTrace, path) -> None:
    """Trace CSV with one row per phase record."""
    write_csv(path, TRACE_COLUMNS, map(astuple, trace.records))


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


def evaluate_model(model: EigenModel, data: RetrievalDataset, feature: str = DEFAULT_FEATURE) -> tuple[float, float]:
    """(rank-1, mAP) of the model's retrieval features on the dataset."""
    qf = model.extract_features(data.query_features, feature)
    gf = model.extract_features(data.gallery_features, feature)
    report = evaluate_features(data, qf, gf)
    return float(report.cmc[0]), report.map


def initial_model(data: RetrievalDataset, schedule: RriSchedule) -> EigenModel:
    """Fresh model of the schedule's shape for the dataset's width and
    training identities, initialized from ``schedule.seed``."""
    _, _, c = training_arrays(data)
    return build_model(data.dim, schedule.hidden_dims, schedule.eigen_dim, c, schedule.seed)


def _iteration_phases(schedule: RriSchedule, method: DecorrMethod | None) -> list[tuple]:
    """One iteration as phases ``(name, replacement method or None, epochs,
    learning rate, eigenlayer frozen)``; ``method=None`` gives the control
    with the same epochs and rates, nothing replaced or frozen."""
    return [
        (PHASE_DECORRELATE, method, 0, 0.0, False),
        (PHASE_RESTRAINT, None, schedule.restraint_epochs, schedule.lr_restraint, method is not None),
        (PHASE_RELAXATION, None, schedule.relaxation_epochs, schedule.lr_relaxation, False),
    ]


def _setup(model: EigenModel, data: RetrievalDataset, schedule: RriSchedule, stream: int):
    """Check the model against the dataset before any training; return this
    run's ``train`` and ``record`` closures.  ``stream`` seeds the batch
    order: 0 for step 0, 1 for the iterations (RRI and its control)."""
    X, y, c = training_arrays(data)
    require_queries(data)  # every phase boundary scores retrieval
    if model.num_classes != c:
        raise ValidationError(f"model has {model.num_classes} classes but the dataset has {c} training identities")
    X = model._check_batch(X)
    rows = y.shape[0]
    rng = np.random.default_rng([schedule.seed, stream])

    @np.errstate(over="ignore", invalid="ignore")  # the checks below name a non-finite step
    def train(method: DecorrMethod | None, epochs: int, lr: float, frozen: bool) -> None:
        """Replace the eigenlayer by ``method`` (if given), then run
        ``epochs`` SGD epochs.  Each step is one kernel call into a gradient
        vector laid out like ``model.params`` and one in-place update of
        that vector; the gradient vector and the shuffled copies go when
        this returns."""
        if method is not None:
            model.eigenlayer[...] = decorrelate.apply(model.eigenlayer, method)
        if not epochs:
            return
        params, gbuf = model.params, np.zeros_like(model.params)
        gviews = _split(gbuf, [p for _, p in model.param_items()])
        for epoch in range(epochs):
            order = rng.permutation(rows)
            X_epoch, y_epoch = X[order], y[order]
            for start in range(0, rows, schedule.batch_size):
                stop = start + schedule.batch_size
                loss = _grads_into(model, X_epoch[start:stop], y_epoch[start:stop], frozen, gviews)
                if not math.isfinite(loss):
                    raise NumericError(f"training diverged: non-finite loss at epoch {epoch}")
                if not np.isfinite(gbuf).all():
                    bad = next(pname for (pname, _), g in zip(model.param_items(), gviews) if not np.isfinite(g).all())
                    raise NumericError(f"training diverged: non-finite gradient for parameter {bad} at epoch {epoch}")
                gbuf *= lr  # in place: no step allocates a parameter-sized temporary
                params -= gbuf

    def record(name: str, rri_index: int, on_record=None) -> PhaseRecord:
        """Score the model as phase ``name`` of iteration ``rri_index``; hand ``on_record`` the record and the model."""
        rank1, mean_ap = evaluate_model(model, data, schedule.feature)
        result = PhaseRecord(rri_index, name, s_of_w(model.eigenlayer), model.loss(X, y), rank1, mean_ap)
        if on_record is not None:
            on_record(result, model)
        return result

    return train, record


def train_step0(
    model: EigenModel, data: RetrievalDataset, schedule: RriSchedule, on_record=None
) -> tuple[EigenModel, PhaseRecord]:
    """Initial fine-tuning with every parameter free."""
    train, record = _setup(model, data, schedule, 0)
    train(None, schedule.step0_epochs, schedule.lr_step0, False)
    return model, record(PHASE_STEP0, 0, on_record)


def run_rri(
    model: EigenModel, data: RetrievalDataset, schedule: RriSchedule, method: DecorrMethod = DecorrMethod.US, on_record=None
) -> tuple[EigenModel, RriTrace]:
    """Restraint/relaxation iterations on a model that finished step 0.

    Runs at most ``schedule.max_rri`` iterations, stopping early once the
    post-relaxation correlation score stabilizes.  Exhausting the budget
    without stabilizing is not an error; the trace just reports
    ``converged=False``.
    """
    train, record = _setup(model, data, schedule, 1)
    trace = RriTrace()
    for t in range(1, schedule.max_rri + 1):
        for name, *phase in _iteration_phases(schedule, method):
            train(*phase)
            trace.records.append(record(name, t, on_record))
        relaxed = [r.s_of_w for r in trace.records if r.phase == PHASE_RELAXATION]
        if rri_converged(relaxed, schedule.epsilon_s):
            trace.converged = True
            break
    return model, trace


def run_baseline(
    model: EigenModel, data: RetrievalDataset, schedule: RriSchedule, n_rri: int
) -> tuple[EigenModel, PhaseRecord]:
    """Equal-epoch control: ``run_rri``'s phases over ``n_rri`` iterations
    with no weight replacement and nothing frozen, recorded once at the
    end.  ``n_rri=0`` scores the model as given."""
    n_rri = check_int("n_rri", n_rri, 0)
    train, record = _setup(model, data, schedule, 1)
    for _, *phase in _iteration_phases(schedule, None) * n_rri:
        train(*phase)
    return model, record(PHASE_BASELINE, n_rri)


def run_decorr_comparison(
    model: EigenModel, data: RetrievalDataset, schedule: RriSchedule, methods=None
) -> list[tuple[DecorrMethod, PhaseRecord]]:
    """Step 0 on ``model``, then RRI from one copy of it per replacement
    method.  Returns ``(method, final RRI record)`` per method, in
    ``DecorrMethod`` order."""
    requested = set(methods) if methods is not None else set(DecorrMethod)
    ordered = [m for m in DecorrMethod if m in requested]
    if not ordered:
        raise ValidationError("no decorrelation methods requested")
    base, _ = train_step0(model, data, schedule)
    results = []
    for method in ordered:
        _, trace = run_rri(base.copy(), data, schedule, method=method)
        results.append((method, trace.records[-1]))
    return results


def run_dim_sweep(models, data: RetrievalDataset, schedule: RriSchedule) -> list[tuple[int, PhaseRecord, PhaseRecord]]:
    """Per model, in the order given: step 0, then RRI from one copy and the
    equal-epoch ``run_baseline`` control (as many iterations as RRI ran) from
    another.  Returns one ``(eigenlayer width, final RRI record, baseline record)`` each."""
    results = []
    for model in models:
        model, _ = train_step0(model, data, schedule)
        _, trace = run_rri(model.copy(), data, schedule)
        with_record = trace.records[-1]
        _, base_record = run_baseline(model.copy(), data, schedule, with_record.rri_index)
        results.append((model.eigenlayer.shape[1], with_record, base_record))
    return results
