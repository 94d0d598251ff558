"""Span tracing of svdn's public functions, installed from outside the package.

``installed(tracer)`` replaces each target below with a wrapper that
records a span (name, start, end, parent span, command id) in the
tracer's memory, and puts every original back when the block exits.
Each function is patched where its caller looks it up: ``cli`` and
``trainer`` bind most names with ``from .x import y``, so the wrapper
goes on the importing module, while methods go on the class.

Some spans carry counters computed from array sizes (FLOPs, bytes).
They are *computed*, not measured: they ignore caches, temporaries and
elementwise work, so a GFLOP/s or FLOP/B figure built on them is an
achieved rate against a computed operation count.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import json
import os
import time
from contextlib import contextmanager

_F8 = 8  # bytes per float64

NAME, START, END, PARENT, COMMAND = range(5)


def _loss_and_grads_counts(args, kwargs, result) -> dict:
    """Matrix-product FLOPs of one forward+backward pass, from layer shapes.
    Bytes are the minimum traffic: read the batch and every parameter,
    write every gradient."""
    model, batch = args[0], args[1]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    frozen = bool(getattr(mask, "eigenlayer_frozen", False))
    m = batch.shape[0]
    shapes = [layer.weight.shape for layer in model.backbone]
    n, k = model.eigenlayer.shape
    c = model.classifier.weight.shape[1]
    flops = sum(2 * m * i * o for i, o in shapes) + 2 * m * n * k + 2 * m * k * c  # forward
    flops += 2 * k * m * c + 2 * m * c * k + 2 * m * k * n  # classifier grad, df, da
    if not frozen:
        flops += 2 * n * m * k  # eigenlayer grad
    for idx, (i, o) in enumerate(shapes):
        flops += 2 * i * m * o  # weight grad
        if idx > 0:
            flops += 2 * m * o * i  # da of the layer below
    params = model.num_params()
    return {"flops": flops, "bytes": _F8 * (batch.size + 2 * params)}


def _pairwise_counts(args, kwargs, result) -> dict:
    q, g = result.shape
    d = args[0].shape[1]
    return {"flops": 2 * q * g * d, "bytes": _F8 * (q * d + g * d + q * g), "peak_out_bytes": _F8 * q * g}


def _file_bytes(position: int):
    def count(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(args[position])}
    return count


def _rri_counts(args, kwargs, result) -> dict:
    records = result[1].records
    return {"rri_iters": records[-1].rri_index if records else 0}


# (module, class or None, attribute, span name, counter).  Functions
# without a metric of their own are traced too, so that their time counts
# toward their own layer instead of their caller's self time.
TARGETS = (
    ("svdn.network", "EigenModel", "loss_and_grads", "network.loss_and_grads", _loss_and_grads_counts),
    ("svdn.network", "EigenModel", "loss", "network.loss", None),
    ("svdn.network", "EigenModel", "extract_features", "network.extract_features", None),
    ("svdn.trainer", None, "sgd_step", "network.sgd_step", None),
    ("svdn.trainer", None, "save_checkpoint", "network.save_checkpoint", _file_bytes(1)),
    ("svdn.cli", None, "save_checkpoint", "network.save_checkpoint", _file_bytes(1)),
    ("svdn.cli", None, "load_checkpoint", "network.load_checkpoint", _file_bytes(0)),
    ("svdn.cli", None, "build_model", "network.build_model", None),
    ("svdn.trainer", None, "build_model", "network.build_model", None),
    ("svdn.cli", None, "train_step0", "trainer.train_step0", None),
    ("svdn.cli", None, "run_rri", "trainer.run_rri", _rri_counts),
    ("svdn.cli", None, "training_arrays", "trainer.training_arrays", None),
    ("svdn.trainer", None, "training_arrays", "trainer.training_arrays", None),
    ("svdn.cli", None, "evaluate_model", "trainer.evaluate_model", None),
    ("svdn.trainer", None, "evaluate_model", "trainer.evaluate_model", None),
    ("svdn.cli", None, "write_trace", "trainer.write_trace", None),
    ("svdn.cli", None, "rank_gallery", "evaluation.rank_gallery", None),
    ("svdn.trainer", None, "rank_gallery", "evaluation.rank_gallery", None),
    ("svdn.cli", None, "evaluate", "evaluation.evaluate", None),
    ("svdn.trainer", None, "evaluate", "evaluation.evaluate", None),
    ("svdn.cli", None, "load_dataset", "evaluation.load_dataset", _file_bytes(0)),
    ("svdn.cli", None, "write_report", "evaluation.write_report", None),
    ("svdn.cli", None, "format_report", "evaluation.format_report", None),
    ("svdn.cli", None, "l2_normalize", "evaluation.l2_normalize", None),
    ("svdn.evaluation", None, "pairwise_sq_dist", "linalg.pairwise_sq_dist", _pairwise_counts),
    ("svdn.decorrelate", None, "pairwise_sq_dist", "linalg.pairwise_sq_dist", _pairwise_counts),
    ("svdn.decorrelate", None, "svd", "linalg.svd", None),
    ("svdn.decorrelate", None, "qr", "linalg.qr", None),
    ("svdn.decorrelate", None, "apply", "decorrelate.apply", None),
    ("svdn.cli", None, "s_of_w", "diagnostics.s_of_w", None),
    ("svdn.trainer", None, "s_of_w", "diagnostics.s_of_w", None),
    ("svdn.trainer", None, "rri_converged", "diagnostics.rri_converged", None),
)

LAYERS = ("network", "trainer", "evaluation", "linalg", "decorrelate", "diagnostics", "cli")


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, command]``
    lists; ``counters`` maps a span index to its computed counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict] = {}
        self.command = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counters[idx] = count(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Every span with its self time and counters, as gzipped CSV."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "command", "parent", "start", "end", "self_s", "counters"])
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                counters = json.dumps(self.counters[i], sort_keys=True) if i in self.counters else ""
                writer.writerow([i, name, command, "" if parent is None else parent, repr(start), repr(end), repr(selfs[i]), counters])


@contextmanager
def installed(tracer: Tracer):
    """Patch every target that exists for the duration of the block.
    Yields the targets that could not be found, so a renamed function
    shows up as missing instead of failing the run."""
    patched, missing = [], []
    try:
        for module_name, cls_name, attr, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, cursor = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][START]):
            lo, hi = max(spans[j][START], cursor), min(spans[j][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per command: for every span name its call count, summed self time,
    inclusive durations and counters (``peak_*`` counters keep their
    maximum, the others are summed); for every layer its summed
    self time.  Returns ``{command: {"names": {...}, "layers": {...}}}``."""
    selfs = self_times(tracer.spans)
    out: dict = {}
    for i, (name, start, end, _, command) in enumerate(tracer.spans):
        cmd = out.setdefault(command, {"names": {}, "layers": dict.fromkeys(LAYERS, 0.0)})
        entry = cmd["names"].setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [], "counters": {}})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["durations"].append(end - start)
        for key, value in tracer.counters.get(i, {}).items():
            reduce = max if key.startswith("peak_") else sum
            entry["counters"][key] = reduce((entry["counters"].get(key, 0), value))
        layer = name.split(".", 1)[0]
        cmd["layers"][layer] = cmd["layers"].get(layer, 0.0) + selfs[i]
    return out
