"""Independent readers and a brute-force retrieval scorer.

Nothing here imports svdn: the checkpoint and dataset files are parsed
from their documented formats, retrieval features come from a plain
forward pass, and CMC rank-1 / mAP are scored one query at a time from
direct squared differences.  The protocol is Market-1501's (Zheng et
al., ICCV 2015): gallery rows sharing the query's identity AND camera
are junk and removed; a query left without a positive is excluded; equal
distances rank the lower gallery index first.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

ROLE_BACKBONE, ROLE_EIGENLAYER, ROLE_CLASSIFIER = 0, 1, 2


def read_checkpoint(path) -> list[tuple[int, np.ndarray, np.ndarray | None]]:
    """``(role, weight, bias)`` per layer from a ``.svdn`` checkpoint."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"SVDN":
        raise ValueError(f"{path}: bad magic")
    _version, count = struct.unpack_from("<HH", raw, 4)
    off = 8
    layers = []
    for _ in range(count):
        role, rows, cols = struct.unpack_from("<BII", raw, off)
        off += 9
        weight = np.frombuffer(raw, "<f8", rows * cols, off).reshape(rows, cols)
        off += 8 * rows * cols
        (flag,) = struct.unpack_from("<B", raw, off)
        off += 1
        bias = None
        if flag:
            bias = np.frombuffer(raw, "<f8", cols, off)
            off += 8 * cols
        layers.append((role, weight, bias))
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return layers


def retrieval_features(layers, x: np.ndarray, which: str = "input") -> np.ndarray:
    """The eigenlayer's input (``"input"``) or output (``"output"``)."""
    a = x
    for role, weight, bias in layers:
        if role == ROLE_BACKBONE:
            a = np.maximum(a @ weight + bias, 0.0)
        elif role == ROLE_EIGENLAYER:
            return a if which == "input" else a @ weight
    raise ValueError("checkpoint has no eigenlayer")


@dataclass
class Split:
    features: np.ndarray
    ids: np.ndarray
    cameras: np.ndarray


def read_dataset(path) -> dict[str, Split]:
    """The dataset CSV (``id,camera,split,f0..``) grouped by split tag."""
    rows: dict[str, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.setdefault(row[2], []).append(row)
    return {
        tag: Split(
            features=np.array([[float(v) for v in r[3:]] for r in rs]),
            ids=np.array([int(r[0]) for r in rs]),
            cameras=np.array([int(r[1]) for r in rs]),
        )
        for tag, rs in rows.items()
    }


def brute_force_scores(query: Split, gallery: Split) -> tuple[float, float, int]:
    """(rank-1, mAP, excluded query count) by direct per-query scoring.

    A positive's 0-based rank is the number of kept gallery rows strictly
    closer plus the equally close ones with a lower index; the precision
    at the j-th positive (0-based, in rank order) is (j + 1) / (rank + 1).
    """
    index = np.arange(gallery.ids.shape[0])
    firsts, aps, excluded = [], [], 0
    for qf, qid, qcam in zip(query.features, query.ids, query.cameras):
        diff = gallery.features - qf
        dist = np.einsum("ij,ij->i", diff, diff)
        keep = ~((gallery.ids == qid) & (gallery.cameras == qcam))
        positive = keep & (gallery.ids == qid)
        if not positive.any():
            excluded += 1
            continue
        kept_d, kept_i = dist[keep], index[keep]
        pos_d, pos_i = dist[positive][:, None], index[positive][:, None]
        ranks = np.sort(((kept_d < pos_d) | ((kept_d == pos_d) & (kept_i < pos_i))).sum(axis=1))
        firsts.append(ranks[0])
        aps.append(float(np.mean(np.arange(1, ranks.size + 1) / (ranks + 1.0))))
    if not aps:
        raise ValueError("no query has a positive")
    return float(np.mean(np.asarray(firsts) == 0)), float(np.mean(aps)), excluded
