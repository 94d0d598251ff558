"""Identity-retrieval evaluation at desk scale.

A dataset is a table of feature rows labelled with an identity, a camera,
and a split tag (train / query / gallery).  Retrieval ranks the gallery
by Euclidean distance to each query; scoring follows the usual
cross-camera protocol: gallery rows sharing BOTH the query's identity and
its camera are junk and dropped from that query's list, rank-r accuracy
is the fraction of queries whose first correct match appears within the
top r, and average precision is the mean of the precisions measured at
each correct hit.

The synthetic generator stands in for a real camera network: every
identity gets a latent center, every camera a shared affine distortion,
and samples are distorted centers plus isotropic noise.
"""

from __future__ import annotations

import hashlib
import io
import os
import stat
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegeneracyError, ValidationError, check_int, check_real, decode_text, open_artifact, open_private
from .errors import write_csv
from .linalg import _sq_dist_blocks, as_matrix

SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLITS = (SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)

# Queries per distance block in evaluate_features and rank_gallery: scoring
# memory grows with QUERY_BLOCK x gallery rows.  A constant, not an option,
# because BLAS may round a row's product differently in a block of another
# height, so a fixed height keeps every run's bits.
QUERY_BLOCK = 64


@dataclass(frozen=True, eq=False)
class RetrievalDataset:
    """Labelled feature rows partitioned into train / query / gallery.

    Making a dataset checks it: ``features`` is a finite 2-D array, and
    ``ids``, ``cameras`` and ``split`` become arrays of one entry per row,
    each tag one of SPLITS.  Labels are what the CSV holds: of a dtype that
    casts safely to int64 (so no float, string, object or uint64), stored
    as contiguous int64.  Each split's rows and the identity pairs that
    scoring reads are found once, here.  Fields cannot be rebound; datasets
    compare and hash by identity.  A query without a cross-camera match is
    allowed: ``evaluate`` excludes it and ``load_dataset`` rejects it."""

    features: np.ndarray  # (n, d) float64
    ids: np.ndarray       # (n,) int64 identity labels
    cameras: np.ndarray   # (n,) int64 camera labels
    split: np.ndarray     # (n,) unicode, each one of SPLITS
    _rows: dict[str, np.ndarray] = field(init=False, repr=False)
    _pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", as_matrix(self.features, "features"))
        for name in ("ids", "cameras", "split"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (self.features.shape[0],):
                raise ValidationError(f"{name} must have one entry per row, got {arr.shape}")
            if name != "split":
                if not np.can_cast(arr.dtype, np.int64):
                    raise ValidationError(f"{name} must be integer labels that int64 holds, got dtype {arr.dtype}")
                arr = np.ascontiguousarray(arr, dtype=np.int64)
            object.__setattr__(self, name, arr)
        bad = set(np.unique(self.split).tolist()) - set(SPLITS)
        if bad:
            raise ValidationError(f"unknown split tags {sorted(map(str, bad))}; expected one of {SPLITS}")
        object.__setattr__(self, "_rows", {tag: np.flatnonzero(self.split == tag) for tag in SPLITS})
        object.__setattr__(self, "_pairs", _id_pairs(self))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self._rows[SPLIT_TRAIN]]

    @property
    def train_ids(self) -> np.ndarray:
        return self.ids[self._rows[SPLIT_TRAIN]]

    @property
    def query_features(self) -> np.ndarray:
        return self.features[self._rows[SPLIT_QUERY]]

    @property
    def query_ids(self) -> np.ndarray:
        return self.ids[self._rows[SPLIT_QUERY]]

    @property
    def query_cameras(self) -> np.ndarray:
        return self.cameras[self._rows[SPLIT_QUERY]]

    @property
    def gallery_features(self) -> np.ndarray:
        return self.features[self._rows[SPLIT_GALLERY]]

    @property
    def gallery_ids(self) -> np.ndarray:
        return self.ids[self._rows[SPLIT_GALLERY]]

    @property
    def gallery_cameras(self) -> np.ndarray:
        return self.cameras[self._rows[SPLIT_GALLERY]]


def require_queries(dataset: RetrievalDataset, source: str = "dataset") -> None:
    """Raise ValidationError naming ``source`` unless the dataset has query
    rows; a dataset may be made without them, retrieval cannot use it."""
    if dataset.query_ids.size == 0:
        raise ValidationError(f"{source} has an empty query split; retrieval scoring needs query rows")


def _id_pairs(dataset: RetrievalDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, gallery row) pair sharing an identity, query-major
    with ascending gallery index within a query, as the query and gallery
    indices of the positive pairs, then of the junk ones: pairs whose
    gallery row also has the query's camera."""
    q_ids, g_ids = dataset.query_ids, dataset.gallery_ids
    by_id = np.argsort(g_ids, kind="stable")
    lo = np.searchsorted(g_ids[by_id], q_ids, side="left")
    sizes = np.searchsorted(g_ids[by_id], q_ids, side="right") - lo
    pair_q = np.repeat(np.arange(q_ids.shape[0]), sizes)
    first_pair = np.cumsum(sizes) - sizes
    pair_g = by_id[np.repeat(lo - first_pair, sizes) + np.arange(pair_q.size)]
    is_junk = dataset.gallery_cameras[pair_g] == dataset.query_cameras[pair_q]
    return pair_q[~is_junk], pair_g[~is_junk], pair_q[is_junk], pair_g[is_junk]


def _validate_cross_camera(dataset: RetrievalDataset) -> None:
    """Raise ValidationError naming the first query whose identity has no
    gallery row under another camera: junk filtering leaves it no match."""
    unmatched = np.bincount(dataset._pairs[0], minlength=dataset.query_ids.shape[0]) == 0
    if unmatched.any():
        qi = int(np.argmax(unmatched))
        q_id, q_cam = dataset.query_ids[qi], dataset.query_cameras[qi]
        raise ValidationError(f"query identity {q_id} (camera {q_cam}) has no gallery sample under a different camera")


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Aggregate retrieval quality: the cumulative matching curve indexed
    by rank (1-based; entry r-1 is the rank-r accuracy), the mean average
    precision, per-query APs, and how many queries were dropped for having
    no valid positive."""

    cmc: np.ndarray
    map: float
    per_query_ap: np.ndarray
    excluded_queries: int = 0


def generate_synthetic(
    identities: int = 32,
    cameras: int = 4,
    samples_per_id_camera: int = 6,
    dim: int = 16,
    noise: float = 0.45,
    camera_scale: float = 0.5,
    seed: int = 0,
) -> RetrievalDataset:
    """Deterministic synthetic identity-retrieval benchmark.

    Each identity gets a latent center inside a random subspace of
    dimension ``dim // 2`` (at least 1), with per-axis standard deviations
    decaying geometrically (factor 0.75) and rescaled so the total center
    variance is ``dim``.  The decaying spectrum mirrors real descriptor
    statistics: a few strong identity attributes plus progressively
    subtler ones, shared by training and test identities alike.

    Camera c maps a center x to
    ``x @ (I + camera_scale * G_c / sqrt(dim)) + camera_scale * t_c``
    with G_c, t_c standard normal, shared by every identity seen by that
    camera; each sample then adds isotropic noise of the given scale.

    Half of the identities (rounded down) become the training split; for
    each remaining identity the first sample under every camera is a
    query and the rest are gallery, which guarantees every query has a
    cross-camera positive.
    """
    # Python ints: a numpy integer would carry its dtype into the arithmetic (np.sqrt of a uint8 is float16)
    identities, cameras = check_int("identities", identities, 2), check_int("cameras", cameras, 2)
    samples_per_id_camera = check_int("samples_per_id_camera", samples_per_id_camera, 2)  # 1: no cross-camera positive
    dim, seed = check_int("dim", dim, 1), check_int("seed", seed, 0)
    noise, camera_scale = check_real("noise", noise, False), check_real("camera_scale", camera_scale, False)

    rng = np.random.default_rng(seed)
    rank = max(1, dim // 2)
    basis = np.linalg.qr(rng.normal(size=(dim, rank)))[0].T
    axis_sd = 0.75 ** np.arange(rank)
    latents = rng.normal(size=(identities, rank)) * axis_sd
    centers = latents @ basis * (np.sqrt(dim) / np.sqrt((axis_sd**2).sum()))
    cam_mats = np.eye(dim) + rng.normal(size=(cameras, dim, dim)) * (camera_scale / np.sqrt(dim))
    cam_shifts = rng.normal(size=(cameras, dim)) * camera_scale
    eps = rng.normal(size=(identities, cameras, samples_per_id_camera, dim)) * noise
    order = rng.permutation(identities)

    # one vector-matrix product per (identity, camera) cell: a batched product
    # rounds differently and would change the dataset bytes; rows run identity-major
    bases = np.array([[centers[i] @ cam_mats[c] + cam_shifts[c] for c in range(cameras)] for i in range(identities)])
    ids, cams, sample = np.indices(eps.shape[:3]).reshape(3, -1)
    query_or_gallery = np.where(sample == 0, SPLIT_QUERY, SPLIT_GALLERY)
    return RetrievalDataset(
        features=(bases[:, :, None] + eps).reshape(-1, dim),
        ids=ids,
        cameras=cams,
        split=np.where(np.isin(ids, order[: identities // 2]), SPLIT_TRAIN, query_or_gallery),
    )


def _check_features(query_feats, gallery_feats) -> tuple[np.ndarray, np.ndarray]:
    q = as_matrix(query_feats, "query_feats")
    g = as_matrix(gallery_feats, "gallery_feats")
    if q.shape[1] != g.shape[1]:
        raise ValidationError(f"feature dimensions differ: query {q.shape[1]} vs gallery {g.shape[1]}")
    return q, g


def rank_gallery(query_feats, gallery_feats) -> np.ndarray:
    """Per-query gallery indices in ascending Euclidean distance, ties
    broken by gallery index so the ordering is deterministic.

    For callers that need the full ranked lists; scoring does not, and
    ``evaluate_features`` gives the same report without ranking.  Both
    take the distances in the same ``QUERY_BLOCK``-row blocks, because
    BLAS may round a product with another row count differently and so
    order a near-tie the other way."""
    q, g = _check_features(query_feats, gallery_feats)
    return np.concatenate([np.argsort(d, axis=1, kind="stable") for d in _sq_dist_blocks(q, g, QUERY_BLOCK)])


def _score(dataset: RetrievalDataset, key_blocks) -> RankingReport:
    """The report of ``evaluate`` from consecutive blocks of per-query
    ordering keys (one row per query, one column per gallery row).

    Each block's junk entries are overwritten with NaN, which no ``<=``,
    ``==`` or sort comparison counts.  A block is finished with before the
    next one is requested, so a caller may write every block into the
    same buffer.
    A positive's 0-based rank in its query's junk-filtered list is then
    the number of rows before it, where rows are ordered by key and equal
    keys by gallery index.  Each row keeps, with ``compress``, only the
    keys at or below its worst positive's key and sorts those;
    ``searchsorted`` then gives the rows strictly before every positive
    and flags exact ties, the only case that needs an explicit count of
    lower-index equal rows."""
    n_query, n_gallery = dataset.query_ids.shape[0], dataset.gallery_ids.shape[0]
    pos_q, pos_g, junk_q, junk_g = dataset._pairs
    n_pos = np.bincount(pos_q, minlength=n_query)
    pos_start = np.concatenate(([0], np.cumsum(n_pos)))

    ranks = np.empty(pos_g.size, dtype=np.int64)
    start = 0
    for keys in key_blocks:
        stop = start + keys.shape[0]
        junk = slice(*np.searchsorted(junk_q, (start, stop)))
        keys[junk_q[junk] - start, junk_g[junk]] = np.nan
        block = slice(pos_start[start], pos_start[stop])
        rows, cols = pos_q[block] - start, pos_g[block]
        v = keys[rows, cols]
        below = np.empty_like(cols)
        upto = np.empty_like(cols)
        bounds = pos_start[start : stop + 1] - pos_start[start]
        with_pos = np.flatnonzero(n_pos[start:stop])
        worst = np.maximum.reduceat(v, bounds[with_pos]).tolist()
        bounds = bounds.tolist()
        for r, w in zip(with_pos.tolist(), worst):
            a, b = bounds[r], bounds[r + 1]
            row, vr = keys[r], v[a:b]
            kept = row.compress(row <= w)
            kept.sort()
            below[a:b] = kept.searchsorted(vr, side="left")
            upto[a:b] = kept.searchsorted(vr, side="right")
        for t in np.flatnonzero(upto - below > 1).tolist():
            below[t] += np.count_nonzero(keys[rows[t], : cols[t]] == v[t])
        ranks[block] = below
        start = stop

    # queries grouped by positive count: each AP row is one contiguous mean
    first_hit = np.zeros(n_query, dtype=np.int64)
    ap = np.zeros(n_query)
    for m in np.unique(n_pos[n_pos > 0]).tolist():
        qs = np.flatnonzero(n_pos == m)
        r = np.sort(ranks[pos_start[qs][:, None] + np.arange(m)], axis=1)
        first_hit[qs] = r[:, 0]
        ap[qs] = (np.arange(1, m + 1) / (r + 1.0)).mean(axis=1)
    scored = n_pos > 0
    excluded = n_query - int(scored.sum())
    if excluded:
        warnings.warn(
            f"evaluate: {excluded} of {n_query} queries had no valid positive after junk filtering",
            stacklevel=3,
        )
    if excluded == n_query:
        raise DegeneracyError("evaluate: no query has a valid positive; nothing to score")

    counts = np.bincount(first_hit[scored], minlength=n_gallery)
    cmc = np.cumsum(counts) / (n_query - excluded)
    per_query_ap = ap[scored]
    return RankingReport(cmc=cmc, map=float(per_query_ap.mean()), per_query_ap=per_query_ap, excluded_queries=excluded)


def evaluate(dataset: RetrievalDataset, ranked) -> RankingReport:
    """Score ranked gallery lists against the dataset's labels.

    ``ranked`` holds one permutation of the gallery indices per query,
    best match first.  Junk rule: gallery rows with the query's identity
    AND the query's camera are removed from that query's list before
    scoring.  Queries left without a single positive are excluded
    (warning + count); they contribute to neither the curve nor the mean.
    """
    ranked = np.asarray(ranked)
    n_query, n_gallery = dataset.query_ids.shape[0], dataset.gallery_ids.shape[0]
    if ranked.shape != (n_query, n_gallery):
        raise ValidationError(f"ranked lists have shape {ranked.shape}, expected {(n_query, n_gallery)}")
    if ranked.dtype.kind not in "iu":
        raise ValidationError(f"ranked lists must hold integer gallery indices, got dtype {ranked.dtype}")
    # range first: a scatter would silently wrap a negative index
    bad = ((ranked < 0) | (ranked >= n_gallery)).any(axis=1)
    # float so that _score can write NaN at junk; indices below 2**53 are exact
    position = np.full((n_query, n_gallery), -1.0)
    if not bad.any():
        np.put_along_axis(position, ranked, np.arange(n_gallery), axis=1)
        bad = (position < 0).any(axis=1)
    if bad.any():
        qi = int(np.argmax(bad))
        raise ValidationError(f"ranked list for query {qi} is not a permutation of the gallery indices")
    # each row's inverse permutation orders the gallery without ties
    return _score(dataset, [position])


def evaluate_features(dataset: RetrievalDataset, query_feats, gallery_feats) -> RankingReport:
    """Score retrieval by Euclidean distance between query and gallery
    features, exactly as ``evaluate(dataset, rank_gallery(query_feats,
    gallery_feats))`` does, without ranking the gallery.

    Each positive's rank is counted from the distances directly: the
    non-junk rows strictly closer plus those at equal distance with a
    lower gallery index.  Distances are computed ``QUERY_BLOCK`` queries
    at a time into buffers allocated once, so memory grows with one block
    times the gallery size.
    """
    q, g = _check_features(query_feats, gallery_feats)
    expected = (dataset.query_ids.shape[0], dataset.gallery_ids.shape[0])
    if (q.shape[0], g.shape[0]) != expected:
        raise ValidationError(
            f"features for {q.shape[0]} queries x {g.shape[0]} gallery rows, dataset has {expected[0]} x {expected[1]}"
        )
    return _score(dataset, _sq_dist_blocks(q, g, QUERY_BLOCK))


def l2_normalize(feats) -> np.ndarray:
    """Row-wise unit normalization; zero rows are left untouched.  Range-safe: a row whose
    norm overflows or falls below sqrt(tiny) is first divided by its largest absolute entry."""
    feats = as_matrix(feats, "feats")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
    extreme = (norms == np.inf) | ((norms < np.sqrt(np.finfo(np.float64).tiny)) & feats.any(axis=1, keepdims=True))
    if extreme.any():  # the other rows are divided by 1.0, which keeps their bits
        feats = feats / np.where(extreme, np.abs(feats).max(axis=1, keepdims=True), 1.0)
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats / np.where(norms == 0.0, 1.0, norms)


def _header(d: int) -> list[str]:
    """The dataset CSV header for ``d`` features: id,camera,split,f0..f{d-1}."""
    return ["id", "camera", "split"] + [f"f{j}" for j in range(d)]


def save_dataset(dataset: RetrievalDataset, path) -> None:
    """Write the dataset CSV, floats as their ``repr`` as in ``write_csv``, so
    the round trip is exact.  Its ``csv.writer`` is not used: on Python 3.11
    it scans each character of each cell and writes these rows 40 % slower."""
    labels = zip(dataset.ids.tolist(), dataset.cameras.tolist(), dataset.split.tolist())
    with open_artifact(path) as fh:
        fh.write(",".join(_header(dataset.dim)) + "\n")
        # one row of Python floats at a time keeps the transient memory small
        fh.writelines(
            f"{i},{c},{s},{','.join(map(repr, row.tolist()))}\n" for (i, c, s), row in zip(labels, dataset.features)
        )


# A dataset's parsed table is kept beside its CSV in the hidden sidecar
# ".{name}.parsed.npz", under the SHA-256 of the CSV's bytes.  Bump
# _CACHE_VERSION whenever the set of CSVs the parser accepts changes, or its
# output does: a sidecar of another version is a miss.
_CACHE_VERSION = 1


def load_dataset(path) -> RetrievalDataset:
    """Read a dataset CSV.  CRLF or CR line ends and quoted fields are
    accepted.  A file that is not UTF-8 text or has a malformed header
    raises ValidationError naming ``path``; a malformed row, a NaN or
    infinite feature included, names ``path:lineno``.

    The parsed table is kept in the sidecar ``.{name}.parsed.npz`` beside
    ``path``, keyed by the SHA-256 of the file's bytes; while they match,
    the parse is skipped.  A table from either source passes the same
    checks.  A sidecar is read only if it is a regular file owned by the
    current user or by the CSV's owner and writable by no one else; one
    that is not is neither read nor replaced.  Any other sidecar that
    cannot be used is a miss and is rewritten; one that cannot be written
    is left out."""
    file = Path(path)
    with open(file, "rb") as fh:
        raw = fh.read()
        owner = os.fstat(fh.fileno()).st_uid
    digest = hashlib.sha256(raw).hexdigest()
    sidecar = file.with_name(f".{file.name}.parsed.npz")
    table, replaceable = _read_sidecar(sidecar, digest, owner)
    parsed = table is None
    # each of the bytes, the text and the lines is freed once the next
    # exists, and the bytes before a hit's copies: what the heap held here
    # stays resident under the scoring that follows
    if parsed:
        text = decode_text(raw, path)
        del raw
        lines = text.split("\n")
        del text
        table = _parse_table(lines, path)
        del lines
    else:
        del raw
    finite = np.isfinite(table["f"]).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite feature value")
    dataset = RetrievalDataset(
        features=np.ascontiguousarray(table["f"]),
        ids=table["id"],
        cameras=table["camera"],
        split=np.ascontiguousarray(table["split"]),
    )
    _validate_cross_camera(dataset)
    if parsed and replaceable:
        try:
            with open_artifact(sidecar, "wb") as fh:
                # a umask that lets the group write would make the sidecar untrusted
                os.fchmod(fh.fileno(), stat.S_IMODE(os.fstat(fh.fileno()).st_mode) & ~0o022)
                np.savez(fh, sha256=digest, version=_CACHE_VERSION, table=table)
        except OSError:
            pass  # only a cache: without it the next load parses again
    return dataset


def _read_sidecar(sidecar: Path, digest: str, owner: int) -> tuple[np.ndarray | None, bool]:
    """The table stored in ``sidecar`` for a CSV whose SHA-256 is
    ``digest`` and whose owner is ``owner``, or None, and whether
    ``sidecar`` may be replaced: not when ``open_private`` refuses what is
    there, which is then never read.  None is also given for no file, one
    that does not load (without pickles), another digest or
    ``_CACHE_VERSION``, or a table that is not one row per line of the
    row dtype for its own width."""
    try:
        fh = open_private(sidecar, owner)
    except FileNotFoundError:
        return None, True
    except OSError:  # a link, a FIFO, a directory, or a file of another user
        return None, False
    with fh:
        try:
            with np.load(fh, allow_pickle=False) as stored:
                if stored["sha256"].item() != digest or stored["version"].item() != _CACHE_VERSION:
                    return None, True
                table = stored["table"]
            if table.ndim == 1 and table.dtype == _row_dtype(table.dtype["f"].shape[0]):
                return table, True
        except Exception:  # a sidecar is only a cache: whatever is wrong with it makes a miss
            pass
    return None, True


def _row_dtype(d: int) -> np.dtype:
    # every tag in SPLITS fits in 7 characters, so a longer tag cut to 8
    # stays invalid
    return np.dtype([("id", np.int64), ("camera", np.int64), ("split", "U8"), ("f", np.float64, (d,))])


def _parse_table(lines: list[str], path) -> np.ndarray:
    """The structured table of a dataset CSV's lines, header first."""
    header, *body = lines
    if body and body[-1] == "":
        body.pop()
    d = header.count(",") - 2
    if d < 1 or header.split(",") != _header(d):
        raise ValidationError(f"{path}: malformed header; expected id,camera,split,f0..f{{d-1}}")
    if not body:
        raise ValidationError(f"{path}: no rows after the header")
    # loadtxt skips blank lines, so every line's field count is checked here
    for lineno, line in enumerate(body, start=2):
        if line.count(",") != d + 2:
            raise ValidationError(f"{path}:{lineno}: expected {d + 3} fields, got {line.count(',') + 1}")
    row = _row_dtype(d)
    try:
        return _parse_rows(body, row)
    except ValueError as exc:
        # parse line by line only to name the first line that fails alone;
        # numpy's "at row N" would count within that one line, so it is cut
        where, error = path, exc
        for lineno, line in enumerate(body, start=2):
            try:
                _parse_rows([line], row)
            except ValueError as line_exc:
                where, error = f"{path}:{lineno}", line_exc
                break
        raise ValidationError(f"{where}: {str(error).split(' at row ')[0]}") from None


def _parse_rows(lines: list[str], row: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)


def write_report(report: RankingReport, path) -> None:
    """Report CSV: metric,value rows for the headline numbers followed by
    the full cumulative matching curve."""
    cmc = report.cmc.tolist()
    rows = [(f"rank{r}", cmc[r - 1]) for r in (1, 5, 10) if r <= len(cmc)]
    rows += [("map", report.map), ("valid_queries", len(report.per_query_ap)), ("excluded_queries", report.excluded_queries)]
    write_csv(path, ["metric", "value"], rows + [(f"cmc{r}", value) for r, value in enumerate(cmc, start=1)])


def format_report(report: RankingReport) -> str:
    """Human-readable summary table."""
    out = io.StringIO()
    n = len(report.cmc)
    out.write("rank   accuracy\n")
    for r in (1, 5, 10, 20):
        if r <= n:
            out.write(f"{r:>4}   {report.cmc[r - 1]:.4f}\n")
    out.write(f" mAP   {report.map:.4f}\n")
    out.write(f"queries scored: {len(report.per_query_ap)}, excluded: {report.excluded_queries}\n")
    return out.getvalue()
