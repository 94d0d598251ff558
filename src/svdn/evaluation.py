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

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError, open_artifact, read_text
from .linalg import _sq_dist_blocks, as_matrix

SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLITS = (SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)

# Queries per distance block in evaluate_features; scoring memory grows with
# QUERY_BLOCK x gallery rows instead of queries x gallery rows.
QUERY_BLOCK = 64


@dataclass
class RetrievalDataset:
    """Labelled feature rows partitioned into train / query / gallery."""

    features: np.ndarray  # (n, d) float64
    ids: np.ndarray       # (n,) int64 identity labels
    cameras: np.ndarray   # (n,) int64 camera labels
    split: np.ndarray     # (n,) unicode, each one of SPLITS

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def _mask(self, tag: str) -> np.ndarray:
        return self.split == tag

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self._mask(SPLIT_TRAIN)]

    @property
    def train_ids(self) -> np.ndarray:
        return self.ids[self._mask(SPLIT_TRAIN)]

    @property
    def query_features(self) -> np.ndarray:
        return self.features[self._mask(SPLIT_QUERY)]

    @property
    def query_ids(self) -> np.ndarray:
        return self.ids[self._mask(SPLIT_QUERY)]

    @property
    def query_cameras(self) -> np.ndarray:
        return self.cameras[self._mask(SPLIT_QUERY)]

    @property
    def gallery_features(self) -> np.ndarray:
        return self.features[self._mask(SPLIT_GALLERY)]

    @property
    def gallery_ids(self) -> np.ndarray:
        return self.ids[self._mask(SPLIT_GALLERY)]

    @property
    def gallery_cameras(self) -> np.ndarray:
        return self.cameras[self._mask(SPLIT_GALLERY)]

    def validate(self) -> "RetrievalDataset":
        """Check structural invariants; raises ValidationError on the first
        violation.  Every query identity must appear in the gallery under
        at least one different camera, otherwise it could never be matched
        after junk filtering."""
        self.features = as_matrix(self.features, "features")
        n = self.features.shape[0]
        for name, arr in (("ids", self.ids), ("cameras", self.cameras), ("split", self.split)):
            if np.asarray(arr).shape != (n,):
                raise ValidationError(f"{name} must have one entry per row, got {np.asarray(arr).shape}")
        bad = set(np.unique(self.split)) - set(SPLITS)
        if bad:
            raise ValidationError(f"unknown split tags {sorted(bad)}; expected one of {SPLITS}")
        q_ids, q_cams = self.query_ids, self.query_cameras
        pair_q, _, is_junk = _id_pairs(self)
        bad = np.bincount(pair_q[~is_junk], minlength=q_ids.shape[0]) == 0
        if bad.any():
            qi = int(np.argmax(bad))
            raise ValidationError(
                f"query identity {q_ids[qi]} (camera {q_cams[qi]}) has no gallery sample under a different camera"
            )
        return self


def require_queries(dataset: RetrievalDataset, source: str = "dataset") -> None:
    """Raise ValidationError naming ``source`` unless the dataset has query
    rows; ``validate`` accepts a table without them, retrieval cannot."""
    if dataset.query_ids.size == 0:
        raise ValidationError(f"{source} has an empty query split; retrieval scoring needs query rows")


def _id_pairs(dataset: RetrievalDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, gallery row) pair sharing an identity, query-major
    with ascending gallery index within a query, and whether each pair is
    junk: the gallery row also has the query's camera."""
    q_ids, g_ids = dataset.query_ids, dataset.gallery_ids
    by_id = np.argsort(g_ids, kind="stable")
    lo = np.searchsorted(g_ids[by_id], q_ids, side="left")
    sizes = np.searchsorted(g_ids[by_id], q_ids, side="right") - lo
    pair_q = np.repeat(np.arange(q_ids.shape[0]), sizes)
    first_pair = np.cumsum(sizes) - sizes
    pair_g = by_id[np.repeat(lo - first_pair, sizes) + np.arange(pair_q.size)]
    return pair_q, pair_g, dataset.gallery_cameras[pair_g] == dataset.query_cameras[pair_q]


@dataclass
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
    if identities < 2:
        raise ValidationError(f"need at least 2 identities, got {identities}")
    if cameras < 2:
        raise ValidationError(f"need at least 2 cameras, got {cameras}")
    if samples_per_id_camera < 2:
        raise ValidationError(
            "need at least 2 samples per identity-camera cell; with 1 the gallery "
            "would hold no cross-camera positives for any query"
        )
    if dim < 1:
        raise ValidationError(f"feature dimension must be >= 1, got {dim}")
    if noise < 0 or camera_scale < 0:
        raise ValidationError("noise and camera_scale must be non-negative")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

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
    train_ids = set(order[: identities // 2].tolist())

    rows, ids, cams, split = [], [], [], []
    for i in range(identities):
        for c in range(cameras):
            base = centers[i] @ cam_mats[c] + cam_shifts[c]
            for s in range(samples_per_id_camera):
                rows.append(base + eps[i, c, s])
                ids.append(i)
                cams.append(c)
                if i in train_ids:
                    split.append(SPLIT_TRAIN)
                else:
                    split.append(SPLIT_QUERY if s == 0 else SPLIT_GALLERY)

    dataset = RetrievalDataset(
        features=np.asarray(rows, dtype=np.float64),
        ids=np.asarray(ids, dtype=np.int64),
        cameras=np.asarray(cams, dtype=np.int64),
        split=np.asarray(split),
    )
    return dataset.validate()


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
    keys by gallery index.  Each row sorts only the keys at or below its
    worst positive's key; ``searchsorted`` then gives the rows strictly
    before every positive and flags exact ties, the only case that needs
    an explicit count of lower-index equal rows."""
    n_query, n_gallery = dataset.query_ids.shape[0], dataset.gallery_ids.shape[0]
    pair_q, pair_g, is_junk = _id_pairs(dataset)
    pos_q, pos_g = pair_q[~is_junk], pair_g[~is_junk]
    junk_q, junk_g = pair_q[is_junk], pair_g[is_junk]
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
            kept = row[row <= w]
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


# Dataset CSV: header id,camera,split,f0..f{d-1}; floats via repr() so the
# round-trip is value-exact and the bytes are reproducible.
def save_dataset(dataset: RetrievalDataset, path) -> None:
    d = dataset.dim
    labels = zip(dataset.ids.astype(np.int64).tolist(), dataset.cameras.astype(np.int64).tolist(), dataset.split.tolist())
    with open_artifact(path) as fh:
        fh.write(",".join(["id", "camera", "split"] + [f"f{j}" for j in range(d)]) + "\n")
        # one row of Python floats at a time keeps the transient memory small
        fh.writelines(
            f"{i},{c},{s},{','.join(map(repr, row.tolist()))}\n" for (i, c, s), row in zip(labels, dataset.features)
        )


def load_dataset(path) -> RetrievalDataset:
    """Read a dataset CSV.  CRLF or CR line ends and quoted fields are
    accepted.  A file that is not UTF-8 text or has a malformed header
    raises ValidationError naming ``path``; a malformed row, a NaN or
    infinite feature included, names ``path:lineno``."""
    header, *body = read_text(path).split("\n")
    if body and body[-1] == "":
        body.pop()
    d = header.count(",") - 2
    if d < 1 or header.split(",") != ["id", "camera", "split"] + [f"f{j}" for j in range(d)]:
        raise ValidationError(f"{path}: malformed header; expected id,camera,split,f0..f{{d-1}}")
    if not body:
        raise ValidationError(f"{path}: no rows after the header")
    # loadtxt skips blank lines, so every line's field count is checked here
    for lineno, line in enumerate(body, start=2):
        if line.count(",") != d + 2:
            raise ValidationError(f"{path}:{lineno}: expected {d + 3} fields, got {line.count(',') + 1}")
    # every tag in SPLITS fits in 7 characters, so a longer tag cut to 8
    # stays invalid
    row = np.dtype([("id", np.int64), ("camera", np.int64), ("split", "U8"), ("f", np.float64, (d,))])
    try:
        table = _parse_rows(body, row)
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
    finite = np.isfinite(table["f"]).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite feature value")
    dataset = RetrievalDataset(
        features=np.ascontiguousarray(table["f"]),
        ids=np.ascontiguousarray(table["id"]),
        cameras=np.ascontiguousarray(table["camera"]),
        split=np.ascontiguousarray(table["split"]),
    )
    return dataset.validate()


def _parse_rows(lines: list[str], row: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)


def write_report(report: RankingReport, path) -> None:
    """Report CSV: metric,value rows for the headline numbers followed by
    the full cumulative matching curve."""
    n = len(report.cmc)
    with open_artifact(path) as fh:
        fh.write("metric,value\n")
        fh.writelines(f"rank{r},{float(report.cmc[r - 1])!r}\n" for r in (1, 5, 10) if r <= n)
        fh.write(f"map,{float(report.map)!r}\n")
        fh.write(f"valid_queries,{len(report.per_query_ap)}\nexcluded_queries,{report.excluded_queries}\n")
        fh.writelines(f"cmc{r},{value!r}\n" for r, value in enumerate(report.cmc.tolist(), start=1))


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
