"""Independent reference implementations used only as test oracles.

Everything here is deliberately written the slow, obvious way (python
loops, textbook iterations) so it shares no code path with the library.
"""

import csv
import io
import re

import numpy as np


def jacobi_eigenvalues(sym, sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    sorted descending."""
    m = np.array(sym, dtype=float, copy=True)
    n = m.shape[0]
    scale = np.linalg.norm(m) or 1.0
    for _ in range(sweeps):
        off = np.sqrt(np.sum(m**2) - np.sum(np.diag(m) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) <= tol * scale:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))[::-1]


def loop_sq_dists(a, b):
    """Naive double-loop squared Euclidean distances."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            acc = 0.0
            for k in range(a.shape[1]):
                d = a[i, k] - b[j, k]
                acc += d * d
            out[i, j] = acc
    return out


def loop_gram_score(w):
    """Correlation score computed entry by entry from the definition."""
    w = np.asarray(w, dtype=float)
    k = w.shape[1]
    diag = 0.0
    total = 0.0
    for i in range(k):
        for j in range(k):
            g = float(np.dot(w[:, i], w[:, j]))
            if i == j:
                diag += g
            total += abs(g)
    return diag / total


def loop_forward(backbone, eigen, cls_w, cls_b, batch):
    """Straight-line per-sample re-computation of the model forward pass."""
    batch = np.asarray(batch, dtype=float)
    logits = np.zeros((batch.shape[0], cls_w.shape[1]))
    hs = np.zeros((batch.shape[0], eigen.shape[0]))
    fs = np.zeros((batch.shape[0], eigen.shape[1]))
    for r in range(batch.shape[0]):
        a = batch[r]
        for w, b in backbone:
            z = np.array([sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])])
            a = np.where(z > 0, z, 0.0)
        hs[r] = a
        f = np.array([sum(a[i] * eigen[i, j] for i in range(eigen.shape[0])) for j in range(eigen.shape[1])])
        fs[r] = f
        logits[r] = [sum(f[i] * cls_w[i, j] for i in range(cls_w.shape[0])) + cls_b[j] for j in range(cls_w.shape[1])]
    return hs, fs, logits


def fd_gradients(model, batch, labels, step=1e-5):
    """Central finite differences of the loss for every parameter."""
    grads = {}
    for name, p in model.param_items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = model.loss(batch, labels)
            flat[i] = orig - step
            lm = model.loss(batch, labels)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * step)
        grads[name] = g
    return grads


def reference_forward(model, batch):
    """The two-array forward pass: each layer computes ``z = a @ W + b``
    in a new array and ``a = max(z, 0)`` in another.  Returns each
    layer's ReLU mask ``z > 0``, the activations (``batch`` first), ``h``,
    ``f`` and the logits, with the bits the model's in-place forward pass
    must reproduce."""
    masks, acts, a = [], [batch], batch
    for layer in model.backbone:
        z = a @ layer.weight + layer.bias
        a = np.maximum(z, 0.0)
        masks.append(z > 0.0)
        acts.append(a)
    f = a @ model.eigenlayer
    return masks, acts, a, f, f @ model.classifier.weight + model.classifier.bias


def reference_loss_and_grads(model, batch, labels, frozen=False):
    """Mean cross-entropy and exact gradients keyed like ``param_items``,
    by backprop over ``reference_forward`` with its ReLU masks ``z > 0``."""
    masks, acts, h, f, logits = reference_forward(model, batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    m = batch.shape[0]
    loss = float(-log_probs[np.arange(m), labels].mean())
    dlogits = exp / total
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m

    grads = {name: np.zeros_like(p) for name, p in model.param_items()}
    *g_backbone, g_eigen, g_cls_weight, g_cls_bias = grads.values()
    np.matmul(f.T, dlogits, out=g_cls_weight)
    np.add.reduce(dlogits, axis=0, out=g_cls_bias)
    df = dlogits @ model.classifier.weight.T
    if not frozen:
        np.matmul(h.T, df, out=g_eigen)
    da = df @ model.eigenlayer.T
    for i in range(len(model.backbone) - 1, -1, -1):
        np.multiply(da, masks[i], out=da)
        np.matmul(acts[i].T, da, out=g_backbone[2 * i])
        np.add.reduce(da, axis=0, out=g_backbone[2 * i + 1])
        if i > 0:
            da = da @ model.backbone[i].weight.T
    return loss, grads


def pr_integration_ap(hits):
    """Average precision as the area under the precision-recall steps."""
    hits = np.asarray(hits, dtype=bool)
    num_rel = int(hits.sum())
    if num_rel == 0:
        return None
    ap = 0.0
    tp = 0
    recall_prev = 0.0
    for rank0, hit in enumerate(hits):
        if hit:
            tp += 1
            precision = tp / (rank0 + 1)
            recall = tp / num_rel
            ap += (recall - recall_prev) * precision
            recall_prev = recall
    return ap


def oracle_evaluate(q_ids, q_cams, g_ids, g_cams, ranked):
    """Plain-python scoring with the same-id-same-camera junk rule.

    Returns (cmc, mean_ap, per_query_ap, excluded)."""
    n_gallery = len(g_ids)
    firsts = []
    aps = []
    excluded = 0
    for qi in range(len(q_ids)):
        filtered = [g for g in ranked[qi] if not (g_ids[g] == q_ids[qi] and g_cams[g] == q_cams[qi])]
        hits = [g_ids[g] == q_ids[qi] for g in filtered]
        if not any(hits):
            excluded += 1
            continue
        firsts.append(hits.index(True))
        aps.append(pr_integration_ap(hits))
    cmc = np.array([sum(1 for f in firsts if f < r) / len(firsts) for r in range(1, n_gallery + 1)])
    return cmc, float(np.mean(aps)), aps, excluded


def loop_rank_aps(q_ids, q_cams, g_ids, g_cams, dists):
    """Per-query APs (queries with a positive only) from one python count
    per positive: the non-junk rows strictly closer, plus those at equal
    distance with a lower gallery index.  Each AP is the same expression
    the library evaluates, so the values must agree bit for bit."""
    aps = []
    for qi in range(len(q_ids)):
        kept = [j for j in range(len(g_ids)) if not (g_ids[j] == q_ids[qi] and g_cams[j] == q_cams[qi])]
        positives = [p for p in kept if g_ids[p] == q_ids[qi]]
        if not positives:
            continue
        d = dists[qi]
        ranks = sorted(sum(1 for j in kept if d[j] < d[p] or (d[j] == d[p] and j < p)) for p in positives)
        aps.append(float((np.arange(1, len(ranks) + 1) / (np.asarray(ranks) + 1.0)).mean()))
    return np.asarray(aps)


def loop_first_unmatched_query(q_ids, q_cams, g_ids, g_cams):
    """Index of the first query whose identity has no gallery row under a
    different camera, or None."""
    for qi in range(len(q_ids)):
        if not any(g_ids[j] == q_ids[qi] and g_cams[j] != q_cams[qi] for j in range(len(g_ids))):
            return qi
    return None


def csv_dataset_text(dataset):
    """A dataset CSV as written through ``csv.writer``, one field at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "camera", "split"] + [f"f{j}" for j in range(dataset.features.shape[1])])
    for i in range(dataset.features.shape[0]):
        row = [int(dataset.ids[i]), int(dataset.cameras[i]), str(dataset.split[i])]
        writer.writerow(row + [repr(float(v)) for v in dataset.features[i]])
    return out.getvalue()


def reference_sq_dist_blocks(a, b, rows):
    """The one-pass distance epilogue: each ``rows``-row block of ``a``
    gets its product with ``b.T``, then the expansion, the cancellation
    test and the recompute run over the whole block through full-size
    norms and mask arrays.  Yields each block; a sub-chunked epilogue must
    reproduce every bit.  2**-20 is the library's cancellation share."""
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = a2 if a is b else np.einsum("ij,ij->i", b, b)
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        d = np.empty((block.shape[0], b.shape[0]))
        np.matmul(block, b.T, out=d)
        d *= -2.0
        norms = np.add.outer(a2[start : start + block.shape[0]], b2)
        d += norms
        norms *= 2.0**-20
        i, j = np.nonzero(d <= norms)
        diff = block[i] - b[j]
        d[i, j] = np.einsum("ij,ij->i", diff, diff)
        yield d


_REFERENCE_CKPT_NAME = re.compile(r"ckpt_rri(\d+)_([a-z0-9]+)\.svdn$")
_REFERENCE_PHASES = ("step0", "decorrelate", "restraint", "relaxation")


def reference_checkpoint_order(names):
    """``(name, rri_index, phase)`` for each name in the order ``svdn
    diagnose`` lists checkpoints: named files (pattern searched anywhere in
    the name) by iteration, then phase in run order with unknown phases
    last, then name; every other file after them by name."""
    rows = []
    for name in names:
        m = _REFERENCE_CKPT_NAME.search(name)
        rows.append((name, *m.groups()) if m else (name, "", ""))

    def key(row):
        name, rri_index, phase = row
        if not rri_index:
            return (1, 0, 0, name)
        order = _REFERENCE_PHASES.index(phase) if phase in _REFERENCE_PHASES else 99
        return (0, int(rri_index), order, name)

    return sorted(rows, key=key)


def assert_one_parameter_vector(model):
    """Every parameter array of ``model`` is a view of ``model.params`` at its
    ``param_items`` offset: after ``params`` is overwritten with distinct
    values, the arrays read back exactly those values, in order.  The
    model's parameters are overwritten."""
    arrays = [p for _, p in model.param_items()]
    assert model.params.dtype == np.float64 and model.num_params() == model.params.size
    assert all(np.shares_memory(p, model.params) for p in arrays)
    assert np.array_equal(model.params, np.concatenate([p.ravel() for p in arrays]))
    model.params[...] = np.arange(model.params.size)
    assert np.array_equal(model.params, np.concatenate([p.ravel() for p in arrays]))
