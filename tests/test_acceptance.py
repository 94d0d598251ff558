"""Acceptance suite.

Each test checks one headline guarantee of the library at its stated
tolerance and prints a single PASS line (pytest reports any failure).
The expensive end-to-end artifacts (trained models, the method
comparison, the dimension sweep) are built once in module-scoped
fixtures and timed, so the runtime budgets can be asserted too.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from svdn.cli import main as cli_main
from svdn.decorrelate import DecorrMethod, apply, distance_preservation_gap
from svdn.diagnostics import s_of_w
from svdn.evaluation import RetrievalDataset, evaluate, generate_synthetic
from svdn.linalg import pairwise_sq_dist
from svdn.network import build_model
from svdn.trainer import (
    PHASE_DECORRELATE,
    PHASE_RELAXATION,
    RriSchedule,
    run_baseline,
    run_decorr_comparison,
    run_dim_sweep,
    run_rri,
    train_step0,
    training_arrays,
)

from oracles import fd_gradients, loop_gram_score, oracle_evaluate

DEFAULT_HIDDEN = (128, 128)
DEFAULT_EIGEN = 64


def report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic()


@pytest.fixture(scope="module")
def rri_run(default_dataset):
    """Step 0, the US run, and the equal-epoch baseline on the defaults."""
    start = time.perf_counter()
    data = default_dataset
    schedule = RriSchedule()
    _, _, classes = training_arrays(data)
    model = build_model(data.dim, DEFAULT_HIDDEN, DEFAULT_EIGEN, classes, schedule.seed)
    model, step0_record = train_step0(model, data, schedule)
    baseline_start = model.copy()
    us_model, trace = run_rri(model, data, schedule)
    n_rri = trace.records[-1].rri_index
    _, baseline_record = run_baseline(baseline_start, data, schedule, n_rri)
    return {
        "schedule": schedule,
        "step0": step0_record,
        "trace": trace,
        "final": trace.records[-1],
        "baseline": baseline_record,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def comparison(default_dataset):
    start = time.perf_counter()
    rows = run_decorr_comparison(
        default_dataset,
        RriSchedule(),
        methods={DecorrMethod.ORIG, DecorrMethod.US, DecorrMethod.UVT, DecorrMethod.QD},
        hidden_dims=DEFAULT_HIDDEN,
        eigen_dim=DEFAULT_EIGEN,
    )
    return dict(rows), time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep(default_dataset):
    start = time.perf_counter()
    dims = (4, 8, 16, 32, 64, 128)
    results = run_dim_sweep(default_dataset, RriSchedule(), dims, DEFAULT_HIDDEN)
    with_rri = np.array([final.map for _, final, _ in results])
    without_rri = np.array([control.map for _, _, control in results])
    return dims, with_rri, without_rri, time.perf_counter() - start


def test_criterion_1_distance_preservation():
    start = time.perf_counter()
    worst_rel_gap = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, n + 1))
        m = int(rng.integers(4, 20))
        w = rng.normal(size=(n, k)) * rng.uniform(0.05, 20.0)
        h = rng.normal(size=(m, n)) * rng.uniform(0.05, 20.0)
        w_new = apply(w, DecorrMethod.US)
        d_old = pairwise_sq_dist(h @ w, h @ w)
        gap = distance_preservation_gap(w, w_new, h)
        rel = gap / (1.0 + float(np.sqrt(d_old).max()))
        worst_rel_gap = max(worst_rel_gap, rel)
        assert rel <= 1e-7, f"instance {i}: relative gap {rel:.3e}"
        d_new = pairwise_sq_dist(h @ w_new, h @ w_new)
        assert np.array_equal(
            np.argsort(d_old, axis=1, kind="stable"), np.argsort(d_new, axis=1, kind="stable")
        ), f"instance {i}: ranking changed"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"100 instances, worst relative gap {worst_rel_gap:.2e}, all rankings identical ({elapsed:.2f}s)")


def test_criterion_2_competitors_change_distances():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    w = rng.normal(size=(9, 5))
    h = rng.normal(size=(14, 9))
    s = np.linalg.svd(w, compute_uv=False)
    assert np.all(np.diff(s) < 0), "instance must have distinct singular values"
    d_old = np.sqrt(pairwise_sq_dist(h @ w, h @ w))
    changes = {}
    for method in (DecorrMethod.U, DecorrMethod.UVT, DecorrMethod.QD):
        d_new = np.sqrt(pairwise_sq_dist(h @ apply(w, method), h @ apply(w, method)))
        rel = np.abs(d_old - d_new) / np.where(d_old > 0, d_old, 1.0)
        changes[method.value] = float(rel.max())
        assert rel.max() > 1e-3, f"{method.value} left all distances unchanged"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in changes.items())
    report(2, f"max relative distance change per method ({detail}) all > 1e-3 ({elapsed:.2f}s)")


def test_criterion_3_correlation_score_correctness():
    start = time.perf_counter()
    assert s_of_w(np.eye(6)) == 1.0
    for k in (2, 4, 9):
        col = np.random.default_rng(k).normal(size=7)
        col /= np.linalg.norm(col)
        w = np.tile(col[:, None], (1, k))
        assert abs(s_of_w(w) - 1.0 / k) <= 1e-12
    worst = 0.0
    for seed in range(20):
        w = np.random.default_rng(seed).normal(size=(8, 4))
        worst = max(worst, abs(s_of_w(w) - loop_gram_score(w)))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"orthogonal -> 1.0 exactly, identical columns -> 1/k, oracle deviation {worst:.1e} ({elapsed:.2f}s)")


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    model = build_model(6, (8, 7), 5, 4, seed=99)
    assert model.num_params() <= 1000
    rng = np.random.default_rng(98)
    batch = rng.normal(size=(10, 6))
    labels = rng.integers(0, 4, size=10)
    fd = fd_gradients(model, batch, labels, step=1e-5)
    worst = 0.0
    for frozen in (False, True):
        _, grads = model.loss_and_grads(batch, labels, frozen=frozen)
        for name, g in grads.items():
            if frozen and name == "eigenlayer":
                assert np.all(g == 0.0)
                continue
            err = np.abs(g - fd[name]).max() / (1.0 + np.abs(fd[name]).max())
            worst = max(worst, err)
            assert err <= 1e-6, f"{name} (frozen={frozen}): relative error {err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"all gradients within 1e-6 of central differences (worst {worst:.1e}), frozen and unfrozen ({elapsed:.2f}s)")


def test_criterion_5_rri_end_to_end(rri_run):
    trace = rri_run["trace"]
    final = rri_run["final"]
    baseline = rri_run["baseline"]
    elapsed = rri_run["elapsed"]

    # (a) every decorrelation leaves the weights orthogonal
    decorr_scores = [r.s_of_w for r in trace.records if r.phase == PHASE_DECORRELATE]
    assert decorr_scores and min(decorr_scores) >= 1.0 - 1e-6

    # (b) post-relaxation score sequence non-decreasing within slack, and converged
    relax = [r.s_of_w for r in trace.records if r.phase == PHASE_RELAXATION]
    for prev, nxt in zip(relax, relax[1:]):
        assert nxt >= prev - 0.02, f"post-relaxation score dropped {prev:.4f} -> {nxt:.4f}"
    assert trace.converged, "run did not converge within the iteration budget"

    # (c) final orthogonality clears the equal-epoch baseline by a wide margin
    assert final.s_of_w - baseline.s_of_w >= 0.3

    # (d) final retrieval quality beats the equal-epoch baseline
    assert final.map >= baseline.map + 0.03

    assert elapsed < 600.0
    report(
        5,
        f"decorr S >= 1-1e-6; post-relax sequence {['%.3f' % v for v in relax]} converged; "
        f"dS={final.s_of_w - baseline.s_of_w:+.3f} (>=0.3); "
        f"dmAP={final.map - baseline.map:+.4f} (>=0.03) ({elapsed:.1f}s)",
    )


def test_criterion_6_decorrelation_method_comparison(comparison):
    rows, elapsed = comparison
    us = rows[DecorrMethod.US].map
    margins = {}
    for method in (DecorrMethod.ORIG, DecorrMethod.UVT, DecorrMethod.QD):
        margin = us - rows[method].map
        margins[method.value] = margin
        assert margin >= -0.005, f"US ({us:.4f}) behind {method.value} ({rows[method].map:.4f}) beyond tie tolerance"
    assert elapsed < 1800.0
    detail = ", ".join(f"US-{k}={v:+.4f}" for k, v in margins.items())
    report(6, f"US mAP {us:.4f} tops Orig/UVt/QD ({detail}, ties allowed within 0.005) ({elapsed:.1f}s)")


def test_criterion_7_dimension_sweep(sweep):
    dims, with_rri, without_rri, elapsed = sweep
    peak_with = float(with_rri.max())
    assert with_rri[-1] >= peak_with - 0.02, f"with-RRI curve sagged at dim {dims[-1]}"
    assert with_rri[-2] >= peak_with - 0.02, f"with-RRI curve sagged at dim {dims[-2]}"
    drop = float(without_rri.max() - without_rri[-1])
    curve = ", ".join(f"{d}:{w:.3f}/{wo:.3f}" for d, w, wo in zip(dims, with_rri, without_rri))
    assert elapsed < 1800.0
    if drop >= 0.02:
        report(7, f"with-RRI flat at top dims, without-RRI drops {drop:.3f} from its peak (dim:with/without = {curve}) ({elapsed:.1f}s)")
    else:
        report(
            7,
            "with-RRI flat at top dims; without-RRI branch INCONCLUSIVE (no peak-then-drop, "
            f"largest-dim deficit {drop:.4f} < 0.02) -- measured curve attached (dim:with/without = {curve}) ({elapsed:.1f}s)",
        )


def test_criterion_8_determinism(tmp_path, default_dataset):
    start = time.perf_counter()
    from svdn.evaluation import save_dataset

    data_path = tmp_path / "dataset.csv"
    save_dataset(default_dataset, data_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {data_path}\nmax_rri = 3\n")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    trace_bytes = [(out / "trace.csv").read_bytes() for out in outs]
    assert trace_bytes[0] == trace_bytes[1]
    names = sorted(p.name for p in outs[0].glob("ckpt_*.svdn"))
    assert names, "no checkpoints written"
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    report(8, f"two identical runs: trace and {len(names)} checkpoints byte-identical ({elapsed:.1f}s)")


def test_criterion_9_evaluation_oracle():
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        n_query = int(rng.integers(3, 9))
        n_gallery = int(rng.integers(n_query, 40))
        n_ids = int(rng.integers(2, 7))
        n_cams = int(rng.integers(2, 4))
        q_ids = rng.integers(0, n_ids, size=n_query)
        q_cams = rng.integers(0, n_cams, size=n_query)
        g_ids = np.concatenate([q_ids, rng.integers(0, n_ids, size=n_gallery - n_query)])
        g_cams = np.concatenate([(q_cams + 1) % n_cams, rng.integers(0, n_cams, size=n_gallery - n_query)])
        dataset = RetrievalDataset(
            features=np.zeros((n_query + n_gallery, 2)),
            ids=np.concatenate([q_ids, g_ids]),
            cameras=np.concatenate([q_cams, g_cams]),
            split=np.array(["query"] * n_query + ["gallery"] * n_gallery),
        )
        ranked = np.vstack([rng.permutation(n_gallery) for _ in range(n_query)])
        got = evaluate(dataset, ranked)
        cmc, mean_ap, _, excluded = oracle_evaluate(q_ids, q_cams, g_ids, g_cams, ranked)
        assert got.excluded_queries == excluded
        worst = max(worst, abs(got.map - mean_ap), float(np.abs(got.cmc - cmc).max()))
        assert abs(got.map - mean_ap) <= 1e-12
        assert np.abs(got.cmc - cmc).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"mAP and CMC match the brute-force oracle on 50 instances (worst deviation {worst:.1e}) ({elapsed:.2f}s)")
