from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svdn import decorrelate
from svdn.decorrelate import DecorrMethod
from svdn.diagnostics import s_of_w
from svdn.errors import NumericError, ValidationError
from svdn.evaluation import RetrievalDataset, generate_synthetic
from svdn.network import _grads_into, build_model, load_checkpoint, save_checkpoint

from oracles import assert_one_parameter_vector, reference_checkpoint_order
from svdn.trainer import (
    CHECKPOINT_PHASES,
    PHASE_DECORRELATE,
    PHASE_RELAXATION,
    PHASE_RESTRAINT,
    PHASE_STEP0,
    RriSchedule,
    RriTrace,
    checkpoint_name,
    initial_model,
    parse_checkpoint_name,
    run_baseline,
    run_decorr_comparison,
    run_dim_sweep,
    run_rri,
    train_step0,
    training_arrays,
    write_trace,
)


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic(identities=12, cameras=2, samples_per_id_camera=3, dim=8, seed=5)


def small_schedule(**kw):
    base = dict(
        step0_epochs=4,
        restraint_epochs=3,
        relaxation_epochs=2,
        max_rri=3,
        lr_step0=0.05,
        lr_restraint=0.02,
        lr_relaxation=0.01,
        batch_size=8,
        epsilon_s=0.01,
        seed=3,
    )
    base.update(kw)
    return RriSchedule(**base)


def small_model(data, seed=3, eigen=6):
    _, _, c = training_arrays(data)
    return build_model(data.dim, (16, 12), eigen, c, seed)


def saver(out_dir):
    """An ``on_record`` that saves each phase's model under its ``checkpoint_name``, as ``svdn train``'s writer does."""
    return lambda record, model: save_checkpoint(model, out_dir / checkpoint_name(record.rri_index, record.phase))


@pytest.mark.parametrize(
    "ids, split, message",
    [
        ([1, 1, 2, 2], ["query", "gallery", "query", "gallery"], "dataset has an empty training split"),
        ([1, 1, 1, 1], ["train", "train", "query", "gallery"], "need at least 2 training identities, got 1"),
    ],
    ids=["no_training_rows", "one_training_identity"],
)
def test_initial_model_needs_two_training_identities(ids, split, message):
    data = RetrievalDataset(features=np.ones((4, 3)), ids=ids, cameras=[0, 1, 0, 1], split=np.array(split))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        initial_model(data, small_schedule())


class TestSchedule:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValidationError, match="step0_epochs"):
            RriSchedule(step0_epochs=0)
        with pytest.raises(ValidationError, match="max_rri"):
            RriSchedule(max_rri=0)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ValidationError, match="lr_relaxation"):
            RriSchedule(lr_relaxation=0.0)

    @pytest.mark.parametrize("name", ["lr_step0", "lr_restraint", "lr_relaxation", "epsilon_s"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            RriSchedule(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("step0_epochs", 1.5),
            ("restraint_epochs", 2.0),
            ("relaxation_epochs", 1.5),
            ("max_rri", 3.5),
            ("batch_size", 2.5),
            ("seed", 1.5),
            ("eigen_dim", 6.5),
            ("hidden_dims", (16, 2.5)),
            ("hidden_dims", (16, 0)),
            ("batch_size", True),
            ("seed", False),
            ("hidden_dims", (16, True)),
        ],
    )
    def test_non_integer_or_non_positive_value_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            RriSchedule(**{name: value})

    @pytest.mark.parametrize("name", ["lr_step0", "lr_restraint", "lr_relaxation", "epsilon_s"])
    def test_integer_past_the_float_range_rejected(self, name):
        with pytest.raises(ValidationError, match=name):  # not an OverflowError from float()
            RriSchedule(**{name: 10**400})

    @pytest.mark.parametrize("name", ["lr_step0", "lr_restraint", "lr_relaxation", "epsilon_s"])
    def test_integer_accepted_for_a_rate(self, name):
        RriSchedule(**{name: 1})

    def test_initial_model_has_the_schedule_shape(self, small_data):
        sched = small_schedule(hidden_dims=(16, 12), eigen_dim=6)
        assert_same_params(initial_model(small_data, sched), small_model(small_data))
        shallow = initial_model(small_data, small_schedule(hidden_dims=(), eigen_dim=5))
        assert (shallow.backbone, shallow.eigenlayer.shape) == ((), (small_data.dim, 5))


class TestStep0:
    def test_loss_decreases_and_stays_correlated(self, small_data):
        model = small_model(small_data)
        X, y, _ = training_arrays(small_data)
        loss_init = model.loss(X, y)
        model, record = train_step0(model, small_data, small_schedule())
        assert record.phase == PHASE_STEP0
        assert record.rri_index == 0
        assert record.train_loss < loss_init
        assert record.s_of_w < 0.9

    def test_class_count_mismatch_rejected(self, small_data):
        _, _, c = training_arrays(small_data)
        sched = small_schedule()
        for entry in (train_step0, run_rri, lambda m, d, s: run_baseline(m, d, s, n_rri=1)):
            model = build_model(small_data.dim, (16, 12), 6, c + 3, seed=0)
            before = model.copy()
            with pytest.raises(ValidationError, match="classes"):
                entry(model, small_data, sched)
            for (_, a), (_, b) in zip(before.param_items(), model.param_items()):
                assert np.array_equal(a, b)  # rejected before any training

    def test_unknown_feature_rejected_before_any_step(self):
        with pytest.raises(ValidationError, match="feature"):
            small_schedule(feature="middle")  # no schedule exists to train with

    def test_divergence_raises_with_epoch(self, small_data):
        # overflow in the forward pass turns the loss into NaN/inf
        model = small_model(small_data)
        model.backbone[0].weight[...] = 1e200
        model.eigenlayer[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="epoch"):
            train_step0(model, small_data, small_schedule())


class TestRunRri:
    def test_phase_order_and_records(self, small_data):
        model = small_model(small_data)
        model, _ = train_step0(model, small_data, small_schedule())
        model, trace = run_rri(model, small_data, small_schedule())
        expected_cycle = [PHASE_DECORRELATE, PHASE_RESTRAINT, PHASE_RELAXATION]
        phases = [r.phase for r in trace.records]
        assert phases == expected_cycle * (len(phases) // 3)
        indices = [r.rri_index for r in trace.records]
        assert indices == sorted(indices)
        assert indices[0] == 1

    def test_post_decorrelation_state(self, small_data):
        model = small_model(small_data)
        model, _ = train_step0(model, small_data, small_schedule())
        model, trace = run_rri(model, small_data, small_schedule())
        for r in trace.records:
            if r.phase == PHASE_DECORRELATE:
                assert r.s_of_w >= 1.0 - 1e-6

    def test_decorrelation_preserves_metrics_in_trace(self, small_data):
        model = small_model(small_data)
        sched = small_schedule()
        model, rec0 = train_step0(model, small_data, sched)
        model, trace = run_rri(model, small_data, sched)
        prev = rec0
        for r in trace.records:
            if r.phase == PHASE_DECORRELATE:
                assert r.rank1 == prev.rank1
                assert r.map == prev.map
            prev = r

    def test_restraint_freezes_eigenlayer_bitwise(self, small_data, tmp_path):
        model = small_model(small_data)
        sched = small_schedule(max_rri=2)
        model, _ = train_step0(model, small_data, sched)
        model, _ = run_rri(model, small_data, sched, on_record=saver(tmp_path))
        for t in (1, 2):
            before = load_checkpoint(tmp_path / f"ckpt_rri{t}_decorrelate.svdn")
            after = load_checkpoint(tmp_path / f"ckpt_rri{t}_restraint.svdn")
            assert np.array_equal(before.eigenlayer, after.eigenlayer)
            moved = any(
                not np.array_equal(a, b)
                for (_, a), (_, b) in zip(before.param_items(), after.param_items())
            )
            assert moved  # everything else trained

    def test_checkpoint_files_per_phase(self, small_data, tmp_path):
        model = small_model(small_data)
        sched = small_schedule(max_rri=2)
        model, _ = train_step0(model, small_data, sched, on_record=saver(tmp_path))
        model, trace = run_rri(model, small_data, sched, on_record=saver(tmp_path))
        names = sorted(p.name for p in tmp_path.glob("ckpt_*.svdn"))
        expected = ["ckpt_rri0_step0.svdn"]
        for t in range(1, trace.records[-1].rri_index + 1):
            expected += [f"ckpt_rri{t}_decorrelate.svdn", f"ckpt_rri{t}_restraint.svdn", f"ckpt_rri{t}_relaxation.svdn"]
        assert names == sorted(expected)

    def test_on_record_sees_each_record_once_in_trace_order(self, small_data, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = small_model(small_data)
        sched = small_schedule(max_rri=2)
        seen = []
        model, rec0 = train_step0(model, small_data, sched, on_record=lambda *call: seen.append(call))
        model, trace = run_rri(model, small_data, sched, on_record=lambda *call: seen.append(call))
        assert [id(r) for r, _ in seen] == [id(r) for r in [rec0, *trace.records]]  # the records themselves, once each
        assert all(m is model for _, m in seen)
        train_step0(small_model(small_data), small_data, sched)
        run_rri(model, small_data, sched)  # a run given no writer
        assert list(tmp_path.iterdir()) == []

    def test_orig_method_skips_replacement(self, small_data):
        model = small_model(small_data)
        sched = small_schedule(max_rri=1)
        model, _ = train_step0(model, small_data, sched)
        w_before = model.eigenlayer.copy()
        model, trace = run_rri(model, small_data, sched, method=DecorrMethod.ORIG)
        decorr = [r for r in trace.records if r.phase == PHASE_DECORRELATE]
        assert decorr[0].s_of_w == s_of_w(w_before)

    def test_non_convergence_is_flagged_not_raised(self, small_data):
        model = small_model(small_data)
        sched = small_schedule(max_rri=1, epsilon_s=1e-9)
        model, _ = train_step0(model, small_data, sched)
        model, trace = run_rri(model, small_data, sched)
        assert trace.converged is False
        assert trace.records[-1].rri_index == 1

    def test_wide_eigenlayer_rejected(self, small_data):
        # no entry point can be given a wide eigenlayer: the model refuses it when made
        _, _, c = training_arrays(small_data)
        with pytest.raises(ValidationError, match="tall for decorrelation, got 4x6"):
            build_model(small_data.dim, (16, 4), 6, c, seed=0)

    def test_determinism_identical_traces_and_weights(self, small_data):
        results = []
        for _ in range(2):
            model = small_model(small_data)
            sched = small_schedule()
            model, rec0 = train_step0(model, small_data, sched)
            model, trace = run_rri(model, small_data, sched)
            results.append((model, [rec0, *trace.records]))
        (m1, t1), (m2, t2) = results
        assert t1 == t2
        for (_, a), (_, b) in zip(m1.param_items(), m2.param_items()):
            assert np.array_equal(a, b)


def reference_phase(model, X, y, rng, epochs, lr, frozen, batch_size):
    """The step loop written with the public API: one ``loss_and_grads``
    and one plain SGD update per batch, batches drawn as the trainer
    draws them."""
    for _ in range(epochs):
        order = rng.permutation(y.shape[0])
        for start in range(0, y.shape[0], batch_size):
            idx = order[start : start + batch_size]
            _, grads = model.loss_and_grads(X[idx], y[idx], frozen=frozen)
            for name, p in model.param_items():
                p -= lr * grads[name]


def assert_same_params(a, b):
    for (name, pa), (_, pb) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(pa, pb), name


class TestFusedStep:
    def test_trained_model_keeps_one_parameter_vector(self, small_data):
        sched = small_schedule(max_rri=1)
        model, _ = train_step0(small_model(small_data), small_data, sched)
        params = model.params
        model, _ = run_rri(model, small_data, sched)
        assert model.params is params  # every phase updates the vector in place
        assert_one_parameter_vector(model)

    def test_matches_public_api_loop_bit_for_bit(self, small_data):
        sched = small_schedule(max_rri=1, batch_size=7)
        X, y, _ = training_arrays(small_data)
        assert y.shape[0] % sched.batch_size != 0  # every epoch ends on a short batch
        model = small_model(small_data)
        ref = model.copy()

        train_step0(model, small_data, sched)
        after_step0 = model.copy()
        _, trace = run_rri(model, small_data, sched)
        assert trace.records[-1].rri_index == 1

        rng = np.random.default_rng([sched.seed, 0])
        reference_phase(ref, X, y, rng, sched.step0_epochs, sched.lr_step0, False, sched.batch_size)
        assert_same_params(after_step0, ref)
        rng = np.random.default_rng([sched.seed, 1])
        ref.eigenlayer[...] = decorrelate.apply(ref.eigenlayer, DecorrMethod.US)
        reference_phase(ref, X, y, rng, sched.restraint_epochs, sched.lr_restraint, True, sched.batch_size)
        reference_phase(ref, X, y, rng, sched.relaxation_epochs, sched.lr_relaxation, False, sched.batch_size)
        assert_same_params(model, ref)

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "free"])
    @pytest.mark.parametrize("param", ["backbone0.weight", "classifier.bias"])
    def test_non_finite_gradient_mid_phase_changes_nothing(self, small_data, monkeypatch, param, frozen):
        sched = small_schedule(max_rri=1)
        model, _ = train_step0(small_model(small_data), small_data, sched)
        per_epoch = -(-training_arrays(small_data)[1].shape[0] // sched.batch_size)
        restraint_calls = sched.restraint_epochs * per_epoch
        # the second step of the second epoch of the restraint or the relaxation phase
        bad_call = per_epoch + 2 + (0 if frozen else restraint_calls)
        slot = [name for name, _ in model.param_items()].index(param)
        calls, before = [], {}

        def poisoned(model_, batch, labels, frozen_, gviews):
            calls.append(frozen_)
            if len(calls) == bad_call:
                before.update((name, p.copy()) for name, p in model_.param_items())
            loss = _grads_into(model_, batch, labels, frozen_, gviews)
            if len(calls) == bad_call:
                gviews[slot].flat[0] = np.nan
            return loss

        monkeypatch.setattr("svdn.trainer._grads_into", poisoned)
        with pytest.raises(NumericError, match=param):
            run_rri(model, small_data, sched)
        assert calls == [True] * min(bad_call, restraint_calls) + [False] * max(0, bad_call - restraint_calls)
        for name, p in model.param_items():
            assert np.array_equal(p, before[name]), name

    def test_input_width_mismatch_rejected_before_any_step(self, small_data, monkeypatch):
        _, _, c = training_arrays(small_data)
        calls = []
        monkeypatch.setattr("svdn.trainer._grads_into", lambda *args: calls.append(args))
        for entry in (train_step0, run_rri, lambda m, d, s: run_baseline(m, d, s, n_rri=1)):
            model = build_model(small_data.dim + 1, (16, 12), 6, c, seed=0)
            before = model.copy()
            with pytest.raises(ValidationError, match="features"):
                entry(model, small_data, small_schedule())
            assert_same_params(before, model)
        assert calls == []

    def test_empty_query_split_rejected_before_any_step(self, small_data, monkeypatch):
        keep = small_data.split == "train"
        train_only = RetrievalDataset(
            small_data.features[keep], small_data.ids[keep], small_data.cameras[keep], small_data.split[keep]
        )
        calls = []
        monkeypatch.setattr("svdn.trainer._grads_into", lambda *args: calls.append(args))
        for entry in (train_step0, run_rri, lambda m, d, s: run_baseline(m, d, s, n_rri=1)):
            model = small_model(small_data)
            before = model.copy()
            with pytest.raises(ValidationError, match="query split"):
                entry(model, train_only, small_schedule())
            assert_same_params(before, model)
        assert calls == []


class TestFeatureChoice:
    def test_input_and_output_features_similar_quality(self):
        # on the default benchmark a converged model retrieves about as well
        # from the embedding input as from its output
        from svdn.trainer import evaluate_model

        data = generate_synthetic()
        schedule = RriSchedule()
        _, _, c = training_arrays(data)
        model = build_model(data.dim, (128, 128), 64, c, schedule.seed)
        model, _ = train_step0(model, data, schedule)
        model, trace = run_rri(model, data, schedule)
        _, map_in = evaluate_model(model, data, "input")
        _, map_out = evaluate_model(model, data, "output")
        assert abs(map_in - map_out) <= 0.05


class TestBaselineAndComparison:
    def test_baseline_trains_without_freezing(self, small_data):
        model = small_model(small_data)
        sched = small_schedule()
        model, _ = train_step0(model, small_data, sched)
        w_before = model.eigenlayer.copy()
        model, record = run_baseline(model, small_data, sched, n_rri=2)
        assert record.phase == "baseline"
        assert not np.array_equal(w_before, model.eigenlayer)

    def test_baseline_rejects_negative_n_rri_before_training(self, small_data):
        model = small_model(small_data)
        before = [p.tobytes() for _, p in model.param_items()]
        with pytest.raises(ValidationError, match="n_rri"):
            run_baseline(model, small_data, small_schedule(), n_rri=-1)
        assert [p.tobytes() for _, p in model.param_items()] == before

    def test_baseline_with_zero_iterations_scores_the_given_model(self, small_data):
        model = small_model(small_data)
        before = model.copy()
        model, record = run_baseline(model, small_data, small_schedule(), n_rri=0)
        assert (record.rri_index, record.phase) == (0, "baseline")
        assert record.s_of_w == s_of_w(before.eigenlayer)
        assert_same_params(before, model)

    def test_comparison_one_row_per_method(self, small_data):
        sched = small_schedule(max_rri=1, hidden_dims=(16, 12), eigen_dim=6)
        methods = {DecorrMethod.US, DecorrMethod.ORIG}
        rows = run_decorr_comparison(initial_model(small_data, sched), small_data, sched, methods=methods)
        assert [m for m, _ in rows] == [DecorrMethod.ORIG, DecorrMethod.US]
        base, _ = train_step0(small_model(small_data, seed=sched.seed), small_data, sched)
        for m, r in rows:
            assert 0.0 <= r.map <= 1.0
            assert 0.0 <= r.rank1 <= 1.0
            _, trace = run_rri(base.copy(), small_data, sched, method=m)
            assert (r.rank1, r.map) == (trace.records[-1].rank1, trace.records[-1].map)

    def test_baseline_takes_as_many_sgd_steps_as_rri_training(self, small_data, monkeypatch):
        sched = small_schedule(max_rri=2, epsilon_s=1e-12)
        model, _ = train_step0(small_model(small_data), small_data, sched)
        steps = []

        def counting_step(*args, **kwargs):
            steps[-1] += 1
            return _grads_into(*args, **kwargs)

        monkeypatch.setattr("svdn.trainer._grads_into", counting_step)
        steps.append(0)
        _, trace = run_rri(model.copy(), small_data, sched)
        steps.append(0)
        run_baseline(model.copy(), small_data, sched, n_rri=trace.records[-1].rri_index)
        n_train = training_arrays(small_data)[1].shape[0]
        per_epoch = -(-n_train // sched.batch_size)
        assert trace.records[-1].rri_index == 2
        assert steps == [2 * (sched.restraint_epochs + sched.relaxation_epochs) * per_epoch] * 2

    def test_comparison_rejects_empty_methods(self, small_data):
        with pytest.raises(ValidationError):
            run_decorr_comparison(small_model(small_data), small_data, small_schedule(), methods=set())


class TestTraceCsv:
    def test_columns_and_determinism(self, small_data, tmp_path):
        model = small_model(small_data)
        sched = small_schedule(max_rri=1)
        model, rec0 = train_step0(model, small_data, sched)
        model, trace = run_rri(model, small_data, sched)
        full = RriTrace(records=[rec0, *trace.records], converged=trace.converged)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(full, p1)
        write_trace(full, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "rri_index,phase,s_of_w,train_loss,rank1,map"
        assert lines[1].startswith("0,step0,")
        # floats are written with repr and parse back exactly
        row = lines[1].split(",")
        assert float(row[2]) == rec0.s_of_w


class TestDimSweep:
    def test_one_row_per_width_matching_separate_runs(self, small_data):
        schedule = small_schedule(max_rri=1, hidden_dims=(16, 12))
        [(dim, final, control)] = run_dim_sweep([small_model(small_data)], small_data, schedule)
        model, _ = train_step0(small_model(small_data), small_data, schedule)
        _, trace = run_rri(model.copy(), small_data, schedule)
        _, base = run_baseline(model.copy(), small_data, schedule, trace.records[-1].rri_index)
        assert dim == 6
        assert final == trace.records[-1]
        assert control == base

    def test_widths_given_as_a_generator(self, small_data):
        schedule = small_schedule(max_rri=1, hidden_dims=(16, 12))
        models = (small_model(small_data, eigen=dim) for dim in (4, 6))
        assert [dim for dim, _, _ in run_dim_sweep(models, small_data, schedule)] == [4, 6]

    def test_model_without_hidden_layers(self, small_data):
        schedule = small_schedule(max_rri=1, hidden_dims=())
        n = small_data.dim
        [(dim, final, control)] = run_dim_sweep([initial_model(small_data, replace(schedule, eigen_dim=n))], small_data, schedule)
        assert dim == n
        assert (final.phase, control.phase) == (PHASE_RELAXATION, "baseline")
        with pytest.raises(ValidationError, match=f"tall for decorrelation, got {n}x{n + 1}"):
            initial_model(small_data, replace(schedule, eigen_dim=n + 1))

    @pytest.mark.parametrize("dims", [(4, 8, 64), (4, 0)])
    def test_bad_last_width_rejected_before_any_training(self, small_data, monkeypatch, dims):
        # the sweep's models are made, as the CLI makes them, before any is trained
        calls = []
        monkeypatch.setattr("svdn.trainer.train_step0", lambda *a, **k: calls.append(a))
        schedule = small_schedule(hidden_dims=(16, 12))
        with pytest.raises(ValidationError, match="tall for decorrelation, got 12x64|'eigen_dim' must be an integer >= 1"):
            run_dim_sweep([initial_model(small_data, replace(schedule, eigen_dim=dim)) for dim in dims], small_data, schedule)
        assert calls == []


class TestCheckpointNames:
    @pytest.mark.parametrize("phase", CHECKPOINT_PHASES)
    @pytest.mark.parametrize("t", [0, 1, 2, 9, 10, 15, 123])
    def test_parse_inverts_format(self, t, phase):
        rri_index, parsed, _ = parse_checkpoint_name(checkpoint_name(t, phase))
        assert (rri_index, parsed) == (str(t), phase)

    def test_key_sorts_a_run_in_training_order(self):
        run = [checkpoint_name(0, CHECKPOINT_PHASES[0])]
        run += [checkpoint_name(t, phase) for t in range(1, 12) for phase in CHECKPOINT_PHASES[1:]]
        shuffled = run[::-1] + ["ckpt_final.svdn"]
        assert sorted(shuffled, key=lambda name: parse_checkpoint_name(name)[2]) == run + ["ckpt_final.svdn"]

    @pytest.mark.parametrize(
        "name, rri_index, phase",
        [
            ("x_ckpt_rri2_step0.svdn", "2", "step0"),
            ("ckpt_rri01_restraint.svdn", "01", "restraint"),
            ("ckpt_rri3_warmup.svdn", "3", "warmup"),
            ("ckpt_final.svdn", "", ""),
            ("ckpt_rri1_Step0.svdn", "", ""),
            ("ckpt_rri1_step0.svdn.bak", "", ""),
            ("ckpt_rri_step0.svdn", "", ""),
        ],
    )
    def test_index_as_written_and_unmatched_names(self, name, rri_index, phase):
        assert parse_checkpoint_name(name)[:2] == (rri_index, phase)

    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["ckpt_", "rri", "x_", "0", "1", "01", "10", "2", "_", "step0", "decorrelate", "restraint",
                     "relaxation", "warmup", "Step0", "final", ".svdn", ".bak"]
                ),
                max_size=8,
            ).map("".join),
            max_size=12,
        )
    )
    def test_cells_and_order_match_the_reference(self, names):
        parsed = {name: parse_checkpoint_name(name) for name in names}
        ordered = sorted(names, key=lambda name: parsed[name][2])
        assert [(name, *parsed[name][:2]) for name in ordered] == reference_checkpoint_order(names)
