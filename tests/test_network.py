import copy
import dataclasses
import pickle
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.errors import ValidationError
from svdn.network import (
    CHECKPOINT_MAGIC,
    DEFAULT_FEATURE,
    FEATURE_BLOCK,
    FEATURE_KINDS,
    AffineLayer,
    EigenModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

from oracles import (
    assert_one_parameter_vector,
    fd_gradients,
    loop_forward,
    reference_forward,
    reference_loss_and_grads,
)


def tiny_model(seed=0, input_dim=4, hidden=(5, 6), eigen=3, classes=3):
    return build_model(input_dim, hidden, eigen, classes, seed)


def tiny_batch(model, m=7, seed=1):
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(m, model.input_dim))
    labels = rng.integers(0, model.num_classes, size=m)
    return batch, labels


class TestForward:
    def test_zero_weights_logits_equal_bias(self):
        model = tiny_model()
        for _, p in model.param_items():
            p[...] = 0.0
        model.classifier.bias[...] = np.array([0.5, -1.0, 2.0])
        _, _, logits = model.forward(np.random.default_rng(0).normal(size=(4, model.input_dim)))
        assert np.allclose(logits, model.classifier.bias, atol=0)

    def test_identity_eigenlayer_passes_h_through(self):
        model = build_model(3, (3,), 3, 2, seed=0)
        model.backbone[0].weight[...] = np.eye(3)
        model.backbone[0].bias[...] = 0.0
        model.eigenlayer[...] = np.eye(3)
        batch = np.abs(np.random.default_rng(1).normal(size=(5, 3)))  # positive: ReLU inactive
        h, f, _ = model.forward(batch)
        assert np.array_equal(h, batch)
        assert np.array_equal(f, h)

    def test_matches_straight_line_oracle(self):
        model = tiny_model(seed=3)
        batch, _ = tiny_batch(model, m=6, seed=4)
        h, f, logits = model.forward(batch)
        oh, of, ologits = loop_forward(
            [(l.weight, l.bias) for l in model.backbone],
            model.eigenlayer,
            model.classifier.weight,
            model.classifier.bias,
            batch,
        )
        scale = 1 + np.abs(ologits).max()
        assert np.abs(h - oh).max() <= 1e-12 * scale
        assert np.abs(f - of).max() <= 1e-12 * scale
        assert np.abs(logits - ologits).max() <= 1e-12 * scale

    def test_shape_validation(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            model.forward(np.ones((2, model.input_dim + 1)))
        with pytest.raises(ValidationError):
            model.forward(np.ones(model.input_dim))

    def test_extract_features(self):
        model = tiny_model(seed=5)
        batch, _ = tiny_batch(model, seed=6)
        h, f, _ = model.forward(batch)
        assert np.array_equal(model.extract_features(batch, "input"), h)
        assert np.array_equal(model.extract_features(batch, "output"), f)
        with pytest.raises(ValidationError):
            model.extract_features(batch, "middle")

    def test_extract_features_defaults_to_the_run_feature(self):
        model = tiny_model(seed=5)
        batch, _ = tiny_batch(model, seed=6)
        assert np.array_equal(model.extract_features(batch), model.extract_features(batch, DEFAULT_FEATURE))

    @pytest.mark.parametrize("which", ["input", "output", "loss", "forward"])
    def test_extract_features_peak_memory(self, which):
        # every walk of the backbone computes each activation in place on
        # the layer's product and keeps only the latest; a walk that kept
        # every pre-activation and activation would take about 4.7 arrays
        # of rows x width here
        rows, width = 10000, 128
        model = build_model(16, (width, width), 64, 10, seed=0)
        batch = np.random.default_rng(0).normal(size=(rows, 16))
        labels = np.arange(rows) % model.num_classes
        calls = {"loss": lambda: model.loss(batch, labels), "forward": lambda: model.forward(batch)}
        tracemalloc.start()
        try:
            calls.get(which, lambda: model.extract_features(batch, which))()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * rows * width * 8

    @pytest.mark.parametrize("which", FEATURE_KINDS)
    def test_blocked_extraction_peak_memory(self, which):
        # the backbone walks FEATURE_BLOCK rows at a time into one output, so
        # the peak is that output plus one block's two activations, not two
        # activations of the whole input; for input features the last layer
        # writes into the output, so the walk holds one block activation
        rows, width = 6000, 128
        model = build_model(16, (width, width), width, 10, seed=0)
        batch = np.random.default_rng(0).normal(size=(rows, 16))
        tracemalloc.start()
        try:
            feats = model.extract_features(batch, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.shape == (rows, width)
        if which == "input":
            assert peak <= feats.nbytes + 1.5 * FEATURE_BLOCK * width * 8
        else:
            assert peak <= feats.nbytes + 2 * FEATURE_BLOCK * width * 8 + 2**20

    @pytest.mark.parametrize("which", FEATURE_KINDS)
    @pytest.mark.parametrize("n", [1, 100, 1025, 3000])
    def test_features_are_an_array_of_their_own(self, n, which):
        # with no hidden layer the eigenlayer input is the batch itself, and
        # with one or two the walk writes into the output; either way the
        # features share memory neither with the caller's array nor with
        # another call's, and carry its bits
        batch = np.random.default_rng(n).normal(size=(n, 8))
        for hidden in [(), (8,), (8, 8)]:
            model = build_model(8, hidden, 8, 3, seed=0)
            feats, again = model.extract_features(batch, which), model.extract_features(batch, which)
            assert not np.shares_memory(feats, batch)
            assert not np.shares_memory(feats, again)
            assert np.array_equal(feats, again)

    def test_eigenlayer_linearity(self):
        model = tiny_model(seed=7)
        rng = np.random.default_rng(8)
        h1 = rng.normal(size=(4, model.eigenlayer.shape[0]))
        h2 = rng.normal(size=(4, model.eigenlayer.shape[0]))
        a, b = 0.37, -1.2
        lhs = (a * h1 + b * h2) @ model.eigenlayer
        rhs = a * (h1 @ model.eigenlayer) + b * (h2 @ model.eigenlayer)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


class TestTwoArrayReference:
    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 8), max_size=3),
        m=st.integers(1, 40),
        frozen=st.booleans(),
        zeros=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_for_bit(self, hidden, m, frozen, zeros, seed):
        """The in-place forward pass and the activation-masked backward
        pass give the bits of the two-array reference."""
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 7, size=3)
        eigen = min(int(dims[1]), [int(dims[0]), *hidden][-1])  # the eigenlayer is tall
        model = build_model(int(dims[0]), hidden, eigen, int(dims[2]) + 1, seed)
        batch = rng.normal(size=(m, model.input_dim))
        labels = rng.integers(0, model.num_classes, size=m)
        if zeros:  # pre-activations of exactly +-0 at the ReLU boundary
            batch[::2] = 0.0
            for layer in model.backbone:
                layer.bias[::2] = -0.0
        loss, grads = model.loss_and_grads(batch, labels, frozen)
        ref_loss, ref_grads = reference_loss_and_grads(model, batch, labels, frozen)
        assert np.array_equal(loss, ref_loss)
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), name
        _, _, h, f, logits = reference_forward(model, batch)
        for got, want in zip(model.forward(batch), (h, f, logits)):
            assert np.array_equal(got, want)
        assert np.array_equal(model.extract_features(batch, "input"), h)
        assert np.array_equal(model.extract_features(batch, "output"), f)


B = FEATURE_BLOCK


class TestBlockedFeatures:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1]), st.integers(1, 3 * B)),
        depth=st.integers(0, 2),
        which=st.sampled_from(FEATURE_KINDS),
        seed=st.integers(0, 2**16),
    )
    def test_each_block_is_its_own_walk(self, n, depth, which, seed):
        """Features come from consecutive blocks of the input, none of one
        row unless the input has one, and each block's rows carry the bits
        of the backbone walk over that block alone."""
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 9, size=depth + 2)]
        model = build_model(dims[0], dims[1:-1], min(dims[-2:]), 3, seed)  # the eigenlayer is tall
        batch = rng.normal(size=(n, model.input_dim))
        walk, blocks = EigenModel._eigen_input, []

        def spy(self, block, out=None):
            blocks.append(block.shape[0])
            return walk(self, block, out)

        with mock.patch.object(EigenModel, "_eigen_input", spy):
            feats = model.extract_features(batch, which)
        assert sum(blocks) == n
        assert all(rows <= B + 1 for rows in blocks)
        assert n == 1 or 1 not in blocks
        stops = np.cumsum(blocks)
        for s, e in zip([0, *stops[:-1]], stops):
            h = walk(model, batch[s:e])
            assert np.array_equal(feats[s:e], h if which == "input" else h @ model.eigenlayer)
        if len(blocks) == 1:
            h, f, _ = model.forward(batch)
            assert np.array_equal(feats, h if which == "input" else f)


def _label_log_probs(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_probs[np.arange(logits.shape[0]), labels]


class TestBlockedLoss:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1]), st.integers(1, 3 * B)),
        depth=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_mean_of_each_blocks_log_probs(self, n, depth, seed):
        """The loss is the negated mean of the label log-probabilities that
        forward gives on each FEATURE_BLOCK-row block alone, the last block
        taking a lone last row; up to FEATURE_BLOCK + 1 rows, on the whole batch."""
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 9, size=depth + 2)]
        model = build_model(dims[0], dims[1:-1], min(dims[-2:]), 4, seed)  # the eigenlayer is tall
        batch = rng.normal(size=(n, model.input_dim))
        labels = rng.integers(0, model.num_classes, size=n)
        bounds = [*range(0, n, B), n]
        if n > 1 and bounds[-2] == n - 1:
            del bounds[-2]
        if n <= B + 1:
            assert bounds == [0, n]
        ll = np.concatenate(
            [_label_log_probs(model.forward(batch[s:e])[2], labels[s:e]) for s, e in zip(bounds, bounds[1:])]
        )
        assert model.loss(batch, labels) == float(-ll.mean())

    def test_peak_memory(self):
        # the loss walks FEATURE_BLOCK rows at a time into one vector of
        # log-probabilities, so the peak is that vector plus one block's two
        # activations, not two activations of the whole input
        rows, width = 6000, 128
        model = build_model(16, (width, width), width, 10, seed=0)
        batch = np.random.default_rng(0).normal(size=(rows, 16))
        labels = np.arange(rows) % model.num_classes
        tracemalloc.start()
        try:
            model.loss(batch, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows + 2 * FEATURE_BLOCK * width * 8 + 2**20


class TestLossAndGrads:
    def test_uniform_logits_loss_is_ln_c(self):
        model = tiny_model(classes=5)
        for _, p in model.param_items():
            p[...] = 0.0
        batch, labels = tiny_batch(model, m=9, seed=2)
        labels = np.random.default_rng(3).integers(0, 5, size=9)
        assert abs(model.loss(batch, labels) - np.log(5)) <= 1e-12

    def test_label_validation(self):
        model = tiny_model()
        batch, labels = tiny_batch(model)
        with pytest.raises(ValidationError):
            model.loss(batch, labels * 0 + model.num_classes)
        with pytest.raises(ValidationError):
            model.loss(batch, labels * 0 - 1)
        with pytest.raises(ValidationError):
            model.loss(batch, labels.astype(float))

    @pytest.mark.parametrize("shape", [(6,), (8,), (7, 1)], ids=["short", "long", "column"])
    def test_labels_of_the_wrong_shape_named(self, shape):
        model = tiny_model()
        batch, _ = tiny_batch(model, m=7)
        with pytest.raises(ValidationError, match=re.escape(f"labels must be a length-7 sequence, got shape {shape}")):
            model.loss(batch, np.zeros(shape, dtype=np.int64))

    def test_gradients_match_finite_differences(self):
        model = tiny_model(seed=11)
        assert model.num_params() <= 1000
        batch, labels = tiny_batch(model, m=8, seed=12)
        _, grads = model.loss_and_grads(batch, labels)
        fd = fd_gradients(model, batch, labels, step=1e-5)
        for name, g in grads.items():
            assert np.abs(g - fd[name]).max() <= 1e-6 * (1 + np.abs(fd[name]).max()), name

    def test_frozen_mask_zeroes_only_eigen_gradient(self):
        model = tiny_model(seed=13)
        batch, labels = tiny_batch(model, seed=14)
        loss_u, grads_u = model.loss_and_grads(batch, labels, frozen=False)
        loss_f, grads_f = model.loss_and_grads(batch, labels, frozen=True)
        assert loss_u == loss_f
        assert np.all(grads_f["eigenlayer"] == 0.0)
        assert np.any(grads_u["eigenlayer"] != 0.0)
        for name in grads_u:
            if name != "eigenlayer":
                assert np.array_equal(grads_u[name], grads_f[name])

    def test_frozen_gradients_match_finite_differences(self):
        model = tiny_model(seed=15)
        batch, labels = tiny_batch(model, seed=16)
        _, grads = model.loss_and_grads(batch, labels, frozen=True)
        fd = fd_gradients(model, batch, labels, step=1e-5)
        for name, g in grads.items():
            if name == "eigenlayer":
                assert np.all(g == 0.0)
            else:
                assert np.abs(g - fd[name]).max() <= 1e-6 * (1 + np.abs(fd[name]).max()), name


class TestTraining:
    def test_training_reduces_loss_on_separable_toy(self):
        rng = np.random.default_rng(22)
        model = build_model(2, (8,), 4, 2, seed=22)
        batch = np.vstack([rng.normal(size=(20, 2)) + (3, 3), rng.normal(size=(20, 2)) - (3, 3)])
        labels = np.array([0] * 20 + [1] * 20)
        start = model.loss(batch, labels)
        for _ in range(50):
            _, grads = model.loss_and_grads(batch, labels)
            for name, p in model.param_items():
                p -= 0.1 * grads[name]
        assert model.loss(batch, labels) < start


class TestParameterVector:
    def test_build_model_copies_into_one_vector(self):
        assert_one_parameter_vector(tiny_model(seed=5))

    def test_making_a_model_copies_its_arrays_bit_for_bit(self):
        weight, bias, eigen = np.arange(6.0).reshape(2, 3) / 7.0, np.array([1.0, 2.0, 3.0]), np.full((3, 2), 0.1)
        model = EigenModel([AffineLayer(weight, bias)], eigen, AffineLayer(np.ones((2, 2)), np.zeros(2)))
        assert isinstance(model.backbone, tuple)
        assert np.array_equal(model.backbone[0].weight, weight) and not np.shares_memory(model.params, weight)
        assert model.params.tobytes() == b"".join(p.tobytes() for p in (weight, bias, eigen, np.ones(4), np.zeros(2)))
        assert_one_parameter_vector(model)

    def test_load_checkpoint_gives_one_vector(self, tmp_path):
        save_checkpoint(tiny_model(seed=6), tmp_path / "m.svdn")
        assert_one_parameter_vector(load_checkpoint(tmp_path / "m.svdn"))

    @pytest.mark.parametrize(
        "duplicate",
        [EigenModel.copy, lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy],
        ids=["copy", "pickle", "deepcopy", "shallow_copy"],
    )
    def test_duplicates_own_a_vector_of_their_own(self, duplicate):
        model = tiny_model(seed=7)
        before = model.params.copy()
        dup = duplicate(model)
        assert np.array_equal(dup.params, before) and not np.shares_memory(dup.params, model.params)
        assert [n for n, _ in dup.param_items()] == [n for n, _ in model.param_items()]
        assert_one_parameter_vector(dup)
        assert np.array_equal(model.params, before)  # writing the duplicate left the original alone

    def test_fields_cannot_be_rebound(self):
        model = tiny_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.eigenlayer = np.zeros_like(model.eigenlayer)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.params = np.zeros_like(model.params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.backbone[0].weight = np.zeros_like(model.backbone[0].weight)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.classifier.bias = np.zeros_like(model.classifier.bias)
        with pytest.raises(TypeError):
            model.backbone[0] = model.backbone[1]
        assert_one_parameter_vector(model)


class TestShapeChecks:
    @pytest.mark.parametrize(
        "backbone, eigen, cls_weight, cls_bias, message",
        [
            ([((4, 5), (5,))], (6, 3), (3, 2), (2,), "layer shapes do not chain (5 -> 6)"),
            ([((4, 5), (5,)), ((4, 6), (6,))], (6, 3), (3, 2), (2,), "layer shapes do not chain (5 -> 4)"),
            ([((4, 5), (5,))], (5, 3), (4, 2), (2,), "layer shapes do not chain (3 -> 4)"),
            ([((4, 5), (4,))], (5, 3), (3, 2), (2,), "backbone0.bias must have shape (5,), got (4,)"),
            ([((4, 5), (5,))], (5, 3), (3, 2), (1, 2), "classifier.bias must have shape (2,), got (1, 2)"),
            ([((20,), (5,))], (5, 3), (3, 2), (2,), "backbone0.weight must be 2-D, got shape (20,)"),
            ([], (5,), (3, 2), (2,), "eigenlayer must be 2-D, got shape (5,)"),
        ],
        ids=["backbone_to_eigenlayer", "backbone_to_backbone", "eigenlayer_to_classifier", "backbone_bias",
             "classifier_bias", "backbone_weight_1d", "eigenlayer_1d"],
    )
    def test_bad_shape_rejected_when_made(self, backbone, eigen, cls_weight, cls_bias, message):
        layers = [AffineLayer(np.ones(w), np.ones(b)) for w, b in backbone]
        with pytest.raises(ValidationError, match=re.escape(message)):
            EigenModel(layers, np.ones(eigen), AffineLayer(np.ones(cls_weight), np.ones(cls_bias)))

    def test_load_checkpoint_names_the_file(self, tmp_path):
        # a 2x3 backbone layer, then a 4x2 eigenlayer: the widths 3 and 4 do not chain
        blob = CHECKPOINT_MAGIC + struct.pack("<HH", 1, 3)
        for role, rows, cols, bias in ((0, 2, 3, True), (1, 4, 2, False), (2, 2, 2, True)):
            blob += struct.pack("<BII", role, rows, cols) + np.zeros(rows * cols).tobytes()
            blob += struct.pack("<B", bias) + (np.zeros(cols).tobytes() if bias else b"")
        path = tmp_path / "chain.svdn"
        path.write_bytes(blob)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: layer shapes do not chain (3 -> 4)")):
            load_checkpoint(path)


class TestIdentity:
    def test_models_compare_and_hash_by_identity(self):
        model = tiny_model()
        dup = model.copy()
        assert model == model and (model == dup) is False and model != dup
        assert hash(model) == hash(model) and len({model, dup}) == 2
        assert model.backbone[0] == model.backbone[0] and model.backbone[0] != dup.backbone[0]
        assert len({model.classifier, dup.classifier}) == 2


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=23)
        p1 = tmp_path / "a.svdn"
        p2 = tmp_path / "b.svdn"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for (n1, a), (n2, b) in zip(model.param_items(), loaded.param_items()):
            assert n1 == n2
            assert np.array_equal(a, b)

    def test_wire_format_layout(self, tmp_path):
        model = EigenModel(
            backbone=[AffineLayer(np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0, 3.0]))],
            eigenlayer=np.arange(6.0).reshape(3, 2) / 7.0,
            classifier=AffineLayer(np.ones((2, 2)), np.zeros(2)),
        )
        path = tmp_path / "c.svdn"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC == b"SVDN"
        version, count = struct.unpack_from("<HH", raw, 4)
        assert version == 1 and count == 3
        role, rows, cols = struct.unpack_from("<BII", raw, 8)
        assert (role, rows, cols) == (0, 2, 3)
        weight = np.frombuffer(raw, dtype="<f8", count=6, offset=17)
        assert np.array_equal(weight, np.arange(6.0))  # row-major little-endian
        (flag,) = struct.unpack_from("<B", raw, 17 + 48)
        assert flag == 1
        bias = np.frombuffer(raw, dtype="<f8", count=3, offset=17 + 49)
        assert np.array_equal(bias, [1.0, 2.0, 3.0])
        # next layer is the bias-free eigenlayer
        role2, r2, c2 = struct.unpack_from("<BII", raw, 17 + 49 + 24)
        assert (role2, r2, c2) == (1, 3, 2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.svdn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = tiny_model(seed=24)
        path = tmp_path / "t.svdn"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = tiny_model(seed=25)
        path = tmp_path / "t.svdn"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValidationError, match="trailing"):
            load_checkpoint(path)


def _layer(role, rows, cols, flag):
    """One checkpoint layer: a rows x cols weight of 0.5, then its bias of 0.25 when ``flag`` is set."""
    blob = struct.pack("<BII", role, rows, cols) + np.full(rows * cols, 0.5).tobytes() + struct.pack("<B", flag)
    return blob + (np.full(cols, 0.25).tobytes() if flag else b"")


def _checkpoint(layers, version=1):
    return CHECKPOINT_MAGIC + struct.pack("<HH", version, len(layers)) + b"".join(layers)


# a 3 -> 4 backbone layer, a 4 -> 2 eigenlayer and a 2 -> 3 classifier
BACKBONE, EIGEN, CLASSIFIER = _layer(0, 3, 4, 1), _layer(1, 4, 2, 0), _layer(2, 2, 3, 1)


class TestCheckpointLayout:
    def test_model_without_backbone_loads(self, tmp_path):
        path = tmp_path / "flat.svdn"
        path.write_bytes(_checkpoint([_layer(1, 3, 2, 0), CLASSIFIER]))
        model = load_checkpoint(path)
        assert model.backbone == () and model.input_dim == 3 and model.num_classes == 3
        assert np.array_equal(model.params, [0.5] * 12 + [0.25] * 3)

    @pytest.mark.parametrize(
        "layers, message",
        [
            ([BACKBONE, _layer(1, 4, 2, 1), CLASSIFIER], "layer 1 (role, bias flag) is (1, 1), expected (1, 0)"),
            ([_layer(0, 3, 4, 0), EIGEN, CLASSIFIER], "layer 0 (role, bias flag) is (0, 0), expected (0, 1)"),
            ([BACKBONE, EIGEN, _layer(2, 2, 3, 0)], "layer 2 (role, bias flag) is (2, 0), expected (2, 1)"),
            ([BACKBONE, EIGEN, _layer(2, 2, 3, 2)], "layer 2 (role, bias flag) is (2, 2), expected (2, 1)"),
            ([BACKBONE, _layer(2, 4, 2, 0), _layer(1, 2, 3, 1)], "layer 1 (role, bias flag) is (2, 0), expected (1, 0)"),
            ([_layer(7, 3, 4, 1), EIGEN, CLASSIFIER], "layer 0 (role, bias flag) is (7, 1), expected (0, 1)"),
            ([_layer(1, 3, 2, 0)], "layer 1 (role, bias flag) is missing, expected (2, 1)"),
            ([], "layer 0 (role, bias flag) is missing, expected (1, 0)"),
        ],
        ids=["eigenlayer_bias", "backbone_no_bias", "classifier_no_bias", "bias_flag_2", "swapped_roles",
             "role_7", "one_layer", "zero_layers"],
    )
    def test_bad_layout_names_the_first_bad_layer(self, tmp_path, layers, message):
        path = tmp_path / "bad.svdn"
        path.write_bytes(_checkpoint(layers))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_wide_eigenlayer_names_the_file(self, tmp_path):
        path = tmp_path / "wide.svdn"
        path.write_bytes(_checkpoint([BACKBONE, _layer(1, 4, 5, 0), _layer(2, 5, 3, 1)]))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: eigenlayer must be tall for decorrelation, got 4x5")):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v2.svdn"
        path.write_bytes(_checkpoint([BACKBONE, EIGEN, CLASSIFIER], version=2))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: unsupported checkpoint version 2")):
            load_checkpoint(path)

    def test_weight_past_numpy_index_range_is_corrupt(self, tmp_path):
        # 2**32 - 1 squared elements overflow numpy's count, which raised OverflowError
        path = tmp_path / "huge.svdn"
        path.write_bytes(_checkpoint([struct.pack("<BII", 1, 2**32 - 1, 2**32 - 1), CLASSIFIER]))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: truncated or corrupt checkpoint")):
            load_checkpoint(path)


class TestBuildModel:
    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            build_model(0, (4,), 2, 3, seed=0)
        with pytest.raises(ValidationError):
            build_model(4, (0,), 2, 3, seed=0)
        with pytest.raises(ValidationError):
            build_model(4, (4,), 2, 1, seed=0)

    @pytest.mark.parametrize(
        "args, bad", [((8, (16,), 6.7, 3), "6.7"), ((8.0, (16,), 6, 3), "8.0"), ((8, (16,), 6, 3.0), "3.0")]
    )
    def test_non_integer_dimension_rejected(self, args, bad):
        label, low = {"6.7": ("eigen_dim", 1), "8.0": ("input_dim", 1), "3.0": ("num_classes", 2)}[bad]
        with pytest.raises(ValidationError, match=re.escape(f"{label} must be an integer >= {low}, got {bad}")):
            build_model(*args, seed=0)

    @pytest.mark.parametrize("input_dim, hidden", [(8, (16, 4)), (4, ())])
    def test_wide_eigenlayer_rejected_naming_its_shape(self, input_dim, hidden):
        with pytest.raises(ValidationError, match=re.escape("eigenlayer must be tall for decorrelation, got 4x6")):
            build_model(input_dim, hidden, 6, 3, seed=0)

    def test_non_integer_width_not_truncated(self):
        # the widths are checked in argument order, so the bad hidden width is named before the bad eigen_dim
        with pytest.raises(ValidationError, match=re.escape("hidden_dims entry must be an integer >= 1, got 2.9")):
            build_model(8, (16, 2.9), 6.7, 3, 0)

    def test_numpy_integer_dimensions_accepted(self):
        a = build_model(np.int64(8), (np.int64(16), np.int32(4)), np.int64(3), np.int64(5), seed=2)
        b = build_model(8, (16, 4), 3, 5, seed=2)
        for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
            assert na == nb and pa.shape == pb.shape and pa.tobytes() == pb.tobytes()

    def test_seed_determinism(self):
        a = build_model(4, (5, 6), 3, 4, seed=9)
        b = build_model(4, (5, 6), 3, 4, seed=9)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)

    def test_fan_in_bounds(self):
        model = build_model(16, (8,), 4, 3, seed=1)
        assert np.abs(model.backbone[0].weight).max() <= 1.0 / 4.0
        assert np.abs(model.eigenlayer).max() <= 1.0 / np.sqrt(8.0)

    def test_no_bias_on_eigenlayer(self):
        model = tiny_model()
        names = [n for n, _ in model.param_items()]
        assert "eigenlayer" in names
        assert not any(n.startswith("eigenlayer.") for n in names)
