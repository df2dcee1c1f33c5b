"""Residual blocks, transitions, stem, and classifier head."""

import weakref

import numpy as np
import pytest

import sanet.tensor as T
from sanet.attention import AttentionConfig
from sanet.blocks import (
    BatchNorm,
    Bottleneck,
    Classifier,
    SelfAttentionBlock,
    Stem,
    Transition,
)
from sanet.tensor import DimensionError, Tensor, no_grad


def stage_cfg(**kw):
    base = dict(family="pairwise", relation="subtraction", footprint=3,
                r1=4, r2=2, share=2, position="relative")
    base.update(kw)
    return AttentionConfig(**base)


class TestSelfAttentionBlock:
    def test_fresh_block_is_identity(self):
        """Zero-initialized expansion makes the residual path vanish, bit-exact."""
        block = SelfAttentionBlock(16, stage_cfg(), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 16, 6, 6)).astype(np.float32))
        with no_grad():
            out = block(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zeroing_expansion_restores_identity_after_perturbation(self):
        block = SelfAttentionBlock(16, stage_cfg(), np.random.default_rng(2))
        block.expand.w.data[...] = np.random.default_rng(3).normal(
            size=block.expand.w.shape).astype(np.float32)
        block.expand.w.data[...] = 0.0
        block.expand.b.data[...] = 0.0
        x = Tensor(np.random.default_rng(4).normal(size=(1, 16, 5, 5)).astype(np.float32))
        with no_grad():
            np.testing.assert_array_equal(block(x).data, x.data)

    def test_stage_one_widths(self):
        """At 64 channels the operator output is 16 wide and the expansion
        returns to 64 (the first-stage block geometry)."""
        block = SelfAttentionBlock(64, AttentionConfig(footprint=3),
                                   np.random.default_rng(5))
        assert block.attention.dims.cm == 16
        assert block.expand.w.shape == (64, 16)
        x = Tensor(np.random.default_rng(6).normal(size=(1, 64, 8, 8)).astype(np.float32))
        with no_grad():
            assert block(x).shape == (1, 64, 8, 8)

    def test_eval_forward_is_pure(self):
        block = SelfAttentionBlock(16, stage_cfg(), np.random.default_rng(7))
        block.expand.w.data[...] = 0.01
        block.eval()
        x = Tensor(np.random.default_rng(8).normal(size=(1, 16, 5, 5)).astype(np.float32))
        with no_grad():
            first = block(x).data.copy()
            second = block(x).data
        np.testing.assert_array_equal(first, second)


class TestBottleneck:
    def test_fresh_block_is_identity_with_identity_shortcut(self):
        block = Bottleneck(16, 4, rng=np.random.default_rng(9))
        x = Tensor(np.random.default_rng(10).normal(size=(2, 16, 6, 6)).astype(np.float32))
        with no_grad():
            np.testing.assert_array_equal(block(x).data, x.data)

    def test_projection_block_shapes(self):
        block = Bottleneck(16, 8, stride=2, rng=np.random.default_rng(11))
        x = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))
        with no_grad():
            assert block(x).shape == (1, 32, 4, 4)


class TestTransition:
    def test_halves_spatial_extent_and_expands_channels(self):
        tr = Transition(64, 256, np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(1, 64, 8, 8)).astype(np.float32))
        with no_grad():
            assert tr(x).shape == (1, 256, 4, 4)

    def test_odd_extent_rejected(self):
        tr = Transition(4, 8, np.random.default_rng(14))
        with pytest.raises(DimensionError):
            with no_grad():
                tr(Tensor(np.zeros((1, 4, 5, 6), dtype=np.float32)))

    def test_odd_extent_rejected_before_the_norm_moves_its_statistics(self):
        tr = Transition(4, 8, np.random.default_rng(14))
        before = tr.bn.running_mean.copy(), tr.bn.running_var.copy()
        x = Tensor(np.random.default_rng(17).normal(size=(2, 4, 5, 6)).astype(np.float32))
        with pytest.raises(DimensionError):
            tr(x)
        assert tr.bn.running_mean.tobytes() == before[0].tobytes()
        assert tr.bn.running_var.tobytes() == before[1].tobytes()

    def test_normalized_map_is_freed_once_pooled(self, monkeypatch):
        """Under no_grad nothing keeps the norm's output once the pool has read it."""
        tr = Transition(4, 8, np.random.default_rng(18))
        pooled, alive = [], []
        max_pool, linear = T.max_pool, tr.linear.forward

        def spy_pool(h, *args):
            pooled.append(weakref.ref(h.data))
            return max_pool(h, *args)

        def spy_linear(h):
            alive.append(pooled[0]() is not None)
            return linear(h)

        monkeypatch.setattr(T, "max_pool", spy_pool)
        monkeypatch.setattr(tr.linear, "forward", spy_linear)
        with no_grad():
            out = tr(Tensor(np.ones((1, 4, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 8, 4, 4)
        assert alive == [False]

    def test_parameter_count(self):
        """The expanding linear holds 64*256 weights + 256 biases = 16,640;
        the entry norm adds its 2*64 affine scalars."""
        tr = Transition(64, 256, np.random.default_rng(15))
        assert tr.linear.param_count() == 64 * 256 + 256 == 16640
        assert tr.param_count() == 16640 + 128


class TestStemAndClassifier:
    def test_stem_constant_image_gives_constant_features(self):
        stem = Stem(16, np.random.default_rng(16))
        x = Tensor(np.full((1, 3, 8, 8), 0.5, dtype=np.float32))
        with no_grad():
            out = stem(x).data
        for c in range(16):
            np.testing.assert_allclose(out[0, c], out[0, c, 0, 0], atol=1e-7)

    def test_classifier_zero_features_give_uniform_softmax(self):
        clf = Classifier(8, 10, np.random.default_rng(17))
        with no_grad():
            logits = clf(Tensor(np.zeros((2, 8, 4, 4), dtype=np.float32)))
            probs = T.softmax(logits, axis=1).data
        np.testing.assert_allclose(probs, 0.1, atol=1e-7)

    def test_classifier_shape(self):
        clf = Classifier(2048, 1000, np.random.default_rng(18))
        with no_grad():
            out = clf(Tensor(np.zeros((3, 2048, 7, 7), dtype=np.float32)))
        assert out.shape == (3, 1000)


class TestBatchNormModule:
    def test_train_updates_buffers_eval_does_not(self):
        bn = BatchNorm(4)
        x = Tensor(np.random.default_rng(19).normal(2.0, 1.0, (8, 4, 3, 3)).astype(np.float32))
        before = bn.running_mean.copy()
        with no_grad():
            bn(x)
        assert not np.allclose(bn.running_mean, before)
        frozen = bn.running_mean.copy()
        bn.eval()
        with no_grad():
            bn(x)
        np.testing.assert_array_equal(bn.running_mean, frozen)
