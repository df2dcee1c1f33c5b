"""Primitive operations: exact semantics, gradients, and serialization."""

import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

import sanet.tensor as T
from sanet.attention import AttentionConfig, VectorAttention, pairwise_attention
from sanet.gradcheck import check_gradients
from sanet.models import ModelSpec, StageSpec, build_model, named_spec, save_checkpoint
from sanet.reference import naive_linear
from sanet.tensor import ConfigError, DimensionError, Tensor, UsageError
from sanet.training import cross_entropy_smoothed


class TestLinear:
    def test_identity_weight_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        out = T.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_sum(self):
        """All-ones 1x2x1x1 under [[1,1],[2,2]] gives channels [2, 4]."""
        x = Tensor(np.ones((1, 2, 1, 1)))
        w = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
        out = T.linear(x, w)
        np.testing.assert_array_equal(out.data.ravel(), [2.0, 4.0])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 3, 3))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        fast = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.max(np.abs(fast - naive_linear(x, w, b))) <= 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("add_shape,taped", [
        ((3, 5, 4, 6), True),
        ((1, 5, 4, 6), True),
        ((1, 5, 4, 6), False),
    ], ids=["same-shape", "broadcast", "no-grad"])
    def test_addend_matches_linear_then_add_bitwise(self, add_shape, taped):
        """``linear(add=a)`` equals ``add(linear(...), a)``: output, dtype and
        every gradient, bit for bit."""
        rng = np.random.default_rng(3)
        arrays = (rng.normal(size=(3, 4, 4, 6)).astype(np.float32),
                  rng.normal(size=(5, 4)).astype(np.float32),
                  rng.normal(size=5).astype(np.float32),
                  rng.normal(size=add_shape).astype(np.float32))
        proj = Tensor(rng.normal(size=(3, 5, 4, 6)).astype(np.float32))
        results = []
        for fused in (True, False):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            x, w, b, a = leaves
            with nullcontext() if taped else T.no_grad():
                out = T.linear(x, w, b, add=a) if fused else T.add(T.linear(x, w, b), a)
            if taped:
                T.sum(T.mul(out, proj)).backward()
            results.append((out, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (plain, plain_grads) = results
        assert fused.dtype == plain.dtype == np.float32
        assert fused.requires_grad == plain.requires_grad == taped
        np.testing.assert_array_equal(fused.data, plain.data)
        for got, want in zip(fused_grads, plain_grads):
            assert (got is None) == (want is None) == (not taped)
            if taped:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("add_shape", [(5, 4, 6), (4, 6), (5, 1, 6)],
                             ids=["no-batch", "no-channels", "no-batch-one-row"])
    def test_lower_rank_addend_gradient_sums_the_missing_axes(self, add_shape):
        """An addend of lower rank than the [3, 5, 4, 6] output gets the output
        gradient summed over the axes it lacks or broadcasts along."""
        rng = np.random.default_rng(5)
        x, w = Tensor(rng.normal(size=(3, 4, 4, 6))), Tensor(rng.normal(size=(5, 4)))
        a = Tensor(rng.normal(size=add_shape), requires_grad=True)
        proj = rng.normal(size=(3, 5, 4, 6))
        out = T.linear(x, w, add=a)
        np.testing.assert_array_equal(out.data, T.linear(x, w).data + a.data)
        T.sum(T.mul(out, Tensor(proj))).backward()
        lead = (1,) * (4 - len(add_shape)) + add_shape
        axes = tuple(i for i, s in enumerate(lead) if s == 1)
        np.testing.assert_allclose(a.grad, proj.sum(axis=axes).reshape(add_shape), rtol=1e-12)

    @pytest.mark.parametrize("add_shape", [(1, 4, 4, 6), (5, 6), (1, 1, 5, 4, 6), (2, 5, 4, 6)],
                             ids=["channels", "trailing", "extra-axis", "widens-batch"])
    def test_addend_that_does_not_broadcast_to_output_is_rejected(self, add_shape):
        """The output is [1, 5, 4, 6]; an addend must broadcast to it without
        growing it, so a batch of two is rejected as well."""
        x, w = Tensor(np.zeros((1, 4, 4, 6))), Tensor(np.zeros((5, 4)))
        with pytest.raises(DimensionError, match="addend"):
            T.linear(x, w, add=Tensor(np.zeros(add_shape)))


class TestBatchNorm:
    """``batch_norm`` normalizes and rectifies: ``max(gamma * xhat + beta, 0)``."""

    def _buffers(self, c):
        return np.zeros(c), np.ones(c)

    def test_constant_input_returns_shift_in_train_mode(self):
        """Zero variance collapses to the rectified learned shift (epsilon-guarded)."""
        rm, rv = self._buffers(3)
        beta = np.array([1.0, -2.0, 0.5])
        out = T.batch_norm(Tensor(np.full((2, 3, 4, 4), 7.0)), Tensor(np.ones(3)),
                           Tensor(beta), rm, rv, training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(np.maximum(beta, 0).reshape(1, 3, 1, 1),
                                                             (2, 3, 4, 4)), atol=1e-9)

    def test_standardized_input_passes_through(self):
        """Input already standardized (epsilon included) is a fixed point, rectified."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        x = x * np.sqrt(1.0 - 1e-5)  # unit variance once the epsilon is added back
        rm, rv = self._buffers(3)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           rm, rv, training=True)
        np.testing.assert_allclose(out.data, np.maximum(x, 0), atol=1e-6)

    def test_train_output_statistics_match_affine(self):
        """The output rectifies an affine map whose batch statistics are (beta, gamma)."""
        rng = np.random.default_rng(3)
        x = rng.normal(3.0, 2.5, size=(8, 4, 6, 6))
        gamma = rng.uniform(0.5, 2.0, 4)
        beta = rng.normal(size=4)
        rm, rv = self._buffers(4)
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True).data
        axes, shape = (0, 2, 3), (1, 4, 1, 1)
        xhat = (x - x.mean(axis=axes, keepdims=True)) / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
        affine = gamma.reshape(shape) * xhat + beta.reshape(shape)
        np.testing.assert_allclose(affine.mean(axis=axes), beta, atol=1e-5)
        np.testing.assert_allclose(affine.std(axis=axes), gamma, atol=1e-5)
        np.testing.assert_allclose(out, np.maximum(affine, 0), atol=1e-5)

    def test_running_stats_update_and_eval_path(self):
        rng = np.random.default_rng(4)
        x = rng.normal(1.0, 2.0, size=(16, 2, 5, 5))
        rm, rv = self._buffers(2)
        T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        m = T.BN_MOMENTUM  # from the zero mean and unit variance the buffers start at
        np.testing.assert_allclose(rm, m * x.mean(axis=(0, 2, 3)), atol=1e-12)
        np.testing.assert_allclose(rv, (1 - m) + m * x.var(axis=(0, 2, 3)), atol=1e-12)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                           training=False).data
        expected = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv + 1e-5).reshape(1, 2, 1, 1)
        np.testing.assert_allclose(out, np.maximum(expected, 0), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_matches_out_of_place_formula_bitwise(self, dtype):
        """The in-place eval path equals the folded shift
        max(x*scale + (beta - mean*scale), 0), scale = gamma*inv_std, bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 3.0, size=(2, 4, 5, 6)).astype(dtype)
        gamma = rng.normal(size=4).astype(dtype)
        beta = rng.normal(size=4).astype(dtype)
        rm, rv = rng.normal(size=4).astype(dtype), rng.uniform(0.1, 4.0, 4).astype(dtype)
        proj = rng.normal(size=x.shape).astype(dtype)
        shape = (1, 4, 1, 1)
        inv_std = (1.0 / np.sqrt(rv + 1e-5)).reshape(shape)
        scale = gamma.reshape(shape) * inv_std
        pre = x * scale + (beta.reshape(shape) - rm.reshape(shape) * scale)
        want = np.maximum(pre, 0)
        masked = proj * (pre > 0)
        centered = x - rm.reshape(shape)
        want_grads = (masked * scale,
                      np.einsum("nchw,nchw->c", masked, centered) * inv_std.ravel(),
                      np.einsum("nchw->c", masked))

        leaves = [Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                  Tensor(beta, requires_grad=True)]
        out = T.batch_norm(*leaves, rm, rv, training=False)
        rm += 1.0  # a buffer that moves after forward must not reach backward
        T.sum(T.mul(out, Tensor(proj))).backward()
        assert out.dtype == want.dtype
        assert 0 < np.sum(want == 0) < want.size  # both sides of the rectifier are exercised
        np.testing.assert_array_equal(out.data, want)
        for leaf, g in zip(leaves, want_grads):
            assert leaf.grad.dtype == g.dtype
            np.testing.assert_array_equal(leaf.grad, g)

    @staticmethod
    def _relu_bn_reference(x, gamma, beta, rm, rv, training, proj):
        """Batch norm, in the formula of each mode, then a separate ReLU,
        forward and backward, in plain out-of-place numpy.  Every reduction
        is an einsum: training sums the mean, centres ``x`` on it and sums
        the variance from that; eval folds the running mean into the shift.
        Training adds to eval's per-channel scale and shift the gradient
        through the batch statistics."""
        shape, m = (1, -1, 1, 1), x.size // x.shape[1]
        if training:
            centered = x - (np.einsum("nchw->c", x) / m).reshape(shape)
            inv_std = (1.0 / np.sqrt(np.einsum("nchw,nchw->c", centered, centered) / m
                                     + 1e-5)).reshape(shape)
            scale = gamma.reshape(shape) * inv_std
            pre = centered * scale + beta.reshape(shape)
        else:
            inv_std = (1.0 / np.sqrt(rv + 1e-5)).reshape(shape)
            scale = gamma.reshape(shape) * inv_std
            pre = x * scale + (beta.reshape(shape) - rm.reshape(shape) * scale)
            centered = x - rm.reshape(shape)
        g = proj * (pre > 0)  # relu's backward
        dgamma = np.einsum("nchw,nchw->c", g, centered).reshape(shape) * inv_std
        dbeta = np.einsum("nchw->c", g).reshape(shape)
        dx = g * scale
        if training:
            dx = dx - (centered * (scale / m * inv_std * dgamma) + scale / m * dbeta)
        return np.maximum(pre, 0), (dx, dgamma.ravel(), dbeta.ravel())

    def _run(self, x, gamma, beta, rm, rv, training, proj):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = T.batch_norm(*leaves, rm.copy(), rv.copy(), training=training)
        T.sum(T.mul(out, Tensor(proj))).backward()
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_relu_after_batch_norm_bitwise(self, training, dtype):
        rng = np.random.default_rng(30)
        x = rng.normal(0.5, 2.0, size=(3, 4, 5, 6)).astype(dtype)
        gamma = rng.normal(size=4).astype(dtype)
        beta = rng.normal(size=4).astype(dtype)
        rm, rv = rng.normal(size=4).astype(dtype), rng.uniform(0.5, 2.0, 4).astype(dtype)
        proj = rng.normal(size=x.shape).astype(dtype)
        want, want_grads = self._relu_bn_reference(x, gamma, beta, rm, rv, training, proj)
        out, grads = self._run(x, gamma, beta, rm, rv, training, proj)
        assert 0 < np.sum(want == 0) < want.size
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
        for got, g in zip(grads, want_grads):
            assert got.dtype == g.dtype
            np.testing.assert_array_equal(got, g)

    def test_channel_slice_statistics_equal_the_whole_maps(self):
        """Training batch norm on a channel slice gives that slice's output,
        running buffers and gradients bit for bit as on the whole map.  On
        this float32 [2, 3, 4, 4] map split into 1 + 2 channels, the sums of
        ``x.mean(axis=(0, 2, 3))`` differ between slice and whole map, while
        the ``"nchw->c"`` einsum sums match."""
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 2.0, size=(2, 3, 4, 4)).astype(np.float32)
        gamma, beta = rng.normal(size=3).astype(np.float32), rng.normal(size=3).astype(np.float32)
        proj = rng.normal(size=x.shape).astype(np.float32)

        def run(cs):
            leaves = [Tensor(a, requires_grad=True) for a in (x[:, cs], gamma[cs], beta[cs])]
            rm, rv = np.zeros(3, np.float32)[cs], np.ones(3, np.float32)[cs]
            out = T.batch_norm(*leaves, rm, rv, training=True)
            T.sum(T.mul(out, Tensor(proj[:, cs]))).backward()
            return [out.data, rm, rv] + [leaf.grad for leaf in leaves]

        whole = run(slice(None))
        for cs in (slice(0, 1), slice(1, 3)):
            for got, want in zip(run(cs), whole):
                np.testing.assert_array_equal(got, want[:, cs] if got.ndim == 4 else want[cs])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_matches_textbook_formula_within_sixteen_ulps(self, dtype):
        """Training output and gradients stay within 16 machine epsilons of the
        largest entry of the textbook formula: ``gamma * xhat + beta``, and the
        backward ``inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``."""
        rng = np.random.default_rng(36)
        x = rng.normal(0.5, 2.0, size=(8, 4, 6, 6)).astype(dtype)
        gamma, beta = rng.normal(size=4).astype(dtype), rng.normal(size=4).astype(dtype)
        proj = rng.normal(size=x.shape).astype(dtype)
        axes, shape = (0, 2, 3), (1, 4, 1, 1)
        inv_std = 1.0 / np.sqrt(x.var(axis=axes) + 1e-5)
        xhat = (x - x.mean(axis=axes).reshape(shape)) * inv_std.reshape(shape)
        pre = gamma.reshape(shape) * xhat + beta.reshape(shape)
        g = proj * (pre > 0)  # relu's backward
        dxhat = g * gamma.reshape(shape)
        m1 = dxhat.mean(axis=axes).reshape(shape)
        m2 = (dxhat * xhat).mean(axis=axes).reshape(shape)
        want = (np.maximum(pre, 0), inv_std.reshape(shape) * (dxhat - m1 - xhat * m2),
                (g * xhat).sum(axis=axes), g.sum(axis=axes))
        out, grads = self._run(x, gamma, beta, np.zeros(4, dtype), np.ones(4, dtype), True, proj)
        assert 0 < np.sum(want[0] == 0) < want[0].size
        for got, w in zip([out, *grads], want):
            assert got.dtype == w.dtype == dtype
            assert np.max(np.abs(got - w)) <= 16 * np.finfo(dtype).eps * np.max(np.abs(w))

    def test_train_at_benchmark_shape_within_sixteen_ulps(self):
        """At the san-tiny benchmark shape, float32 [64, 16, 32, 32] (65,536
        values per channel), the float32 einsum sums of the variance and of
        ``dgamma`` keep the output and every gradient within 16 epsilons of
        the largest entry of the same formula run in float64."""
        rng = np.random.default_rng(37)
        x = rng.normal(0.5, 2.0, size=(64, 16, 32, 32)).astype(np.float32)
        gamma, beta = (rng.normal(size=16).astype(np.float32) for _ in range(2))
        proj = rng.normal(size=x.shape).astype(np.float32)
        rm, rv = np.zeros(16, np.float32), np.ones(16, np.float32)
        out, grads = self._run(x, gamma, beta, rm, rv, True, proj)
        x64, gamma64, beta64, rm64, rv64, proj64 = (
            a.astype(np.float64) for a in (x, gamma, beta, rm, rv, proj))
        want, want_grads = self._relu_bn_reference(x64, gamma64, beta64, rm64, rv64, True, proj64)
        for got, w in zip([out, *grads], [want, *want_grads]):
            assert got.dtype == np.float32
            assert np.max(np.abs(got - w)) <= 16 * np.finfo(np.float32).eps * np.max(np.abs(w))

    def test_eval_folded_shift_far_from_zero_within_sixteen_ulps(self):
        """Eval mode folds the running mean into the shift, so a channel
        whose mean sits 8 standard deviations from zero cancels two large
        terms.  The float32 output stays within 16 epsilons of the largest
        entry of the float64 ``(x - mean) * gamma * inv_std + beta``."""
        rng = np.random.default_rng(38)
        sigma, mean = rng.uniform(0.5, 2.0, 4), rng.normal(size=4)
        mean[2] = 8 * sigma[2]
        shape = (1, 4, 1, 1)
        x = (mean.reshape(shape) + sigma.reshape(shape) * rng.normal(size=(8, 4, 8, 8)))
        x, rm, rv = x.astype(np.float32), mean.astype(np.float32), (sigma**2).astype(np.float32)
        gamma, beta = rng.normal(size=4).astype(np.float32), rng.normal(size=4).astype(np.float32)
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=False).data
        x64, rm64, rv64, gamma64, beta64 = (a.astype(np.float64) for a in (x, rm, rv, gamma, beta))
        want = np.maximum((x64 - rm64.reshape(shape)) * gamma64.reshape(shape)
                          / np.sqrt(rv64 + 1e-5).reshape(shape) + beta64.reshape(shape), 0)
        assert out.dtype == np.float32
        assert np.max(np.abs(out - want)) <= 16 * np.finfo(np.float32).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_backward_peaks_at_two_full_maps(self, training):
        """The backward closure of a float32 [64, 16, 32, 32] batch norm
        allocates at most 2.25 maps at its peak, the returned ``dx``
        included: the masked gradient (which becomes ``dx``) and the
        rebuilt ``x - mean``, which absorbs the training term in place.
        (With a separate ``dx`` and training temporaries it peaked at 4.0.)"""
        rng = np.random.default_rng(39)
        x = rng.normal(size=(64, 16, 32, 32)).astype(np.float32)
        leaves = [Tensor(a, requires_grad=True)
                  for a in (x, rng.normal(size=16).astype(np.float32),
                            rng.normal(size=16).astype(np.float32))]
        out = T.batch_norm(*leaves, rng.normal(size=16).astype(np.float32),
                           rng.uniform(0.5, 2.0, 16).astype(np.float32), training=training)
        g = rng.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            dx, _, _ = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape and dx.dtype == np.float32
        assert peak <= 2.25 * x.nbytes, f"backward peaked at {peak / x.nbytes:.2f} maps"

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_clipped_outputs_pass_no_gradient(self, training):
        """A gradient that arrives only where the output was clipped moves nothing."""
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 4, 4))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(),
                           training=training).data
        proj = rng.normal(size=x.shape) * (out == 0)
        assert np.any(proj != 0)
        _, grads = self._run(x, gamma, beta, rm, rv, training, proj)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_nan_input_gives_nan_output(self, training):
        x = np.random.default_rng(32).normal(size=(2, 3, 4, 4))
        x[1, 2, 0, 3] = np.nan
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), training=training).data
        assert np.isnan(out[1, 2, 0, 3])


def _f32(*shape):
    return Tensor(np.ones(shape, np.float32), requires_grad=True)


def _f64(*shape):
    return Tensor(np.ones(shape), requires_grad=True)


def _f32_buffers(c):
    return np.zeros(c, np.float32), np.ones(c, np.float32)


# one float64 operand among float32 ones -> (the call, the error it must raise)
MIXED_DTYPE_CALLS = {
    "linear-weight": (lambda: T.linear(_f32(2, 4, 3, 3), _f64(5, 4)), DimensionError),
    "linear-bias": (lambda: T.linear(_f32(2, 4, 3, 3), _f32(5, 4), _f64(5)), DimensionError),
    "linear-addend": (lambda: T.linear(_f32(2, 4, 3, 3), _f32(5, 4), add=_f64(1, 5, 3, 3)),
                      DimensionError),
    "batch_norm-gamma": (lambda: T.batch_norm(_f32(2, 3, 4, 4), _f64(3), _f32(3),
                                              *_f32_buffers(3), training=True), DimensionError),
    "batch_norm-beta": (lambda: T.batch_norm(_f32(2, 3, 4, 4), _f32(3), _f64(3),
                                             *_f32_buffers(3), training=False), DimensionError),
    "batch_norm-running-mean": (lambda: T.batch_norm(_f32(2, 3, 4, 4), _f32(3), _f32(3),
                                                     np.zeros(3), np.ones(3, np.float32),
                                                     training=True), DimensionError),
    "batch_norm-running-var": (lambda: T.batch_norm(_f32(2, 3, 4, 4), _f32(3), _f32(3),
                                                    np.zeros(3, np.float32), np.ones(3),
                                                    training=False), DimensionError),
    "slot_aggregate-neighbor": (lambda: T.slot_aggregate(_f32(2, 2, 1, 3, 3), _f32(2, 4, 3, 3), 3,
                                                         neighbor=_f64(2, 2, 3, 3)),
                                DimensionError),
    "slot_aggregate-batch1-neighbor": (lambda: T.slot_aggregate(
        _f32(2, 2, 1, 3, 3), _f32(2, 4, 3, 3), 3, neighbor=_f64(1, 2, 3, 3)), DimensionError),
    "slot_aggregate-tail-w": (lambda: T.slot_aggregate(_f32(2, 2, 1, 3, 3), _f32(2, 4, 3, 3), 3,
                                                       mlp=[(_f64(2, 2), _f32(2))]),
                              DimensionError),
    "slot_aggregate-tail-b": (lambda: T.slot_aggregate(_f32(2, 2, 1, 3, 3), _f32(2, 4, 3, 3), 3,
                                                       mlp=[(_f32(2, 2), _f64(2))]),
                              DimensionError),
    "mul": (lambda: T.mul(_f32(2, 3), _f64(2, 3)), DimensionError),
    "add": (lambda: T.add(_f64(2, 3), _f32(3)), DimensionError),
    "concat": (lambda: T.concat([_f32(2, 3), _f64(2, 3)], axis=1), DimensionError),
    "save_checkpoint-float64": (lambda: save_checkpoint(
        build_model(named_spec("san-tiny"), dtype=np.float64), os.devnull), UsageError),
}


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "no-grad"])
@pytest.mark.parametrize("case", MIXED_DTYPE_CALLS)
def test_one_graph_runs_in_one_dtype(case, taped):
    """A primitive whose operands, or batch norm's running buffers, mix
    float32 and float64 is refused, taped or not, and names both dtypes;
    it does not cast.  A checkpoint holds float32 only, so saving a float64
    network is refused too."""
    call, error = MIXED_DTYPE_CALLS[case]
    with nullcontext() if taped else T.no_grad(), pytest.raises(error) as raised:
        call()
    assert "float32" in str(raised.value) and "float64" in str(raised.value)


def test_refused_batch_norm_leaves_the_running_buffers():
    """The dtypes are checked before the forward, so a refused training call
    moves no running buffer."""
    running_mean, running_var = _f32_buffers(3)
    x = Tensor(np.arange(96, dtype=np.float32).reshape(2, 3, 4, 4))
    with pytest.raises(DimensionError):
        T.batch_norm(x, _f64(3), _f32(3), running_mean, running_var, training=True)
    np.testing.assert_array_equal(running_mean, np.zeros(3))
    np.testing.assert_array_equal(running_var, np.ones(3))


class TestElementwiseAndPooling:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_max_pool_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.max_pool(x, 2, 2).data.ravel()[0] == 4.0

    def test_max_pool_halves_extents(self):
        out = T.max_pool(Tensor(np.zeros((2, 3, 8, 6))), 2, 2)
        assert out.shape == (2, 3, 4, 3)

    def test_empty_window_raises(self):
        with pytest.raises(DimensionError):
            T.max_pool(Tensor(np.zeros((1, 1, 1, 1))), 2, 2)

    @pytest.mark.parametrize("k,stride,pad", [(0, 1, 0), (2, 0, 0), (2, 2, -1)])
    def test_bad_window_rejected(self, k, stride, pad):
        with pytest.raises(ConfigError):
            T.max_pool(Tensor(np.zeros((1, 1, 4, 4))), k, stride, pad)

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor(np.array([[0.0, 0.0]])), axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_softmax_rows_normalize(self):
        rng = np.random.default_rng(5)
        out = T.softmax(Tensor(rng.normal(size=(4, 7))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_hadamard_broadcasts_channel_groups(self):
        """One weight component may scale a group of consecutive channels."""
        rng = np.random.default_rng(6)
        v = rng.normal(size=(1, 2, 3, 2, 2))  # [N, groups, share, H, W]
        w = rng.normal(size=(1, 2, 1, 2, 2))
        out = T.mul(Tensor(v), Tensor(w))
        np.testing.assert_allclose(out.data, v * w, atol=0)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(T.global_avg_pool(Tensor(x)).data,
                                   x.mean(axis=(2, 3)), atol=1e-12)


class TestUnfold:
    def test_k1_is_identity_with_slot_axis(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 4))
        out = T.unfold(Tensor(x), 1)
        assert out.shape == (2, 3, 1, 4, 4)
        np.testing.assert_array_equal(out.data[:, :, 0], x)

    def test_center_pixel_slots_are_row_major(self):
        ramp = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.unfold(Tensor(ramp), 3)
        np.testing.assert_array_equal(out.data[0, 0, :, 1, 1], np.arange(9.0))

    def test_corner_pixel_zero_padding(self):
        """Out-of-bounds slots are zero; verified against a hand-padded copy."""
        ramp = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.unfold(Tensor(ramp), 3)
        padded = np.pad(ramp[0, 0], 1)
        expected = [padded[dy, dx] for dy in range(3) for dx in range(3)]
        np.testing.assert_array_equal(out.data[0, 0, :, 0, 0], expected)
        assert np.sum(out.data[0, 0, :, 0, 0] == 0.0) >= 5  # 4 padded slots + the 0 entry

    def test_even_footprint_rejected(self):
        with pytest.raises(ConfigError):
            T.unfold(Tensor(np.zeros((1, 1, 4, 4))), 2)

    @pytest.mark.parametrize("k,base_shape,slots", [
        (3, (2, 3, 1, 4, 5), None),
        (3, (2, 3, 9, 4, 5), None),
        (1, (2, 3, 1, 4, 5), None),
        (5, (2, 3, 25, 4, 5), list(np.random.default_rng(33).permutation(25))),
    ], ids=["center-addend", "per-slot-addend", "k1-view", "permuted-k5"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_addend_matches_take_then_add_bitwise(self, k, base_shape, slots, dtype):
        """The neighbor addend that ``slot_aggregate`` reads slot by slot equals
        ``add(base, take(unfold(x), slots))`` aggregated as whole weights, bit
        for bit, forward and backward."""
        rng = np.random.default_rng(34)
        x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        base = rng.normal(size=base_shape).astype(dtype)
        values = rng.normal(size=(2, 6, 4, 5)).astype(dtype)
        proj = rng.normal(size=(2, 6, 4, 5)).astype(dtype)
        results = []
        for fused in (False, True):
            xt, bt = Tensor(x, requires_grad=True), Tensor(base, requires_grad=True)
            vt = Tensor(values, requires_grad=True)
            if fused:
                out = T.slot_aggregate(bt, vt, k, slots=slots, neighbor=xt)
            elif base_shape[2] == 1:
                # A shared addend commutes with the take; adding it first sums
                # its gradient over footprint slots in the order backward visits them.
                weights = T.add(bt, T.unfold(xt, k))
                weights = weights if slots is None else T.take(weights, slots, axis=2)
                out = T.slot_aggregate(weights, vt, k, slots=slots)
            else:
                u = T.unfold(xt, k)
                weights = T.add(bt, u if slots is None else T.take(u, slots, axis=2))
                out = T.slot_aggregate(weights, vt, k, slots=slots)
            T.sum(T.mul(out, Tensor(proj))).backward()
            results.append((out.data, xt.grad, bt.grad, vt.grad))
        for want, got in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_one_hot_slot_weight_is_a_shift(self):
        """Weighting a single slot reproduces a zero-padded spatial shift."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 5, 5))
        u = T.unfold(Tensor(x), 3).data
        for slot in range(9):
            dy, dx = divmod(slot, 3)
            shifted = np.zeros_like(x)
            for i in range(5):
                for j in range(5):
                    si, sj = i + dy - 1, j + dx - 1
                    if 0 <= si < 5 and 0 <= sj < 5:
                        shifted[:, :, i, j] = x[:, :, si, sj]
            np.testing.assert_array_equal(u[:, :, slot], shifted)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(10).normal(size=(3, 4)), requires_grad=True)
        T.sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = Tensor(np.random.default_rng(11).normal(size=(5,)), requires_grad=True)
        T.sum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_backward_on_detached_tensor_raises(self):
        with pytest.raises(UsageError):
            Tensor(np.zeros(1)).backward()

    def test_backward_on_nonscalar_raises(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(UsageError):
            T.relu(x).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        T.sum(T.add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_second_backward_raises_consumed(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = T.sum(T.mul(x, x))
        loss.backward()
        with pytest.raises(UsageError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_backward_through_consumed_subgraph_raises(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        h = T.mul(x, x)
        T.sum(h).backward()
        with pytest.raises(UsageError, match="consumed"):
            T.sum(T.scale(h, 2.0)).backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_intermediates_are_freed_when_backward_returns(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = T.mul(x, x)
        r = T.relu(h)
        # Tensor has no __weakref__ slot, so watch what the nodes own
        watched = [weakref.ref(obj) for obj in (h.data, h._backward, r.data, r._backward)]
        loss = T.sum(r)
        del h, r
        loss.backward()
        assert [ref() for ref in watched] == [None] * len(watched)

    def test_branch_without_gradient_is_released(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = T.mul(x, x)
        r = T.relu(h)
        r._backward = lambda g: (None,)  # h receives no gradient
        closure = weakref.ref(h._backward)
        loss = T.sum(r)
        loss.backward()
        assert closure() is None and h._parents == ()
        assert h.grad is None and x.grad is None
        with pytest.raises(UsageError, match="consumed"):
            T.sum(h).backward()

    def test_leaves_and_loss_keep_grad_intermediates_release_it(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
        h = T.mul(x, w)
        loss = T.sum(h)
        loss.backward()
        np.testing.assert_array_equal(x.grad, w.data)
        np.testing.assert_array_equal(w.grad, x.data)
        np.testing.assert_array_equal(loss.grad, 1.0)
        assert h.grad is None and h._parents == ()
        assert loss._parents == ()

    def test_sibling_gradients_add_up(self):
        """A node read by three consumers gets the sum of their gradients."""
        x = Tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True)
        h = T.mul(x, x)
        T.sum(T.add(T.mul(h, h), h)).backward()
        np.testing.assert_array_equal(x.grad, 4 * x.data**3 + 2 * x.data)

    def test_tiny_step_leaves_under_1mib_live(self):
        model, x, labels = _tiny_step(batch=8)
        tracemalloc.start()
        try:
            loss = cross_entropy_smoothed(model(x), labels, 0.1)
            loss.backward()
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live < 2**20, f"{live / 2**20:.1f} MiB live after backward"

    def test_tiny_forward_tape_holds_each_map_once(self):
        """A train-mode san-tiny forward at b=8 leaves at most 7 MiB on the
        tape: batch norm keeps no normalized copy of its input, the residual
        and position sums add no node of their own, and ``slot_aggregate``
        keeps no padded value map.  (With those three copies it was 9.9 MiB.)"""
        live = _forward_tape_bytes("san-tiny")
        assert live <= 7 * 2**20, f"{live / 2**20:.2f} MiB live after forward"

    @pytest.mark.parametrize("overrides,mib", [
        ({"family": "patchwise", "relation": "concatenation"}, 14),
        ({"relation": "hadamard", "position": "relative"}, 17),
        ({"relation": "dot", "position": "relative"}, 17),
    ], ids=["patchwise-concatenation", "hadamard", "dot"])
    def test_tiny_forward_tape_holds_one_k_fold_map_per_layer(self, overrides, mib):
        """The same b=8 forward for the variants that still build a K-fold
        relation: patchwise concatenation keeps one, its convolution's
        unfolded key map (no transposed copy and no concatenated relation),
        and Hadamard and dot add their center map inside the product layer
        (no second K-fold sum).  With those copies they held 19.9, 19.4 and
        19.9 MiB."""
        live = _forward_tape_bytes(named_spec("san-tiny", **overrides))
        assert live <= mib * 2**20, f"{live / 2**20:.2f} MiB live after forward"

    def test_tiny_step_gradients_match_keep_everything_walk(self, spec="san-tiny"):
        grads = []
        for walk in (T.backward, _keep_everything_backward):
            model, x, labels = _tiny_step(batch=8, spec=spec)
            walk(cross_entropy_smoothed(model(x), labels, 0.1))
            grads.append([p.grad for p in model.parameters()])
        assert all(g is not None and np.abs(g).max() > 0 for g in grads[1])
        for got, want in zip(*grads):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_tiny_resnet_step_gradients_match_keep_everything_walk(self):
        """The same on a bottleneck network, whose last convolution writes the
        residual sum."""
        self.test_tiny_step_gradients_match_keep_everything_walk(spec="resnet")


def _tiny_step(batch, spec="san-tiny"):
    """A san-tiny model (or a two-stage 32x32 ResNet) with its residual units
    opened, plus one seeded batch."""
    if spec == "resnet":
        stages = (StageSpec(4, 1, 3), StageSpec(8, 2, 3))
        spec = ModelSpec(name="resnet-tiny", arch="resnet", stages=stages, stem_channels=16,
                         classes=10, input_hw=32)
    model = build_model(named_spec(spec) if isinstance(spec, str) else spec, seed=4)
    rng = np.random.default_rng(6)
    for name, p in model.named_parameters():
        # residual units start as the identity; open them so the branch is on the path
        if name.endswith(("expand.w", "conv3.kernel")):
            bound = np.sqrt(6.0 / p.shape[1])
            p.data = rng.uniform(-bound, bound, p.shape).astype(p.dtype)
    x = Tensor(rng.normal(size=(batch, 3, 32, 32)).astype(np.float32))
    return model, x, rng.integers(0, 10, batch)


def _forward_tape_bytes(spec):
    """Bytes a b=8 train-mode forward of ``_tiny_step``'s model leaves live."""
    model, x, _ = _tiny_step(batch=8, spec=spec)
    tracemalloc.start()
    try:
        logits = model(x)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    return live


def _keep_everything_backward(loss):
    """The walk before backward consumed the graph: every node keeps its tape."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is not None and parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g


def _fd_case(name, build, leaves):
    result = check_gradients(build, leaves, name=name)
    assert result["passed"], f"{name}: rel error {result['max_rel_error']:.2e}"


class TestFiniteDifferences:
    """Analytic gradients of every primitive match central differences."""

    def test_linear(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        _fd_case("linear", lambda: T.linear(x, w, b), {"x": x, "w": w, "b": b})

    def test_batch_norm_train_and_eval(self):
        rng = np.random.default_rng(21)
        for training in (True, False):
            x = Tensor(rng.normal(size=(3, 4, 4, 4)), requires_grad=True)
            g = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, 4)
            _fd_case(
                f"bn/train={training}",
                lambda: T.batch_norm(x, g, b, rm.copy(), rv.copy(), training=training),
                {"x": x, "gamma": g, "beta": b},
            )

    def test_spatial_primitives(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        _fd_case("unfold", lambda: T.unfold(x, 3), {"x": x})
        _fd_case("unfold/stride2", lambda: T.unfold(x, 3, stride=2), {"x": x})
        _fd_case("max_pool2", lambda: T.max_pool(x, 2, 2), {"x": x})
        _fd_case("max_pool3", lambda: T.max_pool(x, 3, 2, pad=1), {"x": x})
        _fd_case("gap", lambda: T.global_avg_pool(x), {"x": x})

    def test_reductions_and_activations(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        _fd_case("relu", lambda: T.relu(x), {"x": x})
        _fd_case("softmax", lambda: T.softmax(x, axis=1), {"x": x})
        _fd_case("log_softmax", lambda: T.log_softmax(x, axis=1), {"x": x})

    def test_broadcast_binary_and_structural(self):
        rng = np.random.default_rng(24)
        a = Tensor(rng.normal(size=(2, 3, 1, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
        _fd_case("add", lambda: T.add(a, b), {"a": a, "b": b})
        _fd_case("sub", lambda: T.sub(a, b), {"a": a, "b": b})
        _fd_case("mul", lambda: T.mul(a, b), {"a": a, "b": b})
        _fd_case("concat", lambda: T.concat([a, T.take(b, [0], axis=2)], axis=2),
                 {"a": a, "b": b})
        _fd_case("transpose", lambda: T.transpose(b, (0, 2, 1, 3)), {"b": b})
        _fd_case("broadcast", lambda: T.broadcast_to(a, (2, 3, 5, 4)), {"a": a})

    def test_slot_aggregate(self):
        rng = np.random.default_rng(25)
        for k, hw, slots in [
            (3, (4, 3), None),
            (3, (2, 5), [4, 0, 8, 1, 7, 2, 6, 3, 5]),
            (5, (3, 2), None),  # footprint wider than the map on both axes
        ]:
            w = Tensor(rng.normal(size=(2, 3, k * k) + hw), requires_grad=True)
            v = Tensor(rng.normal(size=(2, 6) + hw), requires_grad=True)
            _fd_case(f"slot_aggregate/k={k}/{hw}",
                     lambda: T.slot_aggregate(w, v, k, slots=slots), {"w": w, "v": v})

    @pytest.mark.parametrize("depth,weight_slots,neighbor_batch,permuted,k", [
        (1, 1, 2, False, 3),
        (1, "K", 2, True, 5),
        (2, 1, 2, True, 3),
        (2, "K", 2, False, 5),
        (2, "K", None, True, 3),
        (3, 1, 2, True, 5),
        (3, "K", 2, False, 3),
    ])
    def test_slot_aggregate_with_weight_mlp(self, depth, weight_slots, neighbor_batch,
                                            permuted, k):
        """Every input of the per-slot weight perceptron, ``mlp(weights[:, :, s] +
        shift_s(neighbor))``: weights with one slot or K, a batch-N neighbor
        (or none), and each tail layer's ``w`` and ``b``."""
        rng = np.random.default_rng(26 + 7 * depth + k)
        n, h, w = 2, 4, 3  # at k=5 the footprint is wider than the map
        widths = {1: [2], 2: [3, 2], 3: [3, 4, 2]}[depth]  # D, hidden..., G
        slots = list(rng.permutation(k * k)) if permuted else None
        leaves = {
            "weights": Tensor(rng.normal(size=(n, widths[0], k * k if weight_slots == "K" else 1,
                                               h, w)), requires_grad=True),
            "values": Tensor(rng.normal(size=(n, 4, h, w)), requires_grad=True),
        }
        if neighbor_batch is not None:
            leaves["neighbor"] = Tensor(rng.normal(size=(neighbor_batch, widths[0], h, w)),
                                        requires_grad=True)
        tail = []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            tail.append((Tensor(rng.normal(size=(fan_out, fan_in)), requires_grad=True),
                         Tensor(rng.normal(size=fan_out), requires_grad=True)))
            leaves[f"w{i}"], leaves[f"b{i}"] = tail[-1]
        _fd_case(f"slot_aggregate/mlp_depth={depth}/k={k}",
                 lambda: T.slot_aggregate(leaves["weights"], leaves["values"], k, slots=slots,
                                          neighbor=leaves.get("neighbor"), mlp=tail),
                 leaves)
        # no input may pass vacuously with an all-zero gradient
        assert all(np.abs(leaf.grad).max() > 0 for leaf in leaves.values())


class TestDeterminismAndFiniteness:
    def test_primitives_are_bit_deterministic(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(8, 4))

        def run():
            t = T.linear(Tensor(x), Tensor(w))
            t = T.relu(t)
            t = T.unfold(t, 3)
            return T.sum(t, axis=2).data

        first, second = run(), run()
        np.testing.assert_array_equal(first, second)

    def test_finite_inputs_stay_finite(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.normal(0, 100, size=(2, 3, 4, 4)))
        for out in (
            T.softmax(T.reshape(x, (2, 48)), axis=1),
            T.log_softmax(T.reshape(x, (2, 48)), axis=1),
            T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         np.zeros(3), np.ones(3), training=True),
        ):
            assert np.all(np.isfinite(out.data))


def _split_and_one_part(run, monkeypatch):
    """``run()`` as the primitives split it, then with every call as one part.

    Returns both results and whether the first run split any call."""
    calls = []
    in_halves = T._in_halves

    def spy(fn, n, split):
        calls.append(split)
        return in_halves(fn, n, split)

    monkeypatch.setattr(T, "_in_halves", spy)
    split = run()
    monkeypatch.setattr(T, "_in_halves", lambda fn, n, split: [fn(0, n)])
    one = run()
    return split, one, any(calls)


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestSplitMatchesOnePart:
    """Each split primitive gives the output, gradients and buffers of its
    one-part run, bit for bit."""

    @pytest.mark.parametrize("case", [
        ("4d", False, None), ("4d", True, "full"), ("4d", False, "batch1"),
        ("4d", True, "lower"), ("2d", True, "full")],
        ids=["4d", "4d-full", "4d-batch1", "4d-lower", "2d-full"])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_linear(self, n, case, monkeypatch):
        """4-D and 2-D inputs, with and without a bias; full-batch, batch-1
        and lower-rank addends."""
        rank, has_bias, addend = case
        rng = np.random.default_rng(40 + n)
        tail = (5, 6) if rank == "4d" else ()
        out_shape = (n, 3) + tail
        add_shape = {"full": out_shape, "batch1": (1,) + out_shape[1:],
                     "lower": out_shape[2:] or (3,)}.get(addend)
        arrays = [rng.normal(size=(n, 4) + tail).astype(np.float32),
                  rng.normal(size=(3, 4)).astype(np.float32)]
        if has_bias:
            arrays.append(rng.normal(size=3).astype(np.float32))
        if addend is not None:
            arrays.append(rng.normal(size=add_shape).astype(np.float32))
        proj = Tensor(rng.normal(size=out_shape).astype(np.float32))

        def run():
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            x, w, rest = leaves[0], leaves[1], leaves[2:]
            b = rest.pop(0) if has_bias else None
            out = T.linear(x, w, b, add=rest[0] if rest else None)
            T.sum(T.mul(out, proj)).backward()
            return [out.data] + [leaf.grad for leaf in leaves]

        split, one, did_split = _split_and_one_part(run, monkeypatch)
        assert did_split
        _assert_all_equal(split, one)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 3, 16])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batch_norm(self, training, c, dtype, monkeypatch):
        rng = np.random.default_rng(50 + c)
        x = rng.normal(0.5, 2.0, size=(3, c, 5, 6)).astype(dtype)
        gamma, beta = (rng.normal(size=c).astype(dtype) for _ in range(2))
        rm, rv = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
        proj = Tensor(rng.normal(size=x.shape).astype(dtype))

        def run():
            leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            buffers = [rm.copy(), rv.copy()]
            out = T.batch_norm(*leaves, *buffers, training=training)
            T.sum(T.mul(out, proj)).backward()
            return [out.data] + [leaf.grad for leaf in leaves] + buffers

        split, one, did_split = _split_and_one_part(run, monkeypatch)
        assert did_split == (c >= 2)
        _assert_all_equal(split, one)

    @pytest.mark.parametrize("window", [(2, 2, 0), (3, 2, 1)], ids=["k2s2", "k3s2p1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 3])
    def test_max_pool(self, n, dtype, window, monkeypatch):
        """Small integers make ties in most windows; a few NaNs win theirs."""
        rng = np.random.default_rng(60 + n)
        x = rng.integers(0, 3, size=(n, 3, 7, 8)).astype(dtype)
        x.reshape(-1)[rng.choice(x.size, 6, replace=False)] = np.nan
        proj = Tensor(rng.normal(size=(n, 3) + T.max_pool(Tensor(x), *window).shape[2:])
                      .astype(dtype))

        def run():
            leaf = Tensor(x, requires_grad=True)
            out = T.max_pool(leaf, *window)
            T.sum(T.mul(out, proj)).backward()
            return [out.data, leaf.grad]

        split, one, did_split = _split_and_one_part(run, monkeypatch)
        assert did_split and np.isnan(split[0]).any()
        _assert_all_equal(split, one)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ordered", [False, True], ids=["slots", "slot_order"])
    @pytest.mark.parametrize("weights_kind,neighbor_batch,widths", [
        ("per-slot", None, (4,)), ("per-slot", None, (3, 4)),
        ("shared", "n", (3, 4)), ("shared", "n", (3, 5, 4)),
        ("per-slot", 1, (3, 4)), ("shared", 1, (3, 5, 4))],
        ids=["per-slot", "per-slot-tail", "shared-tail1", "shared-tail2",
             "per-slot-tail-neighbor1", "shared-tail2-neighbor1"])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_slot_aggregate(self, n, weights_kind, neighbor_batch, widths, ordered, dtype,
                            monkeypatch):
        """Per-slot weights as the strided view patchwise passes, per-slot
        weights under a tail layer, and shared weights with a neighbor under
        one and two tail layers, whose ``(w, b)`` gradients sum over images;
        a batch-1 neighbor, as Hadamard's and dot's position term, is read by
        every image and its gradient sums over them."""
        rng = np.random.default_rng(90 + n)
        k, h, w, d, g = 3, 4, 5, widths[0], widths[-1]

        def draw(*shape):
            return rng.normal(size=shape).astype(dtype)

        if weights_kind == "per-slot":
            weights = draw(n, k * k, d, h, w).transpose(0, 2, 1, 3, 4)
        else:
            weights = draw(n, d, 1, h, w)
        has_neighbor = neighbor_batch is not None
        arrays = [weights, draw(n, 2 * g, h, w)]
        if has_neighbor:
            arrays.append(draw(n if neighbor_batch == "n" else 1, d, h, w))
        arrays += [a for fan_in, fan_out in zip(widths[:-1], widths[1:])
                   for a in (draw(fan_out, fan_in), draw(fan_out))]
        slots = list(rng.permutation(k * k)) if ordered else None
        proj = Tensor(draw(n, 2 * g, h, w))

        def run():
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            tail = leaves[3 if has_neighbor else 2:]
            out = T.slot_aggregate(leaves[0], leaves[1], k, slots=slots,
                                   neighbor=leaves[2] if has_neighbor else None,
                                   mlp=list(zip(tail[::2], tail[1::2])))
            T.sum(T.mul(out, proj)).backward()
            return [out.data] + [leaf.grad for leaf in leaves]

        split, one, did_split = _split_and_one_part(run, monkeypatch)
        assert did_split
        _assert_all_equal(split, one)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("position", ["absolute", "relative"])
    @pytest.mark.parametrize("relation", ["hadamard", "dot"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairwise_attention_with_a_position_neighbor(self, n, relation, position, dtype,
                                                         monkeypatch):
        """Hadamard and dot pass their position term to ``slot_aggregate`` as a
        batch-1 neighbor, and that call splits too."""
        rng = np.random.default_rng(80 + n)
        cfg = AttentionConfig(relation=relation, position=position, footprint=3, r1=4, r2=2,
                              share=2)
        params = VectorAttention(16, cfg, rng, dtype=dtype)
        for _, p in params.named_parameters():
            p.data = rng.normal(scale=0.5, size=p.shape).astype(dtype)
        x = rng.normal(size=(n, 16, 4, 5)).astype(dtype)
        proj = Tensor(rng.normal(size=(n, params.dims.cm, 4, 5)).astype(dtype))
        split_by, in_halves = set(), T._in_halves

        def record(fn, size, split):  # names the primitive of each split call
            if split:
                split_by.add(fn.__qualname__.split(".")[0])
            return in_halves(fn, size, split)

        def run():
            xt = Tensor(x, requires_grad=True)
            for _, p in params.named_parameters():
                p.grad = None
            out = pairwise_attention(xt, params)
            T.sum(T.mul(out, proj)).backward()
            return [out.data, xt.grad] + [p.grad for _, p in params.named_parameters()]

        monkeypatch.setattr(T, "_in_halves", record)
        split, one, _ = _split_and_one_part(run, monkeypatch)
        assert "slot_aggregate" in split_by
        _assert_all_equal(split, one)


class TestBatchSplit:
    """``slot_aggregate``, ``linear`` and ``max_pool`` run a batch of two or
    more as two halves, images ``[0, N // 2)`` on one worker thread and the
    rest on the caller's; ``batch_norm`` splits its channels the same way."""

    def test_both_halves_run_under_the_callers_error_state(self):
        """Only the worker's images overflow, once in forward and once in
        backward: under ``over="raise"`` the call raises, and under
        ``over="ignore"`` with warnings as errors it stays silent, as the
        caller's own half would."""
        ones, big = np.ones((4, 2, 3, 3), np.float32), np.float32(1e30)

        def weights(first):  # images 0 and 1, the worker's half, get ``first``
            w = np.ones((4, 2, 9, 3, 3), np.float32)
            w[:2] = first
            return Tensor(w, requires_grad=True)

        def forward():
            T.slot_aggregate(weights(big), Tensor(ones * big), 3)

        def backward():  # the value gradient, 1e20 * 1e20, overflows
            proj = ones.copy()
            proj[:2] = 1e20
            with np.errstate(over="ignore"):
                out = T.slot_aggregate(weights(1e20), Tensor(ones, requires_grad=True), 3)
                loss = T.sum(T.mul(out, Tensor(proj)))
            loss.backward()

        for run in (forward, backward):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                run()
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                run()
        # the caller's half raises too; the worker is joined and serves the next call
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            T.slot_aggregate(weights(big), Tensor(np.full_like(ones, big)), 3)
        out = T.slot_aggregate(weights(2.0), Tensor(ones), 3)
        assert np.all(np.isfinite(out.data))

    def test_linear_and_batch_norm_halves_run_under_the_callers_error_state(self):
        """As above for ``linear``, whose worker takes images 0 and 1, and for
        ``batch_norm``, whose worker takes channels 0 and 1: only that half
        overflows, once in forward and once in backward."""
        rng = np.random.default_rng(70)
        x = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)

        def linear_forward():  # 1e30 * 1e10 in the worker's images
            big = x.copy()
            big[:2] = 1e30
            T.linear(Tensor(big), Tensor(np.full((2, 4), 1e10, np.float32)))

        def linear_backward():  # 1e20 * 1e20 into the worker's images of dx
            proj = np.ones((4, 2, 3, 3), np.float32)
            proj[:2] = 1e20
            with np.errstate(over="ignore", invalid="ignore"):
                out = T.linear(Tensor(x, requires_grad=True),
                               Tensor(np.full((2, 4), 1e20, np.float32)))
                loss = T.sum(T.mul(out, Tensor(proj)))
            loss.backward()

        def norm_forward():  # the worker's channels scale by 3e38 and shift by 3e38
            gamma, beta = np.ones(4, np.float32), np.zeros(4, np.float32)
            gamma[:2] = beta[:2] = 3e38
            T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), np.zeros(4, np.float32),
                         np.ones(4, np.float32), training=True)

        def norm_backward():  # a 1e20 gradient times the worker's 1e20 scale
            gamma, proj = np.ones(4, np.float32), np.ones_like(x)
            gamma[:2] = proj[:, :2] = 1e20
            with np.errstate(over="ignore", invalid="ignore"):
                out = T.batch_norm(Tensor(x, requires_grad=True), Tensor(gamma),
                                   Tensor(np.ones(4, np.float32)), np.zeros(4, np.float32),
                                   np.ones(4, np.float32), training=False)
                loss = T.sum(T.mul(out, Tensor(proj)))
            loss.backward()

        for run in (linear_forward, linear_backward, norm_forward, norm_backward):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                run()
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                run()

    def test_worker_half_is_joined_when_the_callers_half_raises(self):
        """The caller's exception leaves only after the worker's half is done,
        so no half still writes into buffers the caller has given up."""
        finished = []

        def part(lo, hi):
            if lo > 0:
                raise ValueError("the caller's half")
            time.sleep(0.2)
            finished.append((lo, hi))

        with pytest.raises(ValueError):
            T._in_halves(part, 5, split=True)
        assert finished == [(0, 2)]

    def test_one_worker_thread_started_by_the_first_split_call(self):
        """Importing the package, building models and predicting one image
        with san-tiny and with resnet26 (whose convolutions reach ``linear``,
        ``max_pool`` and ``batch_norm``) start no thread; split calls share
        one worker, not one per call."""
        script = textwrap.dedent("""
            import json, threading
            import numpy as np
            counts = [threading.active_count()]
            import sanet
            from sanet.models import build_model, named_spec, predict
            from sanet.tensor import Tensor, slot_aggregate
            counts.append(threading.active_count())
            model = build_model(named_spec("san-tiny"), seed=0)
            counts.append(threading.active_count())
            predict(model, np.zeros((1, 3, 32, 32), np.float32))
            counts.append(threading.active_count())
            predict(build_model(named_spec("resnet26"), seed=0),
                    np.zeros((1, 3, 64, 64), np.float32))
            counts.append(threading.active_count())
            before, workers = set(threading.enumerate()), set()
            for _ in range(4):
                slot_aggregate(Tensor(np.ones((4, 2, 9, 3, 3))), Tensor(np.ones((4, 2, 3, 3))), 3)
                counts.append(threading.active_count())
                workers |= set(threading.enumerate()) - before
            print(json.dumps({"counts": counts, "workers": len(workers)}))
        """)
        seen = self._run_script(script)
        counts = seen["counts"]
        assert counts[:5] == [counts[0]] * 5
        assert counts[5:] == [counts[0] + 1] * 4
        assert seen["workers"] == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self):
        """A child forked after a split call inherits the pool but not its
        thread; its own split calls must not wait on that thread forever."""
        script = textwrap.dedent("""
            import json, os, signal
            import numpy as np
            from sanet.tensor import Tensor, slot_aggregate
            def call():
                slot_aggregate(Tensor(np.ones((4, 2, 9, 3, 3))), Tensor(np.ones((4, 2, 3, 3))), 3)
            call()
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)  # a hung child ends with SIGALRM, not never
                call()
                os._exit(0)
            print(json.dumps({"status": os.waitpid(pid, 0)[1]}))
        """)
        assert self._run_script(script) == {"status": 0}

    @staticmethod
    def _run_script(script):
        """Run ``script`` in a fresh interpreter; return its last line as JSON."""
        src = os.path.dirname(os.path.dirname(T.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        return json.loads(run.stdout.splitlines()[-1])
