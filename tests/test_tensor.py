"""Primitive operations: exact semantics, gradients, and serialization."""

import numpy as np
import pytest

import sanet.tensor as T
from sanet.gradcheck import check_gradients
from sanet.reference import naive_linear
from sanet.tensor import ConfigError, DimensionError, Tensor, UsageError


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


class TestBatchNorm:
    def _buffers(self, c):
        return np.zeros(c), np.ones(c)

    def test_constant_input_returns_shift_in_train_mode(self):
        """Zero variance collapses to the learned shift (epsilon-guarded)."""
        rm, rv = self._buffers(3)
        beta = np.array([1.0, -2.0, 0.5])
        out = T.batch_norm(Tensor(np.full((2, 3, 4, 4), 7.0)), Tensor(np.ones(3)),
                           Tensor(beta), rm, rv, training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.reshape(1, 3, 1, 1),
                                                             (2, 3, 4, 4)), atol=1e-9)

    def test_standardized_input_passes_through(self):
        """Input already standardized (epsilon included) is a fixed point."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        x = x * np.sqrt(1.0 - 1e-5)  # unit variance once the epsilon is added back
        rm, rv = self._buffers(3)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           rm, rv, training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_train_output_statistics_match_affine(self):
        rng = np.random.default_rng(3)
        x = rng.normal(3.0, 2.5, size=(8, 4, 6, 6))
        gamma = rng.uniform(0.5, 2.0, 4)
        beta = rng.normal(size=4)
        rm, rv = self._buffers(4)
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), beta, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), gamma, atol=1e-5)

    def test_running_stats_update_and_eval_path(self):
        rng = np.random.default_rng(4)
        x = rng.normal(1.0, 2.0, size=(16, 2, 5, 5))
        rm, rv = self._buffers(2)
        T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                     training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)), atol=1e-12)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                           training=False).data
        expected = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv + 1e-5).reshape(1, 2, 1, 1)
        np.testing.assert_allclose(out, expected, atol=1e-12)


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


def _fd_case(name, build, leaves):
    result = check_gradients(build, leaves, name=name)
    assert result.passed, f"{name}: rel error {result.max_rel_error:.2e}"


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
        _fd_case("mean", lambda: T.mean(x, axis=1), {"x": x})

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
        w = Tensor(rng.normal(size=(2, 3, 4, 2, 2)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 6, 4, 2, 2)), requires_grad=True)
        _fd_case("slot_aggregate", lambda: T.slot_aggregate(w, v), {"w": w, "v": v})


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
