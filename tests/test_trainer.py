"""Augmentation, losses, schedule, optimizer semantics, and run mechanics."""

import math
import os

import numpy as np
import pytest

from sanet.data import augment, augment_batch, make_blobs
from sanet.gradcheck import check_gradients
from sanet.models import build_model, named_spec
from sanet.tensor import Tensor
from sanet.training import (
    SGD,
    TrainConfig,
    TrainingDiverged,
    cosine_lr,
    cross_entropy_smoothed,
    evaluate,
    top_k_accuracy,
    train,
)


class TestAugment:
    def test_matches_manual_draw_sequence(self):
        """Crop offsets then the flip coin, drawn in that order."""
        rng = np.random.default_rng(7)
        img = np.random.default_rng(8).integers(0, 256, (3, 32, 32), dtype=np.uint8)
        out = augment(img, rng)

        ref = np.random.default_rng(7)
        padded = np.pad(img, ((0, 0), (4, 4), (4, 4)))
        dy, dx = int(ref.integers(0, 9)), int(ref.integers(0, 9))
        manual = padded[:, dy : dy + 32, dx : dx + 32]
        if ref.random() < 0.5:
            manual = manual[:, :, ::-1]
        np.testing.assert_array_equal(out, manual)

    def test_horizontal_flip_is_an_involution(self):
        img = np.random.default_rng(9).integers(0, 256, (3, 8, 8), dtype=np.uint8)
        np.testing.assert_array_equal(img[:, :, ::-1][:, :, ::-1], img)

    def test_fixed_seed_gives_byte_identical_batches(self):
        imgs = np.random.default_rng(10).integers(0, 256, (16, 3, 32, 32), dtype=np.uint8)
        a = augment_batch(imgs, np.random.default_rng(3))
        b = augment_batch(imgs, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.uint8

    def test_eval_path_normalizes_only(self):
        ds = make_blobs(train_per_class=5, val_per_class=2, seed=0)
        x = ds.normalize(ds.val_images)
        expected = (ds.val_images.astype(np.float32)
                    - ds.mean.reshape(1, 3, 1, 1)) / ds.std.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(x, expected, atol=0)


class TestSmoothedCrossEntropy:
    def test_aligned_confident_logits_reach_zero_without_smoothing(self):
        logits = Tensor(np.array([[30.0, 0.0, 0.0]]))
        loss = cross_entropy_smoothed(logits, np.array([0]), smoothing=0.0)
        assert float(loss.data) < 1e-9

    def test_uniform_logits_cost_log_classes(self):
        """Any target distribution against uniform predictions costs ln K."""
        for eps in (0.0, 0.1):
            logits = Tensor(np.zeros((4, 10)))
            loss = cross_entropy_smoothed(logits, np.arange(4), smoothing=eps)
            assert abs(float(loss.data) - math.log(10)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = np.array([0, 3, 2])
        result = check_gradients(
            lambda: cross_entropy_smoothed(logits, labels, smoothing=0.1),
            {"logits": logits}, name="smoothed-ce",
        )
        assert result.passed, result.max_rel_error

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_smoothed(Tensor(np.zeros((1, 2))), np.array([0]), smoothing=1.0)


class TestSchedule:
    def test_cosine_endpoints(self):
        assert cosine_lr(0.1, 0, 1000) == 0.1
        assert abs(cosine_lr(0.1, 1000, 1000)) < 1e-9

    def test_cosine_midpoint(self):
        assert abs(cosine_lr(0.2, 500, 1000) - 0.1) < 1e-12

    def test_monotone_decrease(self):
        values = [cosine_lr(0.1, t, 100) for t in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSGD:
    def test_weight_decay_closed_form(self):
        """With zero gradient, one step shrinks the weight by lr * wd."""
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = SGD([p], momentum=0.0, weight_decay=0.01)
        opt.step(lr=0.5)
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.5 * 0.01)], atol=1e-15)

    def test_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], momentum=0.5, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step(lr=1.0)  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step(lr=1.0)  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5], atol=1e-15)


class TestTrainLoop:
    def _tiny_run(self, tmp_path=None, **overrides):
        ds = make_blobs(train_per_class=12, val_per_class=4, seed=2)
        model = build_model(named_spec("san-tiny"), seed=2)
        cfg = TrainConfig(epochs=overrides.pop("epochs", 1), batch_size=32, seed=2,
                          **overrides)
        run_dir = str(tmp_path) if tmp_path is not None else None
        return model, train(model, ds, cfg, run_dir=run_dir), ds

    def test_zero_lr_leaves_parameters_bit_identical(self):
        ds = make_blobs(train_per_class=8, val_per_class=2, seed=3)
        model = build_model(named_spec("san-tiny"), seed=3)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(model, ds, TrainConfig(epochs=1, base_lr=0.0, batch_size=16, seed=3))
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name]), name

    def test_metrics_csv_has_one_row_per_epoch(self, tmp_path):
        _, report, _ = self._tiny_run(tmp_path, epochs=2)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_top1,val_top5"
        assert len(lines) == 3
        assert len(report.history) == 2
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "config.json").exists()

    def test_top5_bounds_top1(self):
        _, report, ds = self._tiny_run()
        model = build_model(named_spec("san-tiny"), seed=9)
        metrics = evaluate(model, ds)
        assert metrics["top5"] >= metrics["top1"]
        for row in report.history:
            assert row["val_top5"] >= row["val_top1"]

    def test_full_run_determinism(self):
        _, first, _ = self._tiny_run()
        _, second, _ = self._tiny_run()
        assert first.history == second.history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostic(self):
        ds = make_blobs(train_per_class=8, val_per_class=2, seed=4)
        model = build_model(named_spec("san-tiny"), seed=4)
        model.stem.linear.w.data[...] = 1e38  # overflow on the first batch
        with pytest.raises(TrainingDiverged, match="batch 0"):
            train(model, ds, TrainConfig(epochs=1, batch_size=16, seed=4))


class TestTopK:
    def test_top_k_counts_membership(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.9, 0.1, 0.0]])
        labels = np.array([1, 2])
        assert top_k_accuracy(logits, labels, 1) == 0.5
        assert top_k_accuracy(logits, labels, 3) == 1.0
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(50, 10))
        labels = rng.integers(0, 10, 50)
        for k in (1, 5, 10):
            top = np.argsort(-logits, axis=1)[:, :k]
            loop = np.mean([labels[i] in top[i] for i in range(len(labels))])
            assert top_k_accuracy(logits, labels, k) == loop
