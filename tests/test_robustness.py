"""Manipulation exactness and PGD attack contracts."""

import numpy as np
import pytest

from sanet.data import make_blobs
from sanet.models import build_model, named_spec
from sanet.robustness import (
    MANIPULATIONS,
    AttackConfig,
    attack_report,
    choose_targets,
    format_manipulation_table,
    manipulate,
    manipulation_report,
    pgd_attack,
)
from sanet.tensor import DimensionError


class TestManipulations:
    def test_quarter_turn_four_times_is_identity(self):
        img = np.random.default_rng(0).integers(0, 256, (2, 3, 8, 8), dtype=np.uint8)
        out = img
        for _ in range(4):
            out = manipulate(out, "cw90")
        np.testing.assert_array_equal(out, img)

    def test_half_turn_composition(self):
        """Upside-down flip then horizontal flip equals a 180 degree turn."""
        img = np.random.default_rng(1).integers(0, 256, (3, 6, 6), dtype=np.uint8)
        composed = np.ascontiguousarray(manipulate(img, "upside_down_flip")[..., ::-1])
        np.testing.assert_array_equal(manipulate(img, "cw180"), composed)

    def test_two_by_two_enumeration(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])  # [a, b; c, d]
        np.testing.assert_array_equal(manipulate(grid, "cw90"),
                                      np.array([[3.0, 1.0], [4.0, 2.0]]))

    def test_pixel_multiset_preserved(self):
        img = np.random.default_rng(2).integers(0, 256, (3, 5, 5), dtype=np.uint8)
        for kind in MANIPULATIONS:
            moved = manipulate(img, kind)
            np.testing.assert_array_equal(np.sort(moved.ravel()), np.sort(img.ravel()))

    def test_rotation_requires_square(self):
        with pytest.raises(DimensionError):
            manipulate(np.zeros((3, 4, 6)), "cw90")
        manipulate(np.zeros((3, 4, 6)), "upside_down_flip")  # flips are fine

    def test_inverse_pairs(self):
        img = np.random.default_rng(3).integers(0, 256, (3, 7, 7), dtype=np.uint8)
        np.testing.assert_array_equal(manipulate(manipulate(img, "cw90"), "cw270"), img)
        np.testing.assert_array_equal(manipulate(manipulate(img, "cw180"), "cw180"), img)


class TestTargets:
    def test_targets_never_equal_labels(self):
        labels = np.random.default_rng(4).integers(0, 10, 200)
        targets = choose_targets(labels, 10, seed=0)
        assert np.all(targets != labels)
        assert targets.min() >= 0 and targets.max() < 10

    def test_targets_deterministic_per_image(self):
        labels = np.arange(10)
        a = choose_targets(labels, 10, seed=5)
        b = choose_targets(labels, 10, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, choose_targets(labels, 10, seed=6))


@pytest.fixture(scope="module")
def setup():
    ds = make_blobs(train_per_class=6, val_per_class=4, seed=5)
    model = build_model(named_spec("san-tiny"), seed=5)
    model.eval()
    return model, ds


class TestPgd:

    def test_zero_iterations_returns_clean_image(self, setup):
        model, ds = setup
        images, labels = ds.val_images[:8], ds.val_labels[:8]
        out = pgd_attack(model, images, labels, ds, AttackConfig(iters=0))
        np.testing.assert_array_equal(out["adv_images"], images.astype(np.float32))

    def test_zero_epsilon_means_zero_perturbation(self, setup):
        model, ds = setup
        images, labels = ds.val_images[:8], ds.val_labels[:8]
        out = pgd_attack(model, images, labels, ds, AttackConfig(eps=0.0, step=4.0, iters=3))
        assert out["linf"] == 0.0

    def test_ball_constraint_holds(self, setup):
        model, ds = setup
        images, labels = ds.val_images[:8], ds.val_labels[:8]
        out = pgd_attack(model, images, labels, ds, AttackConfig(eps=8.0, step=4.0, iters=3))
        assert out["linf"] <= 8.0 + 1e-3
        assert out["adv_images"].min() >= 0.0 and out["adv_images"].max() <= 255.0

    def test_ball_escape_raises(self, setup, monkeypatch):
        """The ball check is an exception, not an assert that ``python -O`` drops."""
        model, ds = setup
        images, labels = ds.val_images[:4], ds.val_labels[:4]
        monkeypatch.setattr(np, "clip", lambda a, lo, hi: a)  # bypass the projection
        with pytest.raises(RuntimeError, match="L-inf ball"):
            pgd_attack(model, images, labels, ds, AttackConfig(eps=1.0, step=4.0, iters=1))

    def test_targets_must_differ_from_labels(self, setup):
        model, ds = setup
        images, labels = ds.val_images[:4], ds.val_labels[:4]
        from sanet.tensor import UsageError
        with pytest.raises(UsageError):
            pgd_attack(model, images, labels, ds, AttackConfig(iters=1), targets=labels)

    def test_constant_model_never_fooled_toward_other_classes(self, setup):
        """A model that always answers class 0 cannot be driven elsewhere."""
        _, ds = setup
        model = build_model(named_spec("san-tiny"), seed=6)
        model.classifier.linear.w.data[...] = 0.0
        model.classifier.linear.b.data[...] = 0.0
        model.eval()
        images = ds.val_images[:8]
        labels = np.zeros(8, dtype=np.int64)
        targets = np.full(8, 3, dtype=np.int64)
        out = pgd_attack(model, images, labels, ds, AttackConfig(eps=8, step=4, iters=3),
                         targets=targets)
        assert not out["success"].any()


class TestReports:
    def test_untrained_model_sits_at_chance(self):
        ds = make_blobs(train_per_class=5, val_per_class=20, seed=7)  # 200 val images
        model = build_model(named_spec("san-tiny"), seed=7)
        model.eval()
        rows = manipulation_report(model, ds)
        assert [r["manipulation"] for r in rows] == list(MANIPULATIONS)
        for row in rows:
            assert 0.0 <= row["top1"] <= 0.35  # 10-class chance is 0.10

    def test_clean_row_has_zero_drop(self):
        ds = make_blobs(train_per_class=5, val_per_class=5, seed=8)
        model = build_model(named_spec("san-tiny"), seed=8)
        model.eval()
        rows = manipulation_report(model, ds, manipulations=("none", "cw180"))
        assert rows[0]["manipulation"] == "none"
        assert rows[0]["drop1"] == 0.0 and rows[0]["drop5"] == 0.0

    def test_table_formatting_contains_drops(self):
        rows = [{"manipulation": "none", "top1": 1.0, "top5": 1.0, "drop1": 0.0, "drop5": 0.0},
                {"manipulation": "cw90", "top1": 0.5, "top5": 0.9, "drop1": 0.5, "drop5": 0.1}]
        table = format_manipulation_table(rows)
        assert "50.0 (50.0)" in table

    def test_attack_report_fields(self):
        ds = make_blobs(train_per_class=5, val_per_class=5, seed=9)
        model = build_model(named_spec("san-tiny"), seed=9)
        model.eval()
        report = attack_report(model, ds, AttackConfig(eps=4, step=2, iters=1), count=10)
        assert report["count"] == 10
        assert 0.0 <= report["success_rate"] <= 1.0
        assert report["linf"] <= 4.0 + 1e-3


class TestTrainedModelBehavior:
    def test_attack_iterations_monotone_and_damaging(self, trained_tiny, blobs_dataset):
        """More iterations cannot hurt the attacker; accuracy drops under attack."""
        model, report = trained_tiny
        assert report.best_top1 >= 0.9
        two = attack_report(model, blobs_dataset, AttackConfig(eps=8, step=4, iters=2),
                            count=100)
        four = attack_report(model, blobs_dataset, AttackConfig(eps=8, step=2, iters=4),
                             count=100)
        assert four["success_rate"] >= two["success_rate"]
        for rep in (two, four):
            assert rep["top1_under_attack"] < rep["clean_top1"]
