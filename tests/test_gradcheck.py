"""The gradient-check harness itself: sweep composition, error metric, and
its ability to catch a wrong gradient."""

import json

import numpy as np

import sanet.tensor as T
from sanet.cli import main
from sanet.gradcheck import plan_sweep, relative_error, sweep_cases


class TestSweepComposition:
    def test_full_sweep_covers_every_operator(self):
        names = [name for name, _, _ in sweep_cases()]
        pairwise = [n for n in names if n.startswith("pairwise/")]
        assert len(pairwise) == 15  # 5 relations x 3 position modes
        assert sum(n.startswith("patchwise/") for n in names) == 3
        assert sum(n.startswith("scalar/") for n in names) == 2
        assert "conv/3x3" in names
        assert sum(n.startswith("block/") for n in names) == 2

    def test_filters_select_single_cases(self):
        only = sweep_cases(kind="patchwise", relation="clique_product")
        assert [name for name, _, _ in only] == ["patchwise/clique_product"]
        only = sweep_cases(kind="pairwise", relation="dot", position="absolute")
        assert [name for name, _, _ in only] == ["pairwise/dot/absolute"]
        # a relation filter drops the cases that have no relation
        only = sweep_cases(relation="dot")
        assert [name for name, _, _ in only] == [f"pairwise/dot/{p}"
                                                 for p in ("none", "absolute", "relative")]
        # a position filter narrows only pairwise cases
        assert len(sweep_cases(kind="patchwise", position="none")) == 3


class TestRelativeError:
    def test_zero_for_identical(self):
        g = np.array([1.0, -2.0, 3.0])
        assert relative_error(g, g.copy()) == 0.0

    def test_scales_by_magnitude(self):
        a = np.array([1000.0])
        b = np.array([1000.1])
        assert abs(relative_error(a, b) - 0.1 / 1000.1) < 1e-12


def _sabotage(monkeypatch, primitive, corrupt):
    """Pass every gradient that ``primitive``'s backward returns through ``corrupt``."""
    true_fn = getattr(T, primitive)

    def sabotaged(*args, **kwargs):
        out = true_fn(*args, **kwargs)
        if out._backward is not None:
            original = out._backward
            out._backward = lambda g: tuple(
                None if gr is None else corrupt(gr) for gr in original(g)
            )
        return out

    monkeypatch.setattr(T, primitive, sabotaged)


SUBTRACTION = {"kind": "pairwise", "relation": "subtraction", "position": "none"}


class TestDetection:
    def test_wrong_sign_gradient_is_detected(self, monkeypatch):
        """Flipping one primitive's backward must fail the sweep."""
        _sabotage(monkeypatch, "slot_aggregate", lambda gr: -gr)
        results = [check() for check in plan_sweep(**SUBTRACTION)]
        assert any(not r["passed"] for r in results)

    def test_nan_gradient_fails_the_case_and_the_command(self, monkeypatch, tmp_path):
        """A NaN error is the worst error, never one that max() skips."""
        _sabotage(monkeypatch, "slot_aggregate", lambda gr: np.full_like(gr, np.nan))
        [result] = [check() for check in plan_sweep(**SUBTRACTION)]
        assert not result["passed"] and np.isnan(result["max_rel_error"])
        out = tmp_path / "g"
        assert main(["gradcheck", "--kind", "pairwise", "--relation", "subtraction",
                     "--position-mode", "none", "--out", str(out)]) == 1
        assert json.loads((out / "gradcheck.json").read_text())["passed"] is False

    def test_honest_gradients_pass_the_same_case(self):
        results = [check() for check in plan_sweep(**SUBTRACTION)]
        assert all(r["passed"] for r in results)
