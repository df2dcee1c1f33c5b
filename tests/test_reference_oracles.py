"""Vectorized operators against the naive per-pixel, per-slot loops."""

import numpy as np

from sanet.attention import VectorAttention
from sanet.reference import plan_oracle_sweep
from sanet.tensor import Tensor


class TestOracleSweep:
    def test_all_families_agree_on_random_cases(self):
        results = [compare() for compare in plan_oracle_sweep(cases=6, tol=1e-10, seed=0)]
        names = {r["name"] for r in results}
        assert {"pairwise/subtraction", "patchwise/concatenation",
                "scalar/dot", "conv"} <= names
        for r in results:
            assert r["passed"], f"{r['name']} differed by {r['max_abs_diff']:.2e}"

    def test_filter_narrows_to_one_relation(self):
        [compare] = plan_oracle_sweep(kind="pairwise", relation="hadamard", cases=3, seed=1)
        results = [compare()]
        assert [r["name"] for r in results] == ["pairwise/hadamard"]
        assert results[0]["passed"]

    def test_sweep_is_deterministic(self):
        a, b = ([compare() for compare in plan_oracle_sweep(cases=3, seed=2)] for _ in range(2))
        assert a == b

    def test_nan_output_fails_the_case(self, monkeypatch):
        """An operator that outputs NaN disagrees with its loop by NaN, which
        must fail the case instead of folding away to a zero difference."""
        real_forward = VectorAttention.forward
        monkeypatch.setattr(VectorAttention, "forward",
                            lambda self, x: Tensor(np.full_like(real_forward(self, x).data,
                                                                np.nan)))
        [compare] = plan_oracle_sweep(kind="pairwise", relation="subtraction", cases=2)
        result = compare()
        assert not result["passed"] and np.isnan(result["max_abs_diff"])
