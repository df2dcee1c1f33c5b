"""Capacity accounting: published parameter/MAC budgets and the exact
symbolic-vs-runtime cross-check."""

from itertools import product

import numpy as np
import pytest

from sanet.accounting import count_macs, count_params, verify_against_runtime
from sanet.models import ModelSpec, StageSpec, named_spec


def params_m(spec) -> float:
    return count_params(spec).params / 1e6


def macs_g(spec, hw=None) -> float:
    return count_macs(spec, input_hw=hw).macs / 1e9


def within(value, target, tol):
    assert abs(value - target) <= tol * target, f"{value} vs {target} (±{100 * tol}%)"


class TestPublishedParameterBudgets:
    """Totals published for the three network sizes, both operator families."""

    @pytest.mark.parametrize("name,target", [("san10", 10.5), ("san15", 14.1),
                                             ("san19", 17.6)])
    def test_pairwise_networks(self, name, target):
        within(params_m(named_spec(name)), target, 0.02)

    @pytest.mark.parametrize("name,target", [("san10", 11.8), ("san15", 16.2),
                                             ("san19", 20.5)])
    def test_patchwise_networks(self, name, target):
        within(params_m(named_spec(name, family="patchwise")), target, 0.02)

    @pytest.mark.parametrize("name,target", [("resnet26", 13.7), ("resnet38", 19.6),
                                             ("resnet50", 25.6)])
    def test_residual_baselines(self, name, target):
        within(params_m(named_spec(name)), target, 0.02)

    def test_pairwise_constant_across_footprints(self):
        counts = {count_params(named_spec("san10", footprint=k)).params
                  for k in (3, 5, 7, 9, 11)}
        assert len(counts) == 1

    @pytest.mark.parametrize("k,target", [(3, 10.7), (5, 11.2), (7, 11.8),
                                          (9, 12.7), (11, 13.8)])
    def test_patchwise_footprint_sweep(self, k, target):
        within(params_m(named_spec("san10", family="patchwise", footprint=k)),
               target, 0.02)

    def test_patchwise_single_linear_blowup(self):
        within(params_m(named_spec("san10", family="patchwise", mlp_depth=1)),
               53.5, 0.05)

    @pytest.mark.parametrize("depth,target", [(1, 10.5), (2, 10.5), (3, 10.6)])
    def test_pairwise_depth_sweep(self, depth, target):
        within(params_m(named_spec("san10", mlp_depth=depth)), target, 0.02)

    @pytest.mark.parametrize("relation,target", [
        ("summation", 10.5), ("subtraction", 10.5), ("concatenation", 10.6),
        ("hadamard", 10.5), ("dot", 10.5),
    ])
    def test_pairwise_relation_sweep(self, relation, target):
        within(params_m(named_spec("san10", relation=relation)), target, 0.02)


class TestPublishedMacBudgets:
    @pytest.mark.parametrize("name,target", [("resnet26", 2.4), ("resnet50", 4.1)])
    def test_residual_baselines(self, name, target):
        within(macs_g(named_spec(name)), target, 0.10)

    def test_san10_families(self):
        within(macs_g(named_spec("san10")), 2.2, 0.10)
        within(macs_g(named_spec("san10", family="patchwise")), 1.9, 0.10)

    @pytest.mark.parametrize("k,target", [(3, 1.7), (5, 1.9), (7, 2.2),
                                          (9, 2.5), (11, 3.0)])
    def test_pairwise_footprint_sweep(self, k, target):
        within(macs_g(named_spec("san10", footprint=k)), target, 0.10)

    @pytest.mark.parametrize("depth,target", [(1, 9.5), (2, 1.9), (3, 2.0)])
    def test_patchwise_depth_sweep(self, depth, target):
        within(macs_g(named_spec("san10", family="patchwise", mlp_depth=depth)),
               target, 0.10)


class TestStructuralProperties:
    def test_patchwise_params_strictly_increase_with_footprint(self):
        counts = [count_params(named_spec("san10", family="patchwise", footprint=k)).params
                  for k in (3, 5, 7, 9, 11)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_params_independent_of_input_size(self):
        spec = named_spec("san10")
        assert count_macs(spec, 224).params == count_macs(spec, 448).params

    def test_macs_scale_quadratically_for_stride1_stages(self):
        """Doubling the input side quadruples every block's MACs."""
        spec = named_spec("san-tiny")
        small = {b.name: b.macs for b in count_macs(spec, 32).breakdown}
        large = {b.name: b.macs for b in count_macs(spec, 64).breakdown}
        for name, macs in small.items():
            if "block" in name or name == "stem":
                assert large[name] == 4 * macs

    def test_zero_block_model_is_stem_plus_classifier(self):
        spec = ModelSpec(name="degenerate", arch="san",
                         stages=(StageSpec(16, 0, 3),), stem_channels=16,
                         classes=10, input_hw=32,
                         attention=named_spec("san-tiny").attention,
                         first_transition=False)
        report = count_macs(spec)
        assert report.macs == 3 * 16 * 32 * 32 + 16 * 10
        assert [b.name for b in report.breakdown] == ["stem", "classifier"]

    def test_breakdown_totals_are_consistent(self):
        report = count_params(named_spec("san19"))
        assert report.params == sum(b.params for b in report.breakdown)


class TestRuntimeCrossCheck:
    @pytest.mark.parametrize("kwargs", [
        dict(name="san-tiny"),
        dict(name="san-tiny", family="patchwise", relation="concatenation"),
        dict(name="san-tiny", family="scalar", relation="dot"),
        dict(name="resnet26"),
    ])
    def test_exact_match_small_models(self, kwargs):
        report = verify_against_runtime(named_spec(**kwargs))
        assert report["matches"], report["mismatches"]

    def test_exact_match_san19(self):
        report = verify_against_runtime(named_spec("san19"))
        assert report["matches"], report["mismatches"]
        assert report["symbolic_params"] == report["runtime_params"]

    def test_mismatch_reports_offending_layer(self, monkeypatch):
        import sanet.accounting as accounting

        spec = named_spec("san-tiny")
        honest = accounting.cost_report(spec)
        honest.breakdown[0].params += 7  # corrupt the stem entry

        monkeypatch.setattr(accounting, "cost_report", lambda _spec: honest)
        report = accounting.verify_against_runtime(spec)
        assert not report["matches"]
        assert report["mismatches"][0]["layer"] == "stem"


class TestStageCountDerivation:
    """The two smaller residual baselines are pinned by capacity: search the
    per-stage block counts (each stage keeps at least one block, bounded by
    the largest layout) for the published totals."""

    def _search(self, total_blocks, target_m):
        caps = (3, 4, 6, 3)
        hits = []
        for combo in product(*(range(1, c + 1) for c in caps)):
            if sum(combo) != total_blocks:
                continue
            spec = ModelSpec(
                name="probe", arch="resnet",
                stages=tuple(StageSpec(w, b, 3) for w, b in zip((64, 128, 256, 512), combo)),
                stem_channels=64,
            )
            value = params_m(spec)
            if abs(value - target_m) <= 0.02 * target_m:
                hits.append((abs(value - target_m), combo))
        return sorted(hits)

    def test_resnet26_layout(self):
        hits = self._search(8, 13.7)
        assert hits and hits[0][1] == (1, 2, 4, 1)

    def test_resnet38_layout(self):
        hits = self._search(12, 19.6)
        assert hits and hits[0][1] == (2, 3, 5, 2)
