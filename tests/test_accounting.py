"""Capacity accounting: published parameter/MAC budgets and the exact
symbolic-vs-runtime cross-check."""

import dataclasses
from itertools import product

import numpy as np
import pytest

from sanet.accounting import cost_report, verify_against_runtime
from sanet.blocks import Bottleneck
from sanet.models import ModelSpec, StageSpec, build_model, named_spec
from sanet.tensor import Tensor, no_grad


def params_m(spec) -> float:
    return cost_report(spec).params / 1e6


def macs_g(spec, hw=None) -> float:
    return cost_report(spec, input_hw=hw).macs / 1e9


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
        counts = {cost_report(named_spec("san10", footprint=k)).params
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

    @pytest.mark.parametrize("name,family,relation,params,macs", [
        ("san10", "scalar", "dot", 10_474_008, 1_557_485_184),
        ("san10", "patchwise", "star_product", 10_926_756, 1_641_357_504),
        ("san10", "patchwise", "clique_product", 11_472_708, 2_205_385_920),
        ("san-tiny", "scalar", "dot", 12_034, 1_832_576),
        ("san-tiny", "patchwise", "star_product", 21_478, 2_912_896),
        ("san-tiny", "patchwise", "clique_product", 36_166, 7_189_120),
    ])
    def test_slot_score_relations_are_pinned(self, name, family, relation, params, macs):
        """Scalar and star-product attention score ``K * d`` MACs per location,
        clique product ``K**2 * d``; scalar has no perceptron."""
        report = cost_report(named_spec(name, family=family, relation=relation))
        assert (report.params, report.macs) == (params, macs)

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
        counts = [cost_report(named_spec("san10", family="patchwise", footprint=k)).params
                  for k in (3, 5, 7, 9, 11)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_params_independent_of_input_size(self):
        spec = named_spec("san10")
        assert cost_report(spec, 224).params == cost_report(spec, 448).params

    def test_macs_scale_quadratically_for_stride1_stages(self):
        """Doubling the input side quadruples every block's MACs."""
        spec = named_spec("san-tiny")
        small = {b.name: b.macs for b in cost_report(spec, 32).breakdown}
        large = {b.name: b.macs for b in cost_report(spec, 64).breakdown}
        for name, macs in small.items():
            if "block" in name or name == "stem":
                assert large[name] == 4 * macs

    def test_resnet_macs_count_the_extents_the_units_run_at(self):
        """At ``input_hw`` 40 the padded stride-2 layers round 5 up to 3 and
        3 up to 2; each unit's MACs follow the extents a built resnet26
        actually produces, read from its units one by one."""
        spec = dataclasses.replace(named_spec("resnet26"), input_hw=40)
        counted = {b.name: b.macs for b in cost_report(spec).breakdown}
        model = build_model(spec).eval()
        h = Tensor(np.zeros((1, 3, 40, 40), np.float32))
        extents = []
        with no_grad():
            for name, unit in model.units:
                if name == "stem":
                    side = unit.conv(h).shape[2]
                    assert counted[name] == 3 * 64 * 49 * side * side
                s_in = h.shape[2] * h.shape[3]
                h = unit(h)
                if isinstance(unit, Bottleneck):
                    s_out = h.shape[2] * h.shape[3]
                    extents.append(h.shape[2])
                    width, c_in = unit.conv1.kernel.shape[:2]
                    want = s_in * c_in * width + s_out * (9 * width * width + width * unit.c_out)
                    if unit.proj is not None:
                        want += s_out * c_in * unit.c_out
                    assert counted[name] == want, name
        assert extents == [10, 5, 5, 3, 3, 3, 3, 2]

    def test_breakdown_totals_are_consistent(self):
        report = cost_report(named_spec("san19"))
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
