"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The CIFAR-10 training criterion needs the binary
batches on disk (see README) and skips cleanly when they are absent.
"""

import os
import time

import numpy as np
import pytest

from sanet.accounting import cost_report
from sanet.attention import FAMILY_FIELDS, AttentionConfig, VectorAttention, conv2d, \
    pairwise_attention, patchwise_attention
from sanet.blocks import Bottleneck, SelfAttentionBlock
from sanet.cli import main as cli_main
from sanet.data import load_cifar10, make_blobs
from sanet.gradcheck import plan_sweep
from sanet.models import build_model, named_spec
from sanet.reference import plan_oracle_sweep
from sanet.robustness import MANIPULATIONS, AttackConfig, attack_report, manipulate
from sanet.tensor import Tensor, no_grad
from sanet.training import TrainConfig, train


def report(cid: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {cid}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def within(value, target, tol) -> bool:
    return abs(value - target) <= tol * target


def cifar_root():
    root = os.environ.get("SANET_DATA_ROOT")
    candidates = []
    if root:
        candidates += [root, os.path.join(root, "cifar-10-batches-bin")]
    candidates.append(os.path.join("data", "cifar-10-batches-bin"))
    for c in candidates:
        if os.path.exists(os.path.join(c, "data_batch_1.bin")):
            return c
    return None


class TestCriterion1Parameters:
    def test_parameter_reproduction(self):
        t0 = time.perf_counter()
        checks = []
        for name, target in [("san10", 10.5e6), ("san15", 14.1e6), ("san19", 17.6e6)]:
            checks.append(within(cost_report(named_spec(name)).params, target, 0.02))
        for name, target in [("san10", 11.8e6), ("san15", 16.2e6), ("san19", 20.5e6)]:
            checks.append(within(
                cost_report(named_spec(name, family="patchwise")).params, target, 0.02))
        for name, target in [("resnet26", 13.7e6), ("resnet38", 19.6e6),
                             ("resnet50", 25.6e6)]:
            checks.append(within(cost_report(named_spec(name)).params, target, 0.02))
        pairwise_by_k = [cost_report(named_spec("san10", footprint=k)).params
                         for k in (3, 5, 7, 9, 11)]
        checks.append(len(set(pairwise_by_k)) == 1)
        for k, target in [(3, 10.7e6), (5, 11.2e6), (7, 11.8e6), (9, 12.7e6),
                          (11, 13.8e6)]:
            checks.append(within(
                cost_report(named_spec("san10", family="patchwise", footprint=k)).params,
                target, 0.02))
        checks.append(within(
            cost_report(named_spec("san10", family="patchwise", mlp_depth=1)).params,
            53.5e6, 0.05))
        checks.append(within(
            cost_report(named_spec("san10", relation="concatenation")).params,
            10.6e6, 0.02))
        checks.append(within(
            cost_report(named_spec("san10", relation="dot")).params, 10.5e6, 0.02))
        elapsed = time.perf_counter() - t0
        report("1 (parameter budgets)", all(checks) and elapsed < 1.0,
               f"{sum(checks)}/{len(checks)} figures within tolerance, {elapsed:.2f}s")


class TestCriterion2Macs:
    def test_mac_reproduction(self):
        t0 = time.perf_counter()
        checks = [
            within(cost_report(named_spec("resnet26")).macs, 2.4e9, 0.10),
            within(cost_report(named_spec("resnet50")).macs, 4.1e9, 0.10),
            within(cost_report(named_spec("san10")).macs, 2.2e9, 0.10),
            within(cost_report(named_spec("san10", family="patchwise")).macs, 1.9e9, 0.10),
        ]
        for k, target in [(3, 1.7e9), (5, 1.9e9), (7, 2.2e9), (9, 2.5e9), (11, 3.0e9)]:
            checks.append(within(cost_report(named_spec("san10", footprint=k)).macs,
                                 target, 0.10))
        for depth, target in [(1, 9.5e9), (2, 1.9e9), (3, 2.0e9)]:
            checks.append(within(
                cost_report(named_spec("san10", family="patchwise", mlp_depth=depth)).macs,
                target, 0.10))
        elapsed = time.perf_counter() - t0
        report("2 (MAC budgets)", all(checks) and elapsed < 1.0,
               f"{sum(checks)}/{len(checks)} figures within tolerance, {elapsed:.2f}s")


class TestCriterion3Gradients:
    def test_gradient_suite(self):
        t0 = time.perf_counter()
        results = [check() for check in plan_sweep(tol=1e-4)]
        elapsed = time.perf_counter() - t0
        worst = max(results, key=lambda r: r["max_rel_error"])
        report("3 (gradient suite)",
               all(r["passed"] for r in results) and len(results) == 23 and elapsed < 300,
               f"{len(results)} cases, worst {worst['name']} at {worst['max_rel_error']:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion4Oracles:
    def test_oracle_suite(self):
        t0 = time.perf_counter()
        results = [compare() for compare in plan_oracle_sweep(cases=20, tol=1e-10, seed=0)]
        elapsed = time.perf_counter() - t0
        worst = max(results, key=lambda r: r["max_abs_diff"])
        report("4 (naive-loop oracles)",
               all(r["passed"] for r in results) and elapsed < 120,
               f"{len(results)} operator sweeps x 20 cases, worst "
               f"{worst['max_abs_diff']:.2e}, {elapsed:.1f}s")


class TestCriterion5Structure:
    def _params(self, family, relation, share=2, seed=0, **kw):
        if "share" in FAMILY_FIELDS[family]:
            kw["share"] = share
        cfg = AttentionConfig(family=family, relation=relation, footprint=3, r1=4, r2=2, **kw)
        return VectorAttention(16, cfg, np.random.default_rng(seed), dtype=np.float64)

    def test_structural_properties(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(1, 16, 5, 5)))

        # (a) pairwise slot-permutation invariance, double precision
        params = self._params("pairwise", "subtraction", position="relative")
        with no_grad():
            base = pairwise_attention(x, params).data
            perm = pairwise_attention(x, params, slot_order=rng.permutation(9)).data
        inv_ok = np.max(np.abs(base - perm)) <= 1e-12

        # (b) patchwise reproduces a convolution built from its own weights
        patch = self._params("patchwise", "concatenation", share=8, seed=1)
        for layer in patch.mlp:
            layer.w.data[...] = 0.0
            layer.b.data[...] = 0.0
        slot_w = rng.normal(size=9)
        patch.mlp[-1].b.data[...] = slot_w
        kernel = np.einsum("s,oc->ocs", slot_w, patch.w_value.data).reshape(8, 16, 3, 3)
        with no_grad():
            conv_ok = np.max(np.abs(patchwise_attention(x, patch).data
                                    - conv2d(x, Tensor(kernel)).data)) <= 1e-6

        # (c) scalar attention is pairwise dot with a scalar broadcast head
        scalar = self._params("scalar", "dot", seed=2)
        pair = self._params("pairwise", "dot", seed=2, mlp_depth=1, position="none")
        for name in ("w_query", "b_query", "w_key", "b_key", "w_value"):
            getattr(pair, name).data[...] = getattr(scalar, name).data
        pair.mlp[0].w.data[...] = 1.0
        pair.mlp[0].b.data[...] = 0.0
        with no_grad():
            scalar_ok = np.max(np.abs(patchwise_attention(x, scalar).data
                                      - pairwise_attention(x, pair).data)) <= 1e-12

        # (d) zeroed expansion makes residual blocks the identity, bit-exact
        sab = SelfAttentionBlock(16, AttentionConfig(
            family="pairwise", relation="subtraction", footprint=3, r1=4, r2=2,
            share=2), np.random.default_rng(3), dtype=np.float64)
        bott = Bottleneck(16, 4, rng=np.random.default_rng(4), dtype=np.float64)
        with no_grad():
            id_ok = (np.array_equal(sab(x).data, x.data)
                     and np.array_equal(bott(x).data, x.data))

        report("5 (structural properties)",
               inv_ok and conv_ok and scalar_ok and id_ok,
               f"permutation={inv_ok} conv-subsumption={conv_ok} "
               f"scalar-equivalence={scalar_ok} residual-identity={id_ok}")


class TestCriterion6Training:
    def test_blobs_fast_gate(self):
        """Synthetic separable data: above 90 percent inside two minutes."""
        t0 = time.perf_counter()
        ds = make_blobs(train_per_class=60, val_per_class=20, seed=21)
        model = build_model(named_spec("san-tiny"), seed=21)
        result = train(model, ds, TrainConfig(epochs=5, batch_size=64, seed=21))
        elapsed = time.perf_counter() - t0
        report("6 (synthetic-blobs gate)",
               result.best_top1 > 0.90 and elapsed < 120,
               f"top-1 {result.best_top1:.3f} in {elapsed:.0f}s")

    def test_zero_lr_is_a_no_op(self):
        ds = make_blobs(train_per_class=8, val_per_class=2, seed=22)
        model = build_model(named_spec("san-tiny"), seed=22)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(model, ds, TrainConfig(epochs=1, base_lr=0.0, batch_size=16, seed=22))
        same = all(np.array_equal(p.data, before[n])
                   for n, p in model.named_parameters())
        report("6 (zero-lr no-op)", same, "parameters bit-identical")

    @pytest.mark.skipif(cifar_root() is None,
                        reason="CIFAR-10 binary batches not present "
                               "(set SANET_DATA_ROOT); see README")
    def test_cifar_subset_beats_chance_by_margin(self):
        t0 = time.perf_counter()
        ds = load_cifar10(cifar_root(), limit=5000, seed=23)
        model = build_model(named_spec("san-tiny"), seed=23)
        result = train(model, ds, TrainConfig(epochs=20, batch_size=64, seed=23))
        elapsed = time.perf_counter() - t0
        report("6 (CIFAR-10 subset)",
               result.best_top1 > 0.40 and elapsed < 1800,
               f"top-1 {result.best_top1:.3f} in {elapsed / 60:.1f} min")


class TestCriterion7Robustness:
    def test_manipulations_are_exact_permutations(self):
        img = np.random.default_rng(30).integers(0, 256, (3, 9, 9), dtype=np.uint8)
        out = img
        for _ in range(4):
            out = manipulate(out, "cw90")
        exact = np.array_equal(out, img)
        multiset = all(
            np.array_equal(np.sort(manipulate(img, m).ravel()), np.sort(img.ravel()))
            for m in MANIPULATIONS
        )
        report("7 (manipulation exactness)", exact and multiset,
               "cw90^4 identity bit-exact, pixel multisets preserved")

    def test_attack_contracts_on_trained_model(self, trained_tiny, blobs_dataset):
        model, train_report = trained_tiny
        two = attack_report(model, blobs_dataset,
                            AttackConfig(eps=8, step=4, iters=2, seed=7, count=500))
        four = attack_report(model, blobs_dataset,
                             AttackConfig(eps=8, step=2, iters=4, seed=7, count=500))
        monotone = four["success_rate"] >= two["success_rate"]
        damaging = (two["top1_under_attack"] < two["clean_top1"]
                    and four["top1_under_attack"] < four["clean_top1"])
        bounded = two["linf"] <= 8 + 1e-3 and four["linf"] <= 8 + 1e-3
        report("7 (PGD harness)", monotone and damaging and bounded,
               f"success n=2 {two['success_rate']:.3f} <= n=4 {four['success_rate']:.3f}, "
               f"top-1 under attack {four['top1_under_attack']:.3f} < clean "
               f"{four['clean_top1']:.3f}, ball respected")


class TestCriterion8Determinism:
    def _snapshot(self, out):
        files = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".json"):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
        return files

    def test_cli_reruns_are_identical(self, tmp_path):
        jobs = [
            ["count", "--model", "san10", "--attention", "patchwise",
             "--out", str(tmp_path / "count")],
            ["oracle", "--kind", "pairwise", "--relation", "dot", "--cases", "3",
             "--seed", "5", "--out", str(tmp_path / "oracle")],
            ["gradcheck", "--kind", "scalar", "--out", str(tmp_path / "gc")],
        ]
        identical = True
        for args in jobs:
            assert cli_main(args) == 0
            first = self._snapshot(args[-1])
            assert cli_main(args) == 0
            identical = identical and self._snapshot(args[-1]) == first
        report("8 (CLI determinism)", identical,
               f"{len(jobs)} commands rerun byte-identically")
