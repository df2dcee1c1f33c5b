"""Checks of the benchmark itself, at the tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _main(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "0.1", "--size", "tiny", *argv])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_unit(capsys, workload):
    code, out, result = _main(capsys, "--workload", workload)
    assert code == 0
    for name, unit in run.END_TO_END + run.EXTRA_END_TO_END:
        assert re.search(rf"^{name}\s+\S+ {re.escape(unit)}\b", out, re.M), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"^error_rate\s+0\.0000 fraction", out, re.M)
    assert re.search(r"^oracle ok:", out, re.M)


@pytest.mark.parametrize("workload", ["train-tiny-pairwise", "infer-san10-pairwise"])
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    code, out, result = _main(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(layer) == [name for name, _ in run.PER_LAYER]
    assert re.search(r"^trace uncovered: .* ok$", out, re.M)
    assert re.search(r"^trace overhead: ", out, re.M)
    training_only = [n for n in layer if n.startswith(("training.", "tensor.backward."))]
    if workload == "train-tiny-pairwise":
        assert all(layer[n] > 0 for n in training_only)
        assert layer["blocks.stage2.block1.bwd_ms"] > 0
    else:
        assert not any(layer[n] for n in training_only)
        assert layer["models.predict.first_ms"] > 0
    assert layer["attention.pairwise_attention.calls"] > 0
    assert layer["tensor.slot_aggregate.fwd_ms"] > 0


@pytest.mark.parametrize("workload, primitive", [
    ("infer-san10-pairwise", "slot_aggregate"),
    ("train-tiny-pairwise", "slot_aggregate"),
    ("infer-resnet26", "unfold"),
])
def test_broken_operator_fails_the_run(capsys, monkeypatch, workload, primitive):
    fresh_import = run.import_sanet

    def import_broken():
        sn = fresh_import()
        real = getattr(sn.tensor, primitive)

        def zeros(*args, **kwargs):
            return sn.tensor.Tensor(np.zeros_like(real(*args, **kwargs).data))

        setattr(sn.tensor, primitive, zeros)
        return sn

    monkeypatch.setattr(run, "import_sanet", import_broken)
    code, out, result = _main(capsys, "--workload", workload)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    rate = float(re.search(r"^error_rate\s+(\S+)", out, re.M).group(1))
    assert rate > 0
    assert re.search(r"^oracle FAILED:", out, re.M)


def test_missing_sources_exit_nonzero_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "infer-resnet26", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
