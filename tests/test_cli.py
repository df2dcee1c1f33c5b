"""Command-line contracts: outputs, exit codes, filters, determinism."""

import json
import os

import pytest

from sanet.cli import main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def snapshot(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".json", ".csv", ".txt")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files


class TestCount:
    def test_san19_pairwise_subtraction(self, tmp_path):
        out = tmp_path / "c"
        assert main(["count", "--model", "san19", "--attention", "pairwise",
                     "--relation", "subtraction", "--out", str(out)]) == 0
        cost = read_json(out / "cost.json")
        assert abs(cost["params"] - 17.6e6) <= 0.02 * 17.6e6
        assert cost["macs"] > 0
        assert (out / "cost.txt").exists()
        assert read_json(out / "manifest.json")["command"] == "count"

    def test_pairwise_footprint_invariance_through_cli(self, tmp_path):
        params = []
        for k in ("3", "11"):
            out = tmp_path / f"fp{k}"
            assert main(["count", "--model", "san10", "--attention", "pairwise",
                         "--footprint", k, "--out", str(out)]) == 0
            params.append(read_json(out / "cost.json")["params"])
        assert params[0] == params[1]

    def test_unknown_model_exits_2(self, tmp_path):
        assert main(["count", "--model", "van10", "--out", str(tmp_path / "x")]) == 2

    def test_zero_reduction_factor_exits_2(self, tmp_path):
        assert main(["count", "--model", "san-tiny", "--r1", "0",
                     "--out", str(tmp_path / "x")]) == 2

    def test_runtime_verification_flag(self, tmp_path):
        out = tmp_path / "v"
        assert main(["count", "--model", "san-tiny", "--verify-runtime",
                     "--out", str(out)]) == 0
        assert read_json(out / "cost.json")["runtime_check"]["matches"]

    def test_rerun_reproduces_identical_files(self, tmp_path):
        out = tmp_path / "d"
        args = ["count", "--model", "san10", "--out", str(out)]
        assert main(args) == 0
        first = snapshot(out)
        assert main(args) == 0
        assert snapshot(out) == first


class TestGradcheckCommand:
    def test_single_case_filter(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gradcheck", "--kind", "patchwise", "--relation",
                     "clique_product", "--out", str(out)]) == 0
        payload = read_json(out / "gradcheck.json")
        assert [c["name"] for c in payload["cases"]] == ["patchwise/clique_product"]
        assert payload["passed"]

    def test_empty_filter_is_config_error(self, tmp_path):
        assert main(["gradcheck", "--kind", "conv", "--relation", "subtraction",
                     "--out", str(tmp_path / "g2")]) == 2


class TestOracleCommand:
    def test_filtered_run_and_determinism(self, tmp_path):
        out = tmp_path / "o"
        args = ["oracle", "--kind", "conv", "--cases", "3", "--out", str(out)]
        assert main(args) == 0
        first = snapshot(out)
        assert main(args) == 0
        assert snapshot(out) == first
        payload = read_json(out / "oracle.json")
        assert payload["passed"] and payload["cases"][0]["name"] == "conv"

    def test_zero_cases_is_config_error(self, tmp_path):
        assert main(["oracle", "--kind", "conv", "--cases", "0",
                     "--out", str(tmp_path / "o")]) == 2


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--model", "san-tiny", "--data", "blobs", "--limit", "200",
                 "--epochs", "2", "--batch-size", "32", "--out", str(out),
                 "--seed", "3"])
    assert code == 0
    return out


class TestTrainCommand:
    def test_run_directory_contents(self, train_run):
        lines = (train_run / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per epoch
        for name in ("config.json", "manifest.json", "report.json",
                     "best.ckpt", "last.ckpt"):
            assert (train_run / name).exists()

    def test_manifest_records_resolved_config(self, train_run):
        manifest = read_json(train_run / "manifest.json")
        assert manifest["config"]["train"]["epochs"] == 2
        assert manifest["config"]["spec"]["name"] == "san-tiny"

    def test_zero_batch_size_exits_2(self, tmp_path):
        assert main(["train", "--model", "san-tiny", "--limit", "20", "--epochs", "1",
                     "--batch-size", "0", "--out", str(tmp_path / "t")]) == 2


class TestEvalRobustAttack:
    def test_eval_checkpoint(self, train_run, tmp_path):
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(train_run / "best.ckpt"),
                     "--data", "blobs", "--limit", "200", "--seed", "3",
                     "--out", str(out)]) == 0
        metrics = read_json(out / "eval.json")
        assert metrics["top5"] >= metrics["top1"] >= 0.0

    def test_eval_without_checkpoint_exits_2(self, tmp_path):
        assert main(["eval", "--data", "blobs", "--out", str(tmp_path / "e2")]) == 2

    def test_robust_single_manipulation(self, train_run, tmp_path):
        out = tmp_path / "r"
        assert main(["robust", "--checkpoint", str(train_run / "best.ckpt"),
                     "--data", "blobs", "--limit", "200", "--seed", "3",
                     "--manipulation", "cw180", "--out", str(out)]) == 0
        rows = read_json(out / "robust.json")["rows"]
        assert [r["manipulation"] for r in rows] == ["cw180"]
        assert (out / "robust.csv").exists() and (out / "robust.txt").exists()

    def test_attack_two_settings_emit_reports(self, train_run, tmp_path):
        reports = []
        for iters, step in (("2", "4"), ("4", "2")):
            out = tmp_path / f"a{iters}"
            assert main(["attack", "--checkpoint", str(train_run / "best.ckpt"),
                         "--data", "blobs", "--limit", "200", "--seed", "3",
                         "--eps", "8", "--step", step, "--iters", iters,
                         "--count", "40", "--out", str(out)]) == 0
            reports.append(read_json(out / "attack.json"))
        assert reports[0]["iters"] == 2 and reports[1]["iters"] == 4
        for rep in reports:
            assert 0.0 <= rep["success_rate"] <= 1.0
            assert rep["linf"] <= 8.0 + 1e-3

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        bogus = tmp_path / "bad.ckpt"
        bogus.write_bytes(b"definitely not a checkpoint")
        assert main(["eval", "--checkpoint", str(bogus), "--data", "blobs",
                     "--out", str(tmp_path / "e3")]) == 2
