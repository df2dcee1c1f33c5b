"""Command-line contracts: outputs, exit codes, filters, determinism."""

import dataclasses
import inspect
import json
import os
import struct
import warnings

import numpy as np
import pytest

from sanet.cli import build_parser, main
from sanet.data import CIFAR_RECORD, CIFAR_TRAIN_FILES
from sanet.gradcheck import DEFAULT_TOL, plan_sweep
from sanet.models import (
    ModelSpec,
    StageSpec,
    build_model,
    load_checkpoint,
    named_spec,
    save_checkpoint,
)
from sanet.reference import DEFAULT_CASES, ORACLE_TOL, plan_oracle_sweep
from sanet.robustness import AttackConfig
from sanet.training import SGD, TrainConfig


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def user_stderr(capsys, argv):
    """Exit code of ``main(argv)`` and its stderr as a user sees it: the
    warnings Python would print there, followed by the captured text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line)
                    for w in caught)
    return code, shown + capsys.readouterr().err


def snapshot(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".json", ".csv", ".txt")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files


def write_tiny_spec(tmp_path, edit):
    """A san-tiny spec file with ``edit`` applied to the spec, its attention
    configuration and every stage."""
    spec = dataclasses.asdict(named_spec("san-tiny"))
    for part in (spec, spec["attention"], *spec["stages"]):
        part.update({k: v for k, v in edit.items() if k in part})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def rewrite_header(raw, edit):
    """The checkpoint bytes ``raw`` with ``edit`` applied to the header dict."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen :]


def edit_checkpoint_header(path, edit):
    """Apply ``edit`` to the header's spec dict of the checkpoint at ``path``."""
    path.write_bytes(rewrite_header(path.read_bytes(), lambda header: edit(header["spec"])))


TINY_RESNET = ModelSpec(name="resnet-tiny", arch="resnet", stem_channels=16, classes=10,
                        input_hw=32, stages=(StageSpec(4, 1, 3), StageSpec(8, 2, 3)))

# A value no builder reads: (spec it is set in, edit of the spec dict, message)
DEAD_VALUES = {
    "san-attention-footprint": (named_spec("san-tiny"),
                                lambda d: d["attention"].update(footprint=3),
                                "attention.footprint must stay 7"),
    "resnet-attention": (TINY_RESNET,
                         lambda d: d["attention"].update(family="patchwise",
                                                         relation="star_product"),
                         "attention applies to san networks only"),
    "resnet-first-transition": (TINY_RESNET, lambda d: d.update(first_transition=False),
                                "first_transition applies to san networks only"),
    "resnet-stage-footprint": (TINY_RESNET, lambda d: d["stages"][1].update(footprint=5),
                               "resnet stage footprints must be 3"),
}


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

    def test_scalar_attention_with_another_relation_exits_2_without_run_dir(self, tmp_path,
                                                                            capsys):
        """Scalar attention always scores with ``q . k``; another relation is
        rejected, not recorded in a manifest it does not describe."""
        out = tmp_path / "c"
        assert main(["count", "--model", "san-tiny", "--attention", "scalar",
                     "--relation", "hadamard", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: scalar relation must be")
        assert not out.exists()

    def test_out_under_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["count", "--model", "san-tiny", "--out", str(blocker / "c")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit,message", [
        ({"stem_channels": 0, "channels": 0}, "channels must be at least 1"),
        ({"footprint": 4}, "footprint must be one of"),
        ({"input_hw": 33}, "transition needs an even extent, got 33"),
    ], ids=["zero-widths", "footprint-4", "input-hw-33"])
    def test_bad_spec_file_exits_2_without_run_dir(self, tmp_path, capsys, edit, message):
        path = write_tiny_spec(tmp_path, edit)
        out = tmp_path / "c"
        assert main(["count", "--spec-file", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("dead", DEAD_VALUES)
    def test_spec_file_value_no_builder_reads_exits_2_without_run_dir(self, tmp_path, capsys,
                                                                       dead):
        """A SAN stage footprint replaces the attention's, and a ResNet reads
        neither the attention block, the first transition nor a stage footprint
        (its 3x3 is fixed): setting one is refused, not recorded and ignored."""
        spec, edit, message = DEAD_VALUES[dead]
        d = dataclasses.asdict(spec)
        edit(d)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "c"
        assert main(["count", "--spec-file", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("blocks", 1.5), ("channels", "16"), ("footprint", True), ("input_hw", 32.0),
        ("r1", 4.0), ("classes", True), ("mlp_depth", 2.0), ("normalize", 3),
        ("first_transition", 0), ("name", 5), ("name", None),
    ])
    def test_mistyped_spec_field_exits_2_without_run_dir(self, tmp_path, capsys, field, value):
        """Integer fields take no bool or float and flags take only a bool, so
        no value is silently coerced and no traceback escapes."""
        out = tmp_path / "c"
        path = write_tiny_spec(tmp_path, {field: value})
        assert main(["count", "--spec-file", str(path), "--verify-runtime",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and f"{field} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/../../esc", "..", "", "a\0b"])
    def test_spec_name_that_is_no_file_name_exits_2_creating_nothing(self, tmp_path, capsys,
                                                                     monkeypatch, name):
        """The default run directory is ``runs/count-<name>``: a separator or
        dot-dot in the name would move it, here outside ``runs/``, and a NUL
        byte would end in a traceback."""
        path = write_tiny_spec(tmp_path, {"name": name})
        monkeypatch.chdir(tmp_path)
        assert main(["count", "--spec-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "name must be a plain file name" in err
        assert os.listdir(tmp_path) == ["spec.json"]

    @pytest.mark.parametrize("family,relation", [("pairwise", "subtraction"),
                                                 ("patchwise", "star_product")])
    def test_normalize_outside_scalar_attention_exits_2_without_run_dir(self, tmp_path, capsys,
                                                                        family, relation):
        """Only scalar attention softmaxes its slot scores; ``normalize`` on
        another family is rejected, not recorded in the manifest and ignored."""
        out = tmp_path / "c"
        path = write_tiny_spec(tmp_path, {"family": family, "relation": relation,
                                          "normalize": True})
        assert main(["count", "--spec-file", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "normalize applies to scalar attention only" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--attention", "patchwise", "--position-mode", "absolute"], "position"),
        (["--attention", "scalar", "--gamma-depth", "3"], "mlp_depth"),
        (["--attention", "scalar", "--share", "4"], "share"),
        (["--attention", "scalar", "--position-mode", "none"], "position"),
    ], ids=["patchwise-position", "scalar-gamma-depth", "scalar-share", "scalar-position"])
    def test_field_the_family_does_not_read_exits_2_without_run_dir(self, tmp_path, capsys,
                                                                    flags, field):
        """Patchwise attention has no position term and scalar attention no
        perceptron or channel groups; such a value is rejected, not recorded
        in a manifest while every output stays the same."""
        out = tmp_path / "c"
        assert main(["count", "--model", "san-tiny", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} applies to ")
        assert not out.exists()

    def test_spec_file_with_patchwise_position_exits_2_without_run_dir(self, tmp_path, capsys):
        out = tmp_path / "c"
        path = write_tiny_spec(tmp_path, {"family": "patchwise", "relation": "concatenation",
                                          "position": "none"})
        assert main(["count", "--spec-file", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "(position applies to pairwise attention only)" in err
        assert not out.exists()

    def test_scalar_attention_ignores_value_width_groups(self, tmp_path):
        """Scalar attention weighs all value channels of a slot alike, so a
        value width of one channel (san-tiny's first stage at r2=16) counts
        and builds; ``share``, which it does not read, keeps its default."""
        out = tmp_path / "c"
        assert main(["count", "--model", "san-tiny", "--attention", "scalar", "--r2", "16",
                     "--verify-runtime", "--out", str(out)]) == 0
        cost = read_json(out / "cost.json")
        assert (cost["params"], cost["macs"]) == (7_232, 945_536)
        assert cost["runtime_check"]["matches"]
        assert read_json(out / "manifest.json")["config"]["spec"]["attention"]["share"] == 8

    @pytest.mark.parametrize("command", ["count", "train"])
    def test_attention_flags_with_spec_file_exit_2_without_run_dir(self, tmp_path, capsys,
                                                                   command):
        """A spec file fixes the attention configuration; flags that would
        change it are rejected, not silently ignored."""
        out = tmp_path / "c"
        argv = [command, "--spec-file", str(write_tiny_spec(tmp_path, {})),
                "--relation", "dot", "--r1", "1", "--out", str(out)]
        if command == "train":
            argv += ["--limit", "20", "--epochs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --spec-file")
        assert "--relation" in err and "--r1" in err
        assert not out.exists()

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
        out = tmp_path / "g2"
        assert main(["gradcheck", "--kind", "conv", "--relation", "subtraction",
                     "--out", str(out)]) == 2
        assert not out.exists()


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
        out = tmp_path / "o"
        assert main(["oracle", "--kind", "conv", "--cases", "0", "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("argv", [["gradcheck", "--tol", "nan"], ["gradcheck", "--tol", "inf"],
                                  ["oracle", "--cases", "1", "--tol", "-1"]],
                         ids=["gradcheck-nan", "gradcheck-inf", "oracle-negative"])
def test_bad_tol_exits_2_without_run_dir(tmp_path, capsys, argv):
    out = tmp_path / "v"
    assert main(argv + ["--kind", "conv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: tol must be finite")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["oracle", "--kind", "conv", "--cases", "1"],
                                  ["train", "--model", "san-tiny", "--limit", "20",
                                   "--epochs", "1"]], ids=["oracle", "train"])
def test_negative_seed_exits_2_without_run_dir(tmp_path, capsys, argv):
    out = tmp_path / "s"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: seed must be non-negative")
    assert not out.exists()


def test_defaults_are_read_from_the_configs_and_sweeps():
    """Each command default equals the value its config or sweep holds, so no
    second copy can drift from it."""
    parse = build_parser().parse_args
    dest = {"base_lr": "lr"}  # the one field whose flag has another name
    for command, config in (("train", TrainConfig()), ("attack", AttackConfig())):
        args = parse([command])
        for field, value in dataclasses.asdict(config).items():
            assert getattr(args, dest.get(field, field)) == value, (command, field)
    gradcheck, oracle = parse(["gradcheck"]), parse(["oracle"])
    assert (gradcheck.tol, oracle.cases, oracle.tol) == (DEFAULT_TOL, DEFAULT_CASES, ORACLE_TOL)
    grad_plan, oracle_plan = (inspect.signature(plan).parameters
                              for plan in (plan_sweep, plan_oracle_sweep))
    assert grad_plan["tol"].default == DEFAULT_TOL
    assert (oracle_plan["cases"].default, oracle_plan["tol"].default) == (DEFAULT_CASES,
                                                                          ORACLE_TOL)


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

    def test_nan_lr_exits_2_without_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["train", "--model", "san-tiny", "--limit", "20", "--epochs", "1",
                     "--lr", "nan", "--out", str(out)]) == 2
        assert "base_lr" in capsys.readouterr().err
        assert not (out / "best.ckpt").exists()

    def test_zero_batch_size_exits_2(self, tmp_path):
        assert main(["train", "--model", "san-tiny", "--limit", "20", "--epochs", "1",
                     "--batch-size", "0", "--out", str(tmp_path / "t")]) == 2

    @pytest.mark.parametrize("flag,value", [("--momentum", "nan"), ("--weight-decay", "-1"),
                                            ("--label-smoothing", "1.5")])
    def test_invalid_optimizer_setting_exits_2_without_run_dir(self, tmp_path, capsys,
                                                               flag, value):
        out = tmp_path / "t"
        assert main(["train", "--model", "san-tiny", "--limit", "20", "--epochs", "1",
                     flag, value, "--out", str(out)]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit,epochs,field", [("20", "0", "epochs"), ("0", "1", "limit")])
    def test_empty_run_exits_2_without_run_dir(self, tmp_path, capsys, limit, epochs, field):
        out = tmp_path / "t"
        assert main(["train", "--model", "san-tiny", "--limit", limit, "--epochs", epochs,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and field in err
        assert not out.exists()

    def test_unbuildable_spec_file_exits_2_without_run_dir(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["train", "--spec-file", str(write_tiny_spec(tmp_path, {"footprint": 4})),
                     "--limit", "20", "--epochs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "footprint must be one of" in err
        assert not out.exists()

    @pytest.mark.parametrize("input_hw", [33, 64])
    def test_spec_file_input_hw_must_match_the_data(self, tmp_path, capsys, input_hw):
        """The spec a run records must describe the 32x32 images it trains on."""
        out = tmp_path / "t"
        path = write_tiny_spec(tmp_path, {"input_hw": input_hw})
        assert main(["train", "--spec-file", str(path), "--limit", "20", "--epochs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: spec file declares input_hw {input_hw}, "
                       f"dataset images are 32x32\n")
        assert not out.exists()

    def test_spec_file_classes_must_match_the_data(self, tmp_path, capsys):
        out = tmp_path / "t"
        path = write_tiny_spec(tmp_path, {"classes": 7})
        assert main(["train", "--spec-file", str(path), "--limit", "20", "--epochs", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: spec file declares 7 classes, dataset has 10\n"
        assert not out.exists()

    def test_cifar10_without_a_root_exits_2_without_run_dir(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.delenv("SANET_DATA_ROOT", raising=False)
        out = tmp_path / "t"
        assert main(["train", "--model", "san-tiny", "--data", "cifar10", "--epochs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cifar10 needs a dataset root")
        assert not out.exists()

    def test_named_model_records_the_data_side(self, tmp_path):
        """resnet26 is declared at 224x224; trained on 32x32 blobs, its run
        must say 32, in the manifest and in the checkpoint header."""
        out = tmp_path / "t"
        assert main(["train", "--model", "resnet26", "--limit", "20", "--epochs", "1",
                     "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["config"]["spec"]["input_hw"] == 32
        assert load_checkpoint(str(out / "best.ckpt")).spec.input_hw == 32

    def test_non_finite_logits_exit_1_without_checkpoint(self, tmp_path, capsys):
        """With lr 1e30 every parameter stays finite but every validation
        logit is NaN: no accuracy may be read from them or checkpointed."""
        out = tmp_path / "t"
        code, err = user_stderr(capsys, ["train", "--model", "san-tiny", "--limit", "20",
                                         "--epochs", "1", "--lr", "1e30", "--out", str(out)])
        assert code == 1
        assert err.count("\n") == 1  # no numpy overflow warning precedes the error
        assert err.startswith("error: training diverged: non-finite logits for ")
        assert not (out / "best.ckpt").exists() and not (out / "last.ckpt").exists()

    def test_diverged_training_exits_1_naming_the_unit(self, tmp_path, capsys, monkeypatch):
        names = [n for n, _ in build_model(named_spec("san-tiny")).named_parameters()]
        poisoned = names.index("stages.1.1.attention.w_key")
        real_step = SGD.step

        def poisoned_step(self, lr):
            self.params[poisoned].grad = np.full_like(self.params[poisoned].data, np.nan)
            real_step(self, lr)

        monkeypatch.setattr(SGD, "step", poisoned_step)
        out = tmp_path / "t"
        assert main(["train", "--model", "san-tiny", "--limit", "20", "--epochs", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "non-finite gradient of stage2.block1.attention.w_key" in err
        assert not (out / "best.ckpt").exists()


@pytest.fixture(scope="module")
def overflowing_checkpoint(tmp_path_factory):
    """A san-tiny checkpoint whose parameters are all finite but whose logits overflow."""
    model = build_model(named_spec("san-tiny"), seed=3)
    model.classifier.linear.w.data[:] = 3e38
    path = tmp_path_factory.mktemp("ckpt") / "overflow.ckpt"
    save_checkpoint(model, path)
    return path


@pytest.fixture(scope="module")
def misfit_checkpoints(tmp_path_factory):
    """san-tiny checkpoints that do not fit the 10-class 32x32 blobs."""
    root = tmp_path_factory.mktemp("misfit")
    tiny = named_spec("san-tiny")
    specs = {"7 classes": dataclasses.replace(tiny, classes=7),
             "12 classes": dataclasses.replace(tiny, classes=12),
             "input_hw 64": dataclasses.replace(tiny, input_hw=64)}
    paths = {}
    for tag, spec in specs.items():
        paths[tag] = root / (tag.replace(" ", "-") + ".ckpt")
        save_checkpoint(build_model(spec), paths[tag])
    return paths


class TestEvalRobustAttack:
    @pytest.mark.parametrize("tag,message", [
        ("7 classes", "declares 7 classes, dataset has 10"),
        ("12 classes", "declares 12 classes, dataset has 10"),
        ("input_hw 64", "declares input_hw 64, dataset images are 32x32"),
    ])
    @pytest.mark.parametrize("command", ["eval", "robust", "attack"])
    def test_checkpoint_that_does_not_fit_the_data_exits_2_without_run_dir(
            self, misfit_checkpoints, tmp_path, capsys, command, tag, message):
        """A checkpoint scores only data of its own classes and side; any
        other pairing is rejected before a run directory is made."""
        out = tmp_path / "e"
        assert main([command, "--checkpoint", str(misfit_checkpoints[tag]), "--data", "blobs",
                     "--limit", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: checkpoint {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "robust", "attack"])
    def test_non_finite_logits_exit_1(self, overflowing_checkpoint, tmp_path, capsys, command):
        code, err = user_stderr(capsys, [command, "--checkpoint", str(overflowing_checkpoint),
                                         "--data", "blobs", "--limit", "20",
                                         "--out", str(tmp_path / "e")])
        assert code == 1
        # one line: no numpy overflow warning precedes the error
        assert err.count("\n") == 1 and err.startswith("error: non-finite logits for ")

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

    def test_negative_attack_budget_exits_2(self, train_run, tmp_path, capsys):
        assert main(["attack", "--checkpoint", str(train_run / "best.ckpt"),
                     "--data", "blobs", "--limit", "200", "--eps", "-1",
                     "--out", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err.startswith("error: attack eps must be non-negative")

    def test_zero_attack_count_exits_2(self, train_run, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["attack", "--checkpoint", str(train_run / "best.ckpt"),
                     "--data", "blobs", "--limit", "200", "--count", "0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: attack count")
        assert not out.exists()

    def test_zero_limit_exits_2_for_eval(self, train_run, tmp_path, capsys):
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(train_run / "best.ckpt"),
                     "--data", "blobs", "--limit", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: dataset limit")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "robust", "attack"])
    def test_blobs_limit_below_ten_exits_2_without_run_dir(self, tmp_path, capsys, command):
        """Blobs draws whole images per class, so a limit under 10 would
        train on 10 images, more than the cap promises."""
        out = tmp_path / "o"
        argv = [command, "--data", "blobs", "--limit", "5", "--out", str(out)]
        if command != "train":
            argv += ["--checkpoint", str(tmp_path / "unread.ckpt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: blobs limit must be at least 10 (one image per class), got 5\n"
        assert not out.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", "blobs",
                     "--out", str(tmp_path / "e4")]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        bogus = tmp_path / "bad.ckpt"
        bogus.write_bytes(b"definitely not a checkpoint")
        assert main(["eval", "--checkpoint", str(bogus), "--data", "blobs",
                     "--out", str(tmp_path / "e3")]) == 2

    def test_checkpoint_spec_that_is_not_accepted_exits_2_without_run_dir(self, tmp_path, capsys):
        """A well-formed header whose spec the configuration rejects (patchwise
        with ``position: "none"``) is named as not accepted, not as corrupt."""
        path = tmp_path / "patchwise.ckpt"
        save_checkpoint(build_model(named_spec("san-tiny", family="patchwise")), path)
        edit_checkpoint_header(path, lambda d: d["attention"].update(position="none"))
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(path), "--data", "blobs",
                     "--limit", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: checkpoint spec is not accepted "
                                           "(position applies to pairwise attention only)\n")
        assert not out.exists()

    @pytest.mark.parametrize("dead", DEAD_VALUES)
    def test_checkpoint_value_no_builder_reads_exits_2_without_run_dir(self, tmp_path, capsys,
                                                                        dead):
        spec, edit, message = DEAD_VALUES[dead]
        path = tmp_path / "dead.ckpt"
        save_checkpoint(build_model(spec), path)
        edit_checkpoint_header(path, edit)
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(path), "--data", "blobs",
                     "--limit", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert err.startswith(f"error: {path}: checkpoint spec is not accepted (")
        assert not out.exists()



def _header(edit):
    return lambda raw: rewrite_header(raw, edit)


def _float64_payload(raw):
    """``raw`` as a float64 network would be stored: a ``"<f8"`` header over
    every value widened to float64."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    payload = np.frombuffer(raw[8 + hlen :], "<f4").astype("<f8").tobytes()
    return rewrite_header(raw[: 8 + hlen], lambda h: h.update(dtype="<f8")) + payload


# case -> (what is mutated, how, a part of the one error line); the CIFAR-10
# cases give the labels of each of the five batches
BOUNDARY_CASES = {
    "version-true": ("header", _header(lambda h: h.update(version=True)),
                     "unsupported checkpoint version"),
    "version-float": ("header", _header(lambda h: h.update(version=1.0)),
                      "unsupported checkpoint version"),
    "version-2": ("header", _header(lambda h: h.update(version=2)),
                  "unsupported checkpoint version"),
    "format": ("header", _header(lambda h: h.update(format="other")),
               "unsupported checkpoint version"),
    "dtype-big-endian": ("header", _header(lambda h: h.update(dtype=">f4")),
                         "unsupported checkpoint dtype '>f4'"),
    "dtype-int32": ("header", _header(lambda h: h.update(dtype="<i4")),
                    "unsupported checkpoint dtype '<i4'"),
    "dtype-void": ("header", _header(lambda h: h.update(dtype="V4")),
                   "unsupported checkpoint dtype 'V4'"),
    "dtype-bytes": ("header", _header(lambda h: h.update(dtype="S4")),
                    "unsupported checkpoint dtype 'S4'"),
    "dtype-missing": ("header", _header(lambda h: h.pop("dtype")), "corrupted checkpoint header"),
    "truncated-header": ("header", lambda raw: raw[:40], "corrupted checkpoint header"),
    "truncated-payload": ("header", lambda raw: raw[:-4],
                          "checkpoint payload is 53044 bytes, its header describes 53048"),
    "extra-payload-byte": ("header", lambda raw: raw + b"\0",
                           "checkpoint payload is 53049 bytes, its header describes 53048"),
    "dtype-wider-than-payload": ("header", _header(lambda h: h.update(dtype="<f8")),
                                 "unsupported checkpoint dtype '<f8'"),
    "float64-payload": ("header", _float64_payload, "unsupported checkpoint dtype '<f8'"),
    "payload-nan": ("payload", ("stem.linear.w", np.nan), "(stem.linear.w out of range)"),
    "payload-inf": ("payload", ("classifier.linear.b", -np.inf),
                    "(classifier.linear.b out of range)"),
    "negative-variance": ("payload", ("running_var", -1.0), "bn_in.running_var out of range"),
    "cifar-label-10": ("cifar", np.append(np.repeat(np.arange(10), 10), 10),
                       "(label 10 > 9)"),
    "cifar-too-few": ("cifar", np.repeat(np.arange(10), [10, 10, 10, 9] + [10] * 6),
                      "CIFAR-10 class 3 has 45 images, fewer than the 50"),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_corrupt_input_exits_2_with_one_error_line_and_no_run_dir(tmp_path, capsys, case):
    """A checkpoint or a CIFAR-10 directory that saving or the real batches
    never produce is refused before any output: ``eval`` of a mutated
    san-tiny checkpoint, and ``train`` on five synthetic batches with 50
    images per class in all, plus label-10 records or less one of class 3."""
    kind, mutation, message = BOUNDARY_CASES[case]
    out = tmp_path / "out"
    if kind == "cifar":
        for name in CIFAR_TRAIN_FILES:
            records = np.zeros((len(mutation), CIFAR_RECORD), np.uint8)
            records[:, 0] = mutation
            records.tofile(tmp_path / name)
        argv = ["train", "--model", "san-tiny", "--data", "cifar10", "--data-root",
                str(tmp_path), "--epochs", "1", "--limit", "20"]
    else:
        model = build_model(named_spec("san-tiny"))
        if kind == "payload":
            suffix, value = mutation
            stored = [p.data for n, p in model.named_parameters() if n.endswith(suffix)]
            stored += [b for n, b in model.named_buffers() if n.endswith(suffix)]
            stored[0].flat[0] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        if kind == "header":
            path.write_bytes(mutation(path.read_bytes()))
        argv = ["eval", "--checkpoint", str(path), "--data", "blobs", "--limit", "20"]
    code, err = user_stderr(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


_DROP = object()  # a spec-file mutation that deletes the key
_SWEEP_VALUES = [_DROP, None, True, 0, -1, 1, 3, 2**70, 1.5, float("nan"), "x", [1], {"a": 1}]


def _sweep(model):
    """Every key of ``model``'s spec file (the spec's, its attention's and every
    stage's) dropped or set to each of ``_SWEEP_VALUES``, and one extra key."""
    spec = named_spec(model)
    keys = [f.name for f in dataclasses.fields(spec)]
    keys += [f"attention.{f.name}" for f in dataclasses.fields(spec.attention)]
    keys += [f"stages.{f.name}" for f in dataclasses.fields(StageSpec)]
    rows = {f"{model}-{key}-{value!r:.12}": (model, {key: value}, ["count"], ...)
            for key in keys for value in _SWEEP_VALUES}
    rows[f"{model}-extra"] = (model, {"extra": 1}, ["count"], "extra")
    return rows


TRAIN_BLOBS = ["train", "--limit", "20", "--epochs", "1"]
# case -> (named spec, {key: value} edits, command, a part of the one error line,
# None for exit 0, or ... for either); "stages.<key>" edits every stage
SPEC_FILE_CASES = {
    "resnet-blocks-2**70": ("resnet26", {"stages.blocks": 2**70}, ["count"],
                            "blocks must be at most 1024, got 1180591620717411303424"),
    "resnet-blocks-10**6": ("resnet26", {"stages.blocks": 10**6}, ["count"],
                            "blocks must be at most 1024"),
    "san-blocks-2**70": ("san-tiny", {"stages.blocks": 2**70}, ["count"],
                         "blocks must be at most 1024"),
    "widths-2**40-verify": ("san-tiny", {"stem_channels": 2**40, "stages.channels": 2**40},
                            ["count", "--verify-runtime"], "channels must be at most 65536"),
    "widths-2**40-train": ("san-tiny", {"stem_channels": 2**40, "stages.channels": 2**40},
                           TRAIN_BLOBS, "channels must be at most 65536"),
    "classes-2**62-verify": ("san-tiny", {"classes": 2**62}, ["count", "--verify-runtime"],
                             "classes must be at most 1048576"),
    "resnet-at-every-bound": ("resnet26", {"stages.blocks": 1024, "stages.channels": 65536,
                                           "stem_channels": 65536, "classes": 2**20},
                              ["count"], None),
    "resnet-too-large-to-build": ("resnet26", {"stages.channels": 65536},
                                  ["count", "--verify-runtime"],
                                  "more than 1,073,741,824 parameters, too many to build"),
    "san-tiny-verify": ("san-tiny", {}, ["count", "--verify-runtime"], None),
    "resnet26-verify": ("resnet26", {}, ["count", "--verify-runtime"], None),
    **_sweep("san-tiny"),
    **_sweep("resnet26"),
}


@pytest.mark.parametrize("case", SPEC_FILE_CASES)
def test_spec_file_exits_0_or_2_with_one_error_line_and_no_run_dir(tmp_path, capsys, case):
    """A mutated san-tiny or resnet26 spec file either runs or is refused, in
    a few milliseconds, with one ``error:`` line before any output."""
    model, edits, command, message = SPEC_FILE_CASES[case]
    spec = dataclasses.asdict(named_spec(model))
    for key, value in edits.items():
        owner, _, field = key.rpartition(".")
        for part in {"": [spec], "attention": [spec["attention"]], "stages": spec["stages"]}[owner]:
            if value is _DROP:
                del part[field]
            else:
                part[field] = value
    path, out = tmp_path / "spec.json", tmp_path / "out"
    path.write_text(json.dumps(spec))
    code, err = user_stderr(capsys, command + ["--spec-file", str(path), "--out", str(out)])
    if message is None or (message is ... and code == 0):
        assert code == 0 and out.exists()
    else:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message is ... or message in err
        assert not out.exists()


def test_out_of_memory_exits_2_with_one_error_line_and_no_run_dir(tmp_path, capsys,
                                                                    monkeypatch):
    """A unit that numpy cannot allocate, within the parameter bound, is
    refused with numpy's message before the manifest."""
    import sanet.blocks

    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(sanet.blocks.Classifier, "__init__", unallocatable)
    out = tmp_path / "out"
    for argv in (["count", "--verify-runtime"], TRAIN_BLOBS):
        code, err = user_stderr(capsys, argv + ["--model", "san-tiny", "--out", str(out)])
        assert code == 2 and err == ("error: san-tiny: classifier is too large to build "
                                     "(Unable to allocate 64.0 GiB for an array)\n")
        assert not out.exists()
