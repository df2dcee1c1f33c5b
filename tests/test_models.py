"""Model builders, seed determinism, and checkpoint round-trips."""

import hashlib
import json
import os
import struct
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import numpy as np
import pytest

import sanet.tensor as T
from sanet.attention import FAMILIES, AttentionConfig
from sanet.blocks import Bottleneck, SelfAttentionBlock
from sanet.models import (
    MODEL_NAMES,
    CheckpointError,
    ModelSpec,
    NonFiniteLogits,
    StageSpec,
    build_model,
    load_checkpoint,
    named_spec,
    predict,
    save_checkpoint,
    spec_from_dict,
)
from sanet.robustness import AttackConfig
from sanet.tensor import ConfigError, Tensor, no_grad
from sanet.training import TrainConfig


def wrong_kinds(annotation) -> list:
    """Values of the wrong kind for a config field's annotation."""
    if annotation in (int, float):
        return ["1", None, True] + ([2.5] if annotation is int else [])
    if annotation is bool:
        return ["yes", None, 1]
    if annotation is str:
        return [None, 1]
    if annotation is AttentionConfig:
        return [None, asdict(AttentionConfig())]
    return [None, [StageSpec(16, 1)], (asdict(StageSpec(16, 1)),)]  # tuple[StageSpec, ...]


CONFIGS = (AttentionConfig(), StageSpec(16, 1), named_spec("san-tiny"), TrainConfig(),
           AttackConfig())
WRONG_KIND_CASES = [
    pytest.param(config, field.name, value, id=f"{type(config).__name__}.{field.name}={value!r}")
    for config in CONFIGS for field in fields(config)
    for value in wrong_kinds(get_type_hints(type(config))[field.name])
]


class TestSpecs:
    def test_named_block_counts(self):
        assert [s.blocks for s in named_spec("san10").stages] == [2, 1, 2, 4, 1]
        assert [s.blocks for s in named_spec("san15").stages] == [3, 2, 3, 5, 2]
        assert [s.blocks for s in named_spec("san19").stages] == [3, 3, 4, 6, 3]

    def test_named_footprints_and_channels(self):
        spec = named_spec("san19")
        assert [s.footprint for s in spec.stages] == [3, 7, 7, 7, 7]
        assert [s.channels for s in spec.stages] == [64, 256, 512, 1024, 2048]

    def test_footprint_override_spares_first_stage(self):
        spec = named_spec("san10", footprint=11)
        assert [s.footprint for s in spec.stages] == [3, 11, 11, 11, 11]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            named_spec("san99")

    def test_resnet_rejects_attention_overrides(self):
        with pytest.raises(ConfigError):
            named_spec("resnet26", relation="subtraction")
        with pytest.raises(ConfigError, match="mlp_depth does not apply"):
            named_spec("resnet26", mlp_depth=2)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_spec_dict_round_trip(self, name):
        """What ``named_spec`` writes keeps every value its builder does not
        read at its default, so it loads back with each family and footprint."""
        options = [{}] if name.startswith("resnet") else [
            {"family": family, "footprint": footprint}
            for family in FAMILIES for footprint in (None, 5)]
        for o in options:
            spec = named_spec(name, **o)
            assert spec_from_dict(asdict(spec)) == spec

    @pytest.mark.parametrize("field", ["channels", "blocks", "stem_channels", "classes",
                                       "input_hw"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_size_below_one_rejected(self, field, value):
        d = asdict(named_spec("san-tiny"))
        (d["stages"][1] if field in ("channels", "blocks") else d)[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be at least 1"):
            spec_from_dict(d)

    @pytest.mark.parametrize("config,field,value", WRONG_KIND_CASES)
    def test_wrong_kind_in_any_config_field_is_config_error(self, config, field, value):
        with pytest.raises(ConfigError, match=rf"\b{field} must be"):
            replace(config, **{field: value})

    def test_san_stage_footprint_checked_at_spec_time(self):
        d = asdict(named_spec("san-tiny"))
        d["stages"][1]["footprint"] = 4
        with pytest.raises(ConfigError, match="^footprint must be one of"):
            spec_from_dict(d)


class TestBuild:
    def test_tiny_forward_shape(self):
        model = build_model(named_spec("san-tiny"), seed=0)
        x = Tensor(np.zeros((3, 3, 32, 32), dtype=np.float32))
        with no_grad():
            assert model.forward(x).shape == (3, 10)

    def test_same_seed_bit_identical(self):
        a = build_model(named_spec("san-tiny"), seed=5)
        b = build_model(named_spec("san-tiny"), seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(named_spec("san-tiny"), seed=5)
        b = build_model(named_spec("san-tiny"), seed=6)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
            if pa.size > 0 and pa.data.any() or pb.data.any()
        )

    def test_eval_forward_reproducible(self):
        model = build_model(named_spec("san-tiny"), seed=1)
        model.eval()
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 32, 32)).astype(np.float32))
        with no_grad():
            first = model.forward(x).data.copy()
            second = model.forward(x).data
        np.testing.assert_array_equal(first, second)

    def test_resnet_forward_shape(self):
        model = build_model(named_spec("resnet26", classes=10), seed=0)
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        with no_grad():
            assert model.forward(x).shape == (1, 10)

    @pytest.mark.parametrize("name,family,calls", [
        ("san-tiny", "pairwise", 0), ("san10", "pairwise", 0),
        ("san-tiny", "patchwise", 3), ("san10", "patchwise", 10), ("resnet26", None, 0),
    ], ids=["san-tiny-pairwise-0", "san10-pairwise-0", "san-tiny-3", "san10-10", "resnet26-0"])
    def test_relu_runs_only_inside_the_weight_mlp(self, monkeypatch, name, family, calls):
        """``batch_norm`` rectifies in place, so the only ``T.relu`` calls left
        are the hidden layers of the patchwise weight perceptron (attention
        layers times (mlp_depth - 1)); pairwise attention runs its
        perceptron inside ``slot_aggregate``, and a ResNet has none."""
        spec = named_spec(name, family=family)
        if family == "patchwise":
            assert calls == sum(st.blocks for st in spec.stages) * (spec.attention.mlp_depth - 1)
        model = build_model(spec, seed=0)
        relu, seen = T.relu, []
        monkeypatch.setattr(T, "relu", lambda x: seen.append(x.shape) or relu(x))
        predict(model, np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32))
        assert len(seen) == calls

    def test_san_transitions_must_halve_the_input(self):
        d = asdict(named_spec("san-tiny"))
        d["input_hw"] = 33
        with pytest.raises(ConfigError, match="^stage 2 transition needs an even extent, got 33$"):
            build_model(spec_from_dict(d), seed=0)

    def test_predict_rejects_non_finite_logits(self):
        model = build_model(named_spec("san-tiny"), seed=0)
        images = np.zeros((3, 3, 32, 32), dtype=np.float32)
        images[1, 0, 5, 5] = np.nan
        with pytest.raises(NonFiniteLogits, match="non-finite logits for 1 of 3 images"):
            predict(model, images, batch_size=2)


    def test_predict_restores_train_mode_when_forward_raises(self, monkeypatch):
        """An exception inside forward leaves every module in the caller's mode."""
        model = build_model(named_spec("san-tiny"), seed=0)

        def fail(x):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(model.classifier, "forward", fail)
        with pytest.raises(RuntimeError, match="forward failed"):
            predict(model, np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert model.training and model.classifier.training

    def test_predict_restores_each_modules_own_mode(self):
        """A unit the caller put in eval mode inside a training model stays there."""
        model = build_model(named_spec("san-tiny"), seed=0)
        model.train()
        model.stem.eval()
        predict(model, np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert not model.stem.training and not model.stem.linear.training
        assert model.training and model.stages[0][0].bn_in.training and model.classifier.training

    @pytest.mark.parametrize("spec", [
        named_spec("san-tiny"), named_spec("san-tiny", family="patchwise"),
        named_spec("san-tiny", family="scalar"),
        ModelSpec(name="resnet-tiny", arch="resnet", stem_channels=16, classes=10, input_hw=32,
                  stages=(StageSpec(4, 1, 3), StageSpec(8, 2, 3))),
    ], ids=["pairwise", "patchwise", "scalar", "resnet"])
    def test_predict_logits_do_not_depend_on_batch_size(self, spec):
        """Eval-mode logits of an image are the same bits whatever batch it
        runs in, so every inference path can share one batch size."""
        model = build_model(spec, seed=0)
        rng = np.random.default_rng(3)
        for _, unit in model.units:  # residual units start as the identity
            if isinstance(unit, (SelfAttentionBlock, Bottleneck)):
                w = unit.expand.w if isinstance(unit, SelfAttentionBlock) else unit.conv3.kernel
                w.data[...] = rng.normal(0.0, 0.2, w.shape)
        images = rng.normal(0.0, 1.0, (64, 3, 32, 32)).astype(np.float32)
        want = predict(model, images, batch_size=64)
        for batch_size in (1, 7):
            np.testing.assert_array_equal(predict(model, images, batch_size=batch_size), want)

class TestCheckpoints:
    def _roundtrip(self, tmp_path, model):
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(model, path)
        return path, load_checkpoint(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = build_model(named_spec("san-tiny"), seed=3)
        # move away from initialization so the test sees real values
        for _, p in model.named_parameters():
            p.data = p.data + np.float32(0.01)
        path, back = self._roundtrip(tmp_path, model)
        for (_, pa), (_, pb) in zip(model.named_parameters(), back.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        for (_, ba), (_, bb) in zip(model.named_buffers(), back.named_buffers()):
            np.testing.assert_array_equal(ba, bb)
        assert back.spec == model.spec

    def test_round_trip_forward_identical(self, tmp_path):
        model = build_model(named_spec("san-tiny"), seed=4)
        model.eval()
        _, back = self._roundtrip(tmp_path, model)
        back.eval()
        x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 32, 32)).astype(np.float32))
        with no_grad():
            np.testing.assert_array_equal(model.forward(x).data, back.forward(x).data)

    def test_corrupted_header_is_structured_error(self, tmp_path):
        model = build_model(named_spec("san-tiny"), seed=6)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(model, path)
        raw = bytearray(open(path, "rb").read())
        raw[10:40] = b"x" * 30  # clobber the JSON header
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unreadable_file_is_reported_as_such(self, tmp_path):
        for path in (tmp_path / "missing.ckpt", tmp_path):  # absent file, a directory
            with pytest.raises(CheckpointError, match="cannot read checkpoint"):
                load_checkpoint(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build_model(named_spec("san-tiny"), seed=7)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(model, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["rename", "reshape"])
    def test_buffer_list_must_match_the_spec(self, tmp_path, edit):
        """A header whose buffer names or shapes differ from the model's is
        rejected, even when the payload has the expected length."""
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(build_model(named_spec("san-tiny"), seed=9), path)
        raw = open(path, "rb").read()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        entry = header["buffers"][0]
        assert entry[1] == [16]
        if edit == "rename":
            entry[0] += "_renamed"
        else:
            entry[1] = [3, 5]
        blob = json.dumps(header).encode()
        open(path, "wb").write(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen:])
        with pytest.raises(CheckpointError, match="buffers"):
            load_checkpoint(path)

    def test_tiny_checkpoint_is_small(self, tmp_path):
        """Parameter count times four bytes plus a header: well under 10 MB."""
        model = build_model(named_spec("san-tiny"), seed=8)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(model, path)
        assert os.path.getsize(path) < 10 * 2**20


class TestCheckpointLayout:
    """Golden hashes of what a checkpoint stores, so a builder change that
    reorders parameters, buffers or rng draws fails here and not only in a
    checkpoint written by an older build."""

    @pytest.mark.parametrize("name,overrides,digest", [
        ("san-tiny", {}, "5e109541b0d2687482f0660f3fe64d01152c5094ff723ee6d33468a753f6fed3"),
        ("san-tiny", {"family": "patchwise"},
         "083915f76c3197f6c92305e332311b523eb65ea825c220dd07fd6070fac5137e"),
        ("san-tiny", {"family": "scalar"},
         "6cbe8121bf48a33beb3674d54a4def1e3568553b1e9e094074532c62f2d4f2b4"),
        ("san-tiny", {"relation": "hadamard"},
         "5e109541b0d2687482f0660f3fe64d01152c5094ff723ee6d33468a753f6fed3"),
        ("san10", {}, "04defd23d5c7e2f07528cf479212a65bffe30cf2371f7cbbff4342df65547e45"),
        ("resnet26", {}, "8aae28f5166cf6a4d447b522bfd46883f074107d01ec757e7d5a62f4a5c07850"),
    ], ids=["san-tiny", "san-tiny-patchwise", "san-tiny-scalar", "san-tiny-hadamard", "san10",
            "resnet26"])
    def test_parameter_and_buffer_order(self, name, overrides, digest):
        model = build_model(named_spec(name, **overrides), seed=0)
        layout = {"params": [[n, list(p.shape)] for n, p in model.named_parameters()],
                  "buffers": [[n, list(b.shape)] for n, b in model.named_buffers()]}
        assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == digest

    def test_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(named_spec("san-tiny"), seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c6b15449f877c9d3893e5d7e82174c76460c319fec68fddb379c9fa681a32d62")
