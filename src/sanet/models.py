"""Network specifications, builders, and checkpoint serialization.

A ``ModelSpec`` fully determines a network: architecture family
(self-attention or convolutional-residual), per-stage channels/blocks/
footprints, the attention configuration, and the classifier.  Building
from a spec plus a seed is bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig
from .blocks import (
    BatchNorm,
    Bottleneck,
    Classifier,
    ConvStem,
    SelfAttentionBlock,
    Stem,
    Transition,
)
from .module import Module, ModuleList
from .tensor import ConfigError, Tensor, no_grad


class CheckpointError(RuntimeError):
    """The checkpoint file is corrupt or incompatible."""


@dataclass(frozen=True)
class StageSpec:
    """One resolution stage: channel width, block count, footprint side.

    For convolutional-residual networks ``channels`` is the bottleneck
    width (output channels are four times wider) and ``footprint`` is
    ignored (the 3x3 convolution is fixed).
    """

    channels: int
    blocks: int
    footprint: int = 7


@dataclass(frozen=True)
class ModelSpec:
    name: str
    arch: str  # "san" | "resnet"
    stages: tuple[StageSpec, ...]
    stem_channels: int
    classes: int = 1000
    input_hw: int = 224
    attention: AttentionConfig = AttentionConfig()
    first_transition: bool = True  # san: pool+linear between stem and stage 1

    def __post_init__(self):
        if self.arch not in ("san", "resnet"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if not self.stages:
            raise ConfigError("model needs at least one stage")
        if self.arch == "san" and not self.first_transition:
            if self.stages[0].channels != self.stem_channels:
                raise ConfigError("without a first transition, stage 1 must match the stem width")


def spec_to_dict(spec: ModelSpec) -> dict:
    out = dataclasses.asdict(spec)
    out["stages"] = [dataclasses.asdict(s) for s in spec.stages]
    return out


def spec_from_dict(d: dict) -> ModelSpec:
    d = dict(d)
    d["stages"] = tuple(StageSpec(**s) for s in d["stages"])
    d["attention"] = AttentionConfig(**d["attention"])
    return ModelSpec(**d)


# ---------------------------------------------------------------------------
# named specifications
# ---------------------------------------------------------------------------

SAN_CHANNELS = (64, 256, 512, 1024, 2048)
SAN_FOOTPRINTS = (3, 7, 7, 7, 7)
SAN_BLOCKS = {
    "san10": (2, 1, 2, 4, 1),
    "san15": (3, 2, 3, 5, 2),
    "san19": (3, 3, 4, 6, 3),
}

# Bottleneck blocks per stage.  The two smaller networks are derived from
# the (3, 4, 6, 3) layout by dropping one/two blocks from every stage;
# see accounting tests for the capacity pinning that fixes these counts.
RESNET_WIDTHS = (64, 128, 256, 512)
RESNET_BLOCKS = {
    "resnet26": (1, 2, 4, 1),
    "resnet38": (2, 3, 5, 2),
    "resnet50": (3, 4, 6, 3),
}

MODEL_NAMES = tuple(SAN_BLOCKS) + tuple(RESNET_BLOCKS) + ("san-tiny",)


def named_spec(
    name: str,
    family: str | None = None,
    relation: str | None = None,
    footprint: int | None = None,
    mlp_depth: int | None = None,
    r1: int | None = None,
    r2: int | None = None,
    share: int | None = None,
    position: str | None = None,
    normalize: bool | None = None,
    classes: int | None = None,
) -> ModelSpec:
    """Resolve a model name plus attention overrides into a full spec.

    A footprint override applies to every stage after the first; the
    first stage keeps its small 3x3 footprint (full-resolution stages are
    memory-bound).
    """
    if name in RESNET_BLOCKS:
        for label, value in [("family", family), ("relation", relation),
                             ("footprint", footprint), ("gamma-depth", mlp_depth),
                             ("r1", r1), ("r2", r2), ("share", share),
                             ("position-mode", position)]:
            if value is not None:
                raise ConfigError(f"{name} is convolutional; {label} does not apply")
        stages = tuple(
            StageSpec(w, b, 3) for w, b in zip(RESNET_WIDTHS, RESNET_BLOCKS[name])
        )
        return ModelSpec(name=name, arch="resnet", stages=stages, stem_channels=64,
                         classes=classes if classes is not None else 1000)

    if name in SAN_BLOCKS:
        base = AttentionConfig()
        tiny = False
        blocks = SAN_BLOCKS[name]
        channels, footprints = SAN_CHANNELS, SAN_FOOTPRINTS
        default_classes, input_hw, stem, first_transition = 1000, 224, 64, True
    elif name == "san-tiny":
        base = AttentionConfig(r1=4, r2=2, share=2)
        tiny = True
        blocks = (1, 1, 1)
        channels, footprints = (16, 32, 64), (3, 5, 5)
        default_classes, input_hw, stem, first_transition = 10, 32, 16, False
    else:
        raise ConfigError(f"unknown model {name!r} (expected one of {MODEL_NAMES})")

    cfg = AttentionConfig(
        family=family if family is not None else base.family,
        relation=relation if relation is not None else _default_relation(family, base),
        footprint=base.footprint,
        r1=r1 if r1 is not None else base.r1,
        r2=r2 if r2 is not None else base.r2,
        share=share if share is not None else base.share,
        mlp_depth=mlp_depth if mlp_depth is not None else base.mlp_depth,
        position=position if position is not None else base.position,
        normalize=normalize if normalize is not None else base.normalize,
    )
    if footprint is not None:
        footprints = (footprints[0],) + (footprint,) * (len(blocks) - 1)
    stages = tuple(
        StageSpec(c, b, f) for c, b, f in zip(channels, blocks, footprints)
    )
    return ModelSpec(
        name=name, arch="san", stages=stages, stem_channels=stem,
        classes=classes if classes is not None else default_classes,
        input_hw=input_hw, attention=cfg, first_transition=first_transition,
    )


def _default_relation(family: str | None, base: AttentionConfig) -> str:
    if family == "patchwise":
        return "concatenation"
    if family == "scalar":
        return "dot"
    return base.relation


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


class SANetwork(Module):
    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.stem = Stem(spec.stem_channels, rng, dtype)
        self.stages = ModuleList()
        prev = spec.stem_channels
        for si, st in enumerate(spec.stages):
            stage = ModuleList()
            if si > 0 or spec.first_transition:
                stage.append(Transition(prev, st.channels, rng, dtype))
            cfg = spec.attention.with_footprint(st.footprint)
            for _ in range(st.blocks):
                stage.append(SelfAttentionBlock(st.channels, cfg, rng, dtype))
            self.stages.append(stage)
            prev = st.channels
        self.classifier = Classifier(prev, spec.classes, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = self.stem(x)
        for stage in self.stages:
            for item in stage:
                h = item(h)
        return self.classifier(h)


class ResNetwork(Module):
    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.stem = ConvStem(spec.stem_channels, rng, dtype)
        self.stages = ModuleList()
        prev = spec.stem_channels
        for si, st in enumerate(spec.stages):
            stage = ModuleList()
            for bi in range(st.blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                c_in = prev if bi == 0 else 4 * st.channels
                stage.append(Bottleneck(c_in, st.channels, stride, rng, dtype))
            self.stages.append(stage)
            prev = 4 * st.channels
        self.bn_out = BatchNorm(prev, dtype)
        self.classifier = Classifier(prev, spec.classes, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = self.stem(x)
        for stage in self.stages:
            for block in stage:
                h = block(h)
        return self.classifier(T.relu(self.bn_out(h)))


def build_model(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Module:
    """Deterministically initialize a network from its spec and a seed."""
    rng = np.random.default_rng(seed)
    if spec.arch == "resnet":
        return ResNetwork(spec, rng, dtype)
    return SANetwork(spec, rng, dtype)


def predict(model: Module, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Eval-mode logits for a raw image batch, without recording a graph."""
    was_training = model.training
    model.eval()
    outs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            chunk = Tensor(images[start : start + batch_size])
            outs.append(model.forward(chunk).data)
    model.train(was_training)
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SANC"
_CKPT_VERSION = 1


def save_checkpoint(model: Module, path):
    """Write spec + parameters + buffers: JSON header, then raw little-endian
    buffers in declaration order."""
    params = list(model.named_parameters())
    buffers = list(model.named_buffers())
    dtype_code = "<f8" if params[0][1].dtype == np.float64 else "<f4"
    header = {
        "format": "sanet-checkpoint",
        "version": _CKPT_VERSION,
        "spec": spec_to_dict(model.spec),
        "dtype": dtype_code,
        "params": [[name, list(p.shape)] for name, p in params],
        "buffers": [[name, list(b.shape)] for name, b in buffers],
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in params:
            fh.write(np.ascontiguousarray(p.data, dtype=dtype_code).tobytes())
        for _, b in buffers:
            fh.write(np.ascontiguousarray(b, dtype=dtype_code).tobytes())


def load_checkpoint(path) -> Module:
    """Rebuild the model a checkpoint describes, bit-exactly."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        if header.get("format") != "sanet-checkpoint" or header.get("version") != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version")
        spec = spec_from_dict(header["spec"])
        dtype = np.dtype(header["dtype"])
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{path}: corrupted checkpoint header ({exc})") from exc

    model = build_model(spec, seed=0, dtype=dtype.type)
    params = list(model.named_parameters())
    buffers = list(model.named_buffers())
    if [[n, list(p.shape)] for n, p in params] != header["params"]:
        raise CheckpointError(f"{path}: checkpoint does not match the spec's parameters")
    offset = 8 + hlen
    expected = sum(p.size for _, p in params) + sum(b.size for _, b in buffers)
    if len(raw) - offset != expected * dtype.itemsize:
        raise CheckpointError(f"{path}: truncated checkpoint payload")
    for _, p in params:
        nbytes = p.size * dtype.itemsize
        p.data = (
            np.frombuffer(raw[offset : offset + nbytes], dtype=dtype)
            .reshape(p.shape)
            .astype(dtype.newbyteorder("="))
        )
        offset += nbytes
    for _, b in buffers:
        nbytes = b.size * dtype.itemsize
        b[...] = np.frombuffer(raw[offset : offset + nbytes], dtype=dtype).reshape(b.shape)
        offset += nbytes
    return model


def load_spec_file(path) -> ModelSpec:
    """Read a ModelSpec from a JSON file."""
    try:
        with open(path) as fh:
            return spec_from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid spec file ({exc})") from exc
