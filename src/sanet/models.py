"""Network specifications, builders, and checkpoint serialization.

A ``ModelSpec`` fully determines a network: architecture family
(self-attention or convolutional-residual), per-stage channels/blocks/
footprints, the attention configuration, and the classifier; as it is
created, its fields are type-checked, its name (part of default run
directories) and footprints checked, and values no builder reads rejected.
The builders make, run and name the units of ``accounting.unit_plan``,
the one walk over a spec, bit-reproducibly from a seed.  A checkpoint
stores one list of float32 arrays, the parameters and then the buffers;
loading checks both name-and-shape lists and writes each array in place, and
rejects what saving never writes: another version or dtype code, a
non-finite value or a negative running variance.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from .accounting import unit_plan
from .attention import FAMILY_FIELDS, AttentionConfig, check_fields, check_unread
from .module import Module, ModuleList
from .tensor import ConfigError, Tensor, UsageError, no_grad


class CheckpointError(RuntimeError):
    """The checkpoint file is corrupt or incompatible."""


class NonFiniteLogits(ArithmeticError):
    """The network produced a NaN or infinite logit, so no accuracy can be read."""


# Upper bounds of a spec, far above the named networks: ResNet-152 has 36
# blocks in one stage, and the named networks reach 2048 channels and 1000
# classes (SAN19 and ResNet-50 have about 21M and 25M parameters).
MAX_BLOCKS = 1024
MAX_WIDTH = 65536
MAX_CLASSES = 2**20
MAX_PARAMS = 2**30  # to build: 4 GiB of float32


@dataclass(frozen=True)
class StageSpec:
    """One resolution stage: channel width, block count, footprint side.

    For convolutional-residual networks ``channels`` is the bottleneck
    width (output channels are four times wider) and ``footprint`` must be
    3 (the 3x3 convolution is fixed).
    """

    channels: int
    blocks: int
    footprint: int = 7

    def __post_init__(self):
        check_fields(self, positive=("channels", "blocks"),
                     at_most={"channels": MAX_WIDTH, "blocks": MAX_BLOCKS})


@dataclass(frozen=True)
class ModelSpec:
    """``attention`` and ``first_transition`` apply to SAN only, whose stage
    footprints replace ``attention.footprint``; unread values keep defaults."""

    name: str
    arch: str
    stages: tuple[StageSpec, ...]
    stem_channels: int
    classes: int = 1000
    input_hw: int = 224
    attention: AttentionConfig = AttentionConfig()
    first_transition: bool = True  # san: pool+linear between stem and stage 1

    def __post_init__(self):
        check_fields(self, positive=("stem_channels", "classes", "input_hw"),
                     choices={"arch": ("san", "resnet")},
                     at_most={"stem_channels": MAX_WIDTH, "classes": MAX_CLASSES})
        if not self.stages:
            raise ConfigError("model needs at least one stage")
        if self.name in ("", ".", "..") or any(
                c and c in self.name for c in ("/", "\0", os.sep, os.altsep)):
            raise ConfigError(f"name must be a plain file name, got {self.name!r}")
        check_unread(self, {"san": ("attention", "first_transition")}, self.arch, "networks")
        if self.arch == "resnet" and any(st.footprint != 3 for st in self.stages):
            raise ConfigError("resnet stage footprints must be 3: the bottleneck's 3x3 is fixed")
        if self.arch == "san":
            if self.attention.footprint != AttentionConfig.footprint:
                raise ConfigError("attention.footprint must stay 7: each san stage sets its own")
            for st in self.stages:  # the attention's footprint rule, checked at spec time
                replace(self.attention, footprint=st.footprint)
            if not self.first_transition and self.stages[0].channels != self.stem_channels:
                raise ConfigError("without a first transition, stage 1 must match the stem width")


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


def named_spec(name: str, classes: int | None = None, **overrides) -> ModelSpec:
    """Resolve a model name plus attention overrides into a full spec.

    ``overrides`` are ``AttentionConfig`` fields; those that are not None
    replace the model's defaults, and a family override without a relation
    takes that family's default relation.  A model default in a field the
    family does not read (``FAMILY_FIELDS``) is dropped.  A footprint
    override goes to the stages after the first (full-resolution stages are
    memory-bound), not to ``attention``.  A ResNet takes no override: its
    stages get footprint 3, ``attention`` and ``first_transition`` defaults.
    """
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if name in RESNET_BLOCKS:
        if overrides:
            raise ConfigError(f"{name} is convolutional; "
                              + "; ".join(f"{k} does not apply" for k in overrides))
        stages = tuple(
            StageSpec(w, b, 3) for w, b in zip(RESNET_WIDTHS, RESNET_BLOCKS[name])
        )
        return ModelSpec(name=name, arch="resnet", stages=stages, stem_channels=64,
                         classes=classes if classes is not None else 1000)

    if name in SAN_BLOCKS:
        base = {}
        blocks = SAN_BLOCKS[name]
        channels, footprints = SAN_CHANNELS, SAN_FOOTPRINTS
        default_classes, input_hw, stem, first_transition = 1000, 224, 64, True
    elif name == "san-tiny":
        base = {"r1": 4, "r2": 2, "share": 2}
        blocks = (1, 1, 1)
        channels, footprints = (16, 32, 64), (3, 5, 5)
        default_classes, input_hw, stem, first_transition = 10, 32, 16, False
    else:
        raise ConfigError(f"unknown model {name!r} (expected one of {MODEL_NAMES})")

    family = overrides.get("family", AttentionConfig.family)
    base = {k: v for k, v in base.items() if k in ("r1", "r2", *FAMILY_FIELDS.get(family, ()))}
    if "footprint" in overrides:
        footprints = (footprints[0],) + (overrides.pop("footprint"),) * (len(blocks) - 1)
    stages = tuple(
        StageSpec(c, b, f) for c, b, f in zip(channels, blocks, footprints)
    )
    return ModelSpec(
        name=name, arch="san", stages=stages, stem_channels=stem,
        classes=classes if classes is not None else default_classes,
        input_hw=input_hw, attention=AttentionConfig(**{**base, **overrides}),
        first_transition=first_transition,
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


class SANetwork(Module):
    """A network made unit by unit from ``unit_plan``, in forward order (which
    fixes the rng draws).  The stem, the ``stages`` lists, ``bn_out`` (ResNet
    only) and the classifier register in that order (the checkpoint order).
    A spec of more than ``MAX_PARAMS`` parameters is refused before the unit
    that would pass the bound is built, and so is one whose unit numpy cannot
    allocate."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.units = []  # (CostReport name, unit), in forward order
        params = 0
        for name, stage, build, (unit_params, _) in unit_plan(spec):
            params += unit_params
            if params > MAX_PARAMS:
                raise ConfigError(f"{spec.name} has more than {MAX_PARAMS:,} parameters, "
                                  f"too many to build")
            try:
                module = build(rng, dtype)
            except MemoryError as exc:
                raise ConfigError(f"{spec.name}: {name} is too large to build ({exc})") from exc
            self.units.append((name, module))
            if stage is None:
                setattr(self, name, module)
            else:
                self.stages[stage].append(module)
            if name == "stem":  # the stage lists register after the stem
                self.stages = ModuleList(ModuleList() for _ in spec.stages)

    def forward(self, x: Tensor) -> Tensor:
        for _, unit in self.units:
            x = unit(x)
        return x


class ResNetwork(SANetwork):
    """The convolutional-residual family; its units come from the same plan."""


def build_model(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Module:
    """Deterministically initialize a network from its spec and a seed."""
    rng = np.random.default_rng(seed)
    return (ResNetwork if spec.arch == "resnet" else SANetwork)(spec, rng, dtype)


INFERENCE_BATCH = 64  # images per forward; the logits do not depend on it


def predict(model: Module, images: np.ndarray, batch_size: int = INFERENCE_BATCH) -> np.ndarray:
    """Eval-mode logits for a raw image batch, without recording a graph.

    Raises ``NonFiniteLogits`` if any logit is NaN or infinite: every score
    read from such logits (top-k, attack success) would be meaningless.
    """
    outs = []
    # an overflow is reported below as non-finite logits, not as numpy warnings
    with model.evaluating(), no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(images), batch_size):
            chunk = Tensor(images[start : start + batch_size])
            outs.append(model.forward(chunk).data)
    logits = np.concatenate(outs, axis=0)
    bad = int((~np.isfinite(logits)).any(axis=1).sum())
    if bad:
        raise NonFiniteLogits(f"non-finite logits for {bad} of {len(logits)} images")
    return logits


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SANC"
_CKPT_VERSION = 1
_CKPT_DTYPE = np.dtype("<f4")  # checkpoints hold float32, the training dtype


def _stored_arrays(model: Module) -> list[tuple[str, str, np.ndarray]]:
    """``(header list, name, array)`` for every array a checkpoint holds, in
    file order: the parameters, then the buffers."""
    return ([("params", name, p.data) for name, p in model.named_parameters()]
            + [("buffers", name, b) for name, b in model.named_buffers()])


def _layout(arrays) -> dict:
    """The header's ``params`` and ``buffers`` lists of ``[name, shape]``."""
    return {kind: [[name, list(a.shape)] for k, name, a in arrays if k == kind]
            for kind in ("params", "buffers")}


def save_checkpoint(model: Module, path):
    """Write a float32 network (another dtype is a ``UsageError``): a JSON header
    with the spec, then its raw little-endian parameters and buffers in order."""
    arrays = _stored_arrays(model)
    if other := {a.dtype.name for _, _, a in arrays} - {"float32"}:
        raise UsageError(f"save_checkpoint: checkpoints hold float32, not {sorted(other)}")
    header = {
        "format": "sanet-checkpoint",
        "version": _CKPT_VERSION,
        "spec": asdict(model.spec),
        "dtype": _CKPT_DTYPE.str,
        **_layout(arrays),
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=_CKPT_DTYPE).tobytes())


def load_checkpoint(path) -> Module:
    """Rebuild the float32 model a checkpoint describes, bit-exactly."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint ({exc})") from exc
    try:
        if raw[:4] != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8 : 8 + hlen])
        version = header.get("version")
        if (header.get("format") != "sanet-checkpoint" or type(version) is not int
                or version != _CKPT_VERSION):
            raise CheckpointError(f"{path}: unsupported checkpoint version")
        spec = spec_from_dict(header["spec"])
        if header["dtype"] != _CKPT_DTYPE.str:  # the one code save_checkpoint writes
            raise CheckpointError(f"{path}: unsupported checkpoint dtype {header['dtype']!r}")
    except CheckpointError:
        raise
    except ConfigError as exc:
        raise CheckpointError(f"{path}: checkpoint spec is not accepted ({exc})") from exc
    except Exception as exc:
        raise CheckpointError(f"{path}: corrupted checkpoint header ({exc})") from exc

    model = build_model(spec, seed=0)
    arrays = _stored_arrays(model)
    for kind, want in _layout(arrays).items():
        if header.get(kind) != want:
            raise CheckpointError(f"{path}: checkpoint does not match the spec's {kind}")
    offset = 8 + hlen
    described = sum(a.nbytes for _, _, a in arrays)
    if len(raw) - offset != described:
        raise CheckpointError(f"{path}: checkpoint payload is {len(raw) - offset} bytes, "
                              f"its header describes {described}")
    for _, name, a in arrays:
        a[...] = np.frombuffer(raw[offset : offset + a.nbytes], _CKPT_DTYPE).reshape(a.shape)
        offset += a.nbytes
        if not np.isfinite(a).all() or name.endswith("running_var") and (a < 0).any():
            raise CheckpointError(f"{path}: corrupted checkpoint payload ({name} out of range)")
    return model


def load_spec_file(path) -> ModelSpec:
    """Read a ModelSpec from a JSON file."""
    try:
        with open(path) as fh:
            return spec_from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid spec file ({exc})") from exc
