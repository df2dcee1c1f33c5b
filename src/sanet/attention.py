"""Local self-attention operators over square footprints, plus convolution.

Two vector-attention families are provided.  Pairwise attention computes
an aggregation weight for each (center, neighbor) pair from that pair
alone, so it is a set operator over the footprint: permuting the slot
enumeration does not change the output.  Patchwise attention computes
the weights for all slots jointly from the whole patch, which lets it
single out individual positions; a suitable constant weight head turns
it into an ordinary convolution.  Scalar dot-product attention and a
direct convolution are included as baselines.

All operators share the same value path: a channel-reducing linear map
(no bias, so zero-padded locations contribute exactly zero), unfolded
over the footprint and aggregated slot by slot under weights broadcast
over groups of ``share`` consecutive channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .module import Module, ModuleList, kaiming_uniform, zeros_param
from .tensor import ConfigError, DimensionError, Tensor

PAIRWISE_RELATIONS = ("summation", "subtraction", "concatenation", "hadamard", "dot")
PATCHWISE_RELATIONS = ("star_product", "clique_product", "concatenation")
POSITION_MODES = ("none", "absolute", "relative")
FAMILIES = ("pairwise", "patchwise", "scalar", "conv")

FOOTPRINT_SIDES = (1, 3, 5, 7, 9, 11)


@dataclass(frozen=True)
class FootprintSpec:
    """Square neighborhood gathered around each location (stride 1)."""

    k: int

    def __post_init__(self):
        if self.k not in FOOTPRINT_SIDES:
            raise ConfigError(f"footprint side must be one of {FOOTPRINT_SIDES}, got {self.k}")

    @property
    def pad(self) -> int:
        return (self.k - 1) // 2

    @property
    def slots(self) -> int:
        return self.k * self.k


@dataclass(frozen=True)
class AttentionConfig:
    """Operator family plus every structural knob of one attention layer.

    ``r1`` and ``r2`` are the channel reduction factors of the weight
    stream (query/key width ``d = C / r1``) and the value stream
    (``Cm = C / r2``); ``share`` is the number of consecutive value
    channels governed by one weight component; ``mlp_depth`` is the number
    of linear layers in the weight-producing perceptron.
    """

    family: str = "pairwise"
    relation: str = "subtraction"
    footprint: int = 7
    r1: int = 16
    r2: int = 4
    share: int = 8
    mlp_depth: int = 2
    position: str = "relative"
    normalize: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown attention family {self.family!r}")
        if self.family == "pairwise" and self.relation not in PAIRWISE_RELATIONS:
            raise ConfigError(f"pairwise relation must be one of {PAIRWISE_RELATIONS}")
        if self.family == "patchwise" and self.relation not in PATCHWISE_RELATIONS:
            raise ConfigError(f"patchwise relation must be one of {PATCHWISE_RELATIONS}")
        if self.position not in POSITION_MODES:
            raise ConfigError(f"position mode must be one of {POSITION_MODES}")
        if self.mlp_depth not in (1, 2, 3):
            raise ConfigError("mlp_depth must be 1, 2 or 3")
        for name in ("r1", "r2", "share"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        FootprintSpec(self.footprint)

    def with_footprint(self, k: int) -> "AttentionConfig":
        return replace(self, footprint=k)


@dataclass(frozen=True)
class AttentionDims:
    """Derived widths of one attention layer at a given channel count."""

    channels: int
    d: int       # query/key width
    cm: int      # value width
    groups: int  # weight components per location-slot (cm / share)
    slots: int


def attention_dims(channels: int, cfg: AttentionConfig) -> AttentionDims:
    if channels % cfg.r1 != 0:
        raise ConfigError(f"channels {channels} not divisible by r1={cfg.r1}")
    if channels % cfg.r2 != 0:
        raise ConfigError(f"channels {channels} not divisible by r2={cfg.r2}")
    cm = channels // cfg.r2
    if cm % cfg.share != 0:
        raise ConfigError(f"value width {cm} not divisible by share={cfg.share}")
    return AttentionDims(
        channels=channels,
        d=channels // cfg.r1,
        cm=cm,
        groups=cm // cfg.share,
        slots=cfg.footprint * cfg.footprint,
    )


def relation_width(cfg: AttentionConfig, dims: AttentionDims) -> int:
    """Output dimensionality of the relation combining query/key features."""
    if cfg.family == "pairwise":
        return {
            "summation": dims.d,
            "subtraction": dims.d,
            "hadamard": dims.d,
            "concatenation": 2 * dims.d,
            "dot": 1,
        }[cfg.relation]
    if cfg.family == "patchwise":
        return {
            "star_product": dims.slots,
            "clique_product": dims.slots * dims.slots,
            "concatenation": (dims.slots + 1) * dims.d,
        }[cfg.relation]
    raise ConfigError(f"family {cfg.family!r} has no relation stage")


def mlp_widths(cfg: AttentionConfig, dims: AttentionDims) -> list[int]:
    """Layer widths of the weight-producing perceptron, input to output.

    Pairwise runs the perceptron once per (location, slot) and emits one
    weight component per channel group; hidden layers reuse the query/key
    width.  Patchwise runs once per location and emits all slots' weights
    at once; the layer feeding that slot-times-groups expansion is kept at
    one group's width so the expansion stays cheap.
    """
    din = relation_width(cfg, dims)
    if cfg.family == "pairwise":
        if cfg.position != "none":
            din += 2
        out = dims.groups
        return {
            1: [din, out],
            2: [din, dims.d, out],
            3: [din, dims.d, dims.d, out],
        }[cfg.mlp_depth]
    out = dims.slots * dims.groups
    return {
        1: [din, out],
        2: [din, dims.groups, out],
        3: [din, dims.d, dims.groups, out],
    }[cfg.mlp_depth]


class VectorAttention(Module):
    """Parameters of one attention layer; forward dispatches on family.

    Maps ``[N, C, H, W]`` to ``[N, Cm, H, W]``.
    """

    def __init__(self, channels: int, cfg: AttentionConfig, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if cfg.family == "conv":
            raise ConfigError("use Conv2d for the convolution baseline")
        self.cfg = cfg
        self.dims = attention_dims(channels, cfg)
        d, cm = self.dims.d, self.dims.cm
        self.w_query = kaiming_uniform(rng, (d, channels), channels, dtype)
        self.b_query = zeros_param((d,), dtype)
        self.w_key = kaiming_uniform(rng, (d, channels), channels, dtype)
        self.b_key = zeros_param((d,), dtype)
        # value map carries no bias: padded (all-zero) locations must map to zero
        self.w_value = kaiming_uniform(rng, (cm, channels), channels, dtype)
        self.mlp = ModuleList()
        if cfg.family != "scalar":
            widths = mlp_widths(cfg, self.dims)
            for fan_in, fan_out in zip(widths[:-1], widths[1:]):
                self.mlp.append(_MlpLayer(fan_in, fan_out, rng, dtype))
        if cfg.family == "pairwise" and cfg.position != "none":
            self.w_pos = kaiming_uniform(rng, (2, 2), 2, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if self.cfg.family == "pairwise":
            return pairwise_attention(x, self)
        if self.cfg.family == "patchwise":
            return patchwise_attention(x, self)
        return scalar_attention(x, self)


class _MlpLayer(Module):
    def __init__(self, fan_in: int, fan_out: int, rng, dtype):
        super().__init__()
        self.w = kaiming_uniform(rng, (fan_out, fan_in), fan_in, dtype)
        self.b = zeros_param((fan_out,), dtype)


def _apply_mlp(layers: ModuleList, v: Tensor) -> Tensor:
    """Linear stack with ReLU between layers, applied along the channel axis."""
    for i, layer in enumerate(layers):
        if i > 0:
            v = T.relu(v)
        v = T.linear(v, layer.w, layer.b)
    return v


def position_features(h: int, w: int, w_pos: Tensor) -> Tensor:
    """Trainably remapped normalized coordinates, shape ``[2, H, W]``.

    Row and column indices are normalized to [-1, 1] per axis (a
    single-pixel axis maps to 0) and passed through the 2x2 linear map.
    """
    return T.reshape(_position_map(h, w, w_pos, w_pos.dtype), (2, h, w))


def _coordinate_grid(h: int, w: int, dtype) -> np.ndarray:
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype) if h > 1 else np.zeros(1, dtype=dtype)
    xs = np.linspace(-1.0, 1.0, w, dtype=dtype) if w > 1 else np.zeros(1, dtype=dtype)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([yy, xx])[None]  # [1, 2, H, W]


def _position_map(h: int, w: int, w_pos: Tensor, dtype) -> Tensor:
    grid = Tensor(_coordinate_grid(h, w, dtype))
    return T.linear(grid, w_pos)  # [1, 2, H, W]


def _qkv(x: Tensor, params: VectorAttention):
    q = T.linear(x, params.w_query, params.b_query)
    k = T.linear(x, params.w_key, params.b_key)
    v = T.linear(x, params.w_value)
    return q, k, v


def pairwise_attention(x: Tensor, params: VectorAttention,
                       slot_order=None) -> Tensor:
    """Set-operator attention: each slot weight depends on one pair only.

    ``y_i = sum_j mlp(relation(query_i, key_j) ++ position) (x) value_j``
    where ``(x)`` is the grouped Hadamard product and the sum runs over
    the footprint around i, zero-padded at the borders.

    ``slot_order`` re-enumerates the footprint slots (features and
    position offsets together); being a set operator, the output must
    not depend on it.
    """
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    fp = FootprintSpec(cfg.footprint)
    q, k, v = _qkv(x, params)
    ku = T.unfold(k, fp.k)
    vu = T.unfold(v, fp.k)
    if slot_order is not None:
        ku = T.take(ku, slot_order, axis=2)
        vu = T.take(vu, slot_order, axis=2)
    qe = T.reshape(q, (n, dims.d, 1, h, w))

    if cfg.relation == "summation":
        rel = T.add(qe, ku)
    elif cfg.relation == "subtraction":
        rel = T.sub(qe, ku)
    elif cfg.relation == "hadamard":
        rel = T.mul(qe, ku)
    elif cfg.relation == "concatenation":
        rel = T.concat([T.broadcast_to(qe, ku.shape), ku], axis=1)
    elif cfg.relation == "dot":
        rel = T.sum(T.mul(qe, ku), axis=1, keepdims=True)
    else:  # pragma: no cover - rejected by AttentionConfig
        raise ConfigError(cfg.relation)

    if cfg.position != "none":
        p = _position_map(h, w, params.w_pos, x.dtype)  # [1, 2, H, W]
        pu = T.unfold(p, fp.k)  # [1, 2, K, H, W]
        if slot_order is not None:
            pu = T.take(pu, slot_order, axis=2)
        if cfg.position == "relative":
            pos = T.sub(T.reshape(p, (1, 2, 1, h, w)), pu)
        else:
            pos = pu
        pos = T.broadcast_to(pos, (n, 2, fp.slots, h, w))
        rel = T.concat([rel, pos], axis=1)

    wts = _apply_mlp(params.mlp, rel)  # [N, groups, K, H, W]
    return T.slot_aggregate(wts, vu)


def patchwise_attention(x: Tensor, params: VectorAttention) -> Tensor:
    """Whole-patch attention: one perceptron pass emits all slot weights.

    The relation summarizes the full footprint (so weights for any slot
    may draw on every neighbor), and the perceptron output is read as
    ``[slot, group]`` weight vectors, slot-major.
    """
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    fp = FootprintSpec(cfg.footprint)
    q, k, v = _qkv(x, params)
    ku = T.unfold(k, fp.k)
    vu = T.unfold(v, fp.k)

    if cfg.relation == "star_product":
        qe = T.reshape(q, (n, dims.d, 1, h, w))
        rel = T.sum(T.mul(qe, ku), axis=1)  # [N, K, H, W]
    elif cfg.relation == "clique_product":
        qu = T.unfold(q, fp.k)
        qj = T.reshape(qu, (n, dims.d, fp.slots, 1, h, w))
        kk = T.reshape(ku, (n, dims.d, 1, fp.slots, h, w))
        rel = T.sum(T.mul(qj, kk), axis=1)  # [N, K, K, H, W], (j, k) row-major
        rel = T.reshape(rel, (n, fp.slots * fp.slots, h, w))
    elif cfg.relation == "concatenation":
        kt = T.transpose(ku, (0, 2, 1, 3, 4))  # slot-major blocks of d
        rel = T.concat([q, T.reshape(kt, (n, fp.slots * dims.d, h, w))], axis=1)
    else:  # pragma: no cover - rejected by AttentionConfig
        raise ConfigError(cfg.relation)

    flat = _apply_mlp(params.mlp, rel)  # [N, K * groups, H, W]
    wts = T.reshape(flat, (n, fp.slots, dims.groups, h, w))
    wts = T.transpose(wts, (0, 2, 1, 3, 4))
    return T.slot_aggregate(wts, vu)


def scalar_attention(x: Tensor, params: VectorAttention) -> Tensor:
    """Dot-product attention with one scalar weight per slot, all channels.

    ``y_i = sum_j (query_i . key_j) * value_j``; with ``normalize`` the
    slot scores pass through a softmax first.
    """
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    fp = FootprintSpec(cfg.footprint)
    q, k, v = _qkv(x, params)
    ku = T.unfold(k, fp.k)
    vu = T.unfold(v, fp.k)
    qe = T.reshape(q, (n, dims.d, 1, h, w))
    scores = T.sum(T.mul(qe, ku), axis=1, keepdims=True)  # [N, 1, K, H, W]
    if cfg.normalize:
        scores = T.softmax(scores, axis=2)
    return T.slot_aggregate(scores, vu)


class Conv2d(Module):
    """Same-padded square cross-correlation (stride 1 or 2)."""

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1,
                 bias: bool = False, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        self.k = k
        self.stride = stride
        fan_in = c_in * k * k
        if rng is None:
            self.kernel = zeros_param((c_out, c_in, k, k), dtype)
        else:
            self.kernel = kaiming_uniform(rng, (c_out, c_in, k, k), fan_in, dtype)
        self.bias = zeros_param((c_out,), dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.kernel, bias=self.bias, stride=self.stride)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """Cross-correlate ``x`` with ``kernel [Cout, Cin, k, k]``, same padding."""
    if kernel.data.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise DimensionError(f"conv2d kernel must be [Cout, Cin, k, k], got {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise DimensionError(
            f"conv2d: input channels {x.shape[1]} != kernel channels {kernel.shape[1]}"
        )
    c_out, c_in, k, _ = kernel.shape
    xu = T.unfold(x, k, stride=stride)
    n, _, k2, ho, wo = xu.shape
    flat = T.reshape(xu, (n, c_in * k2, ho, wo))
    wf = T.reshape(kernel, (c_out, c_in * k2))
    return T.linear(flat, wf, bias)
