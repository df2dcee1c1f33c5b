"""Local self-attention operators over square footprints, plus convolution.

Two vector-attention families are provided.  Pairwise attention computes
an aggregation weight for each (center, neighbor) pair from that pair
alone, so it is a set operator over the footprint: permuting the slot
enumeration does not change the output.  Patchwise attention computes
the weights for all slots jointly from the whole patch, which lets it
single out individual positions; a suitable constant weight head turns
it into an ordinary convolution.  The baselines are scalar dot-product
attention, which runs as the patchwise star product with no perceptron,
and a direct convolution.  ``AttentionConfig`` owns the footprint rule
(an odd side from ``FOOTPRINT_SIDES``, stride 1), and ``Linear``, the one
pointwise channel layer, builds both the weight perceptron here and the
projections of the residual blocks.

All operators share the same value path: a channel-reducing linear map
(no bias, so zero-padded locations contribute exactly zero) that
``slot_aggregate`` applies to the layer input itself, image by image in
forward and again in backward, so no value map stays on the tape.  It
aggregates the values in place, one shifted slice per footprint slot, under
weights broadcast over groups of ``share`` consecutive channels.  Pairwise
attention, for every relation, splits the first perceptron layer into a
per-location center map and a neighbor map (Hadamard and dot add the
center into one per-slot term, the layer applied to the query-key product)
and passes both, with the other perceptron layers, to ``slot_aggregate``,
which builds each slot's weights in turn and again in backward, so no
per-(location, slot) perceptron array stays on the tape.  For summation,
subtraction and concatenation the first layer composes with the query and
key maps, so both of its maps are read straight from the input and no
query or key map is built.  Patchwise concatenation's first layer is a
convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .module import Module, ModuleList, kaiming_uniform, zeros_param
from .tensor import ConfigError, DimensionError, Tensor

PAIRWISE_RELATIONS = ("summation", "subtraction", "concatenation", "hadamard", "dot")
PATCHWISE_RELATIONS = ("star_product", "clique_product", "concatenation")
RELATIONS = {"pairwise": PAIRWISE_RELATIONS, "patchwise": PATCHWISE_RELATIONS, "scalar": ("dot",)}
DEFAULT_RELATION = {"pairwise": "subtraction", "patchwise": "concatenation", "scalar": "dot"}
POSITION_MODES = ("none", "absolute", "relative")
# The AttentionConfig fields each family reads, beyond those every family reads
FAMILY_FIELDS = {"pairwise": ("share", "mlp_depth", "position"),
                 "patchwise": ("share", "mlp_depth"), "scalar": ("normalize",)}
FAMILIES = tuple(FAMILY_FIELDS)

FOOTPRINT_SIDES = (1, 3, 5, 7, 9, 11)


_type_hints = cache(get_type_hints)  # a dataclass's hints, read once per class


def check_fields(spec, positive=(), nonnegative=(), choices=None, at_most=None):
    """Check each field of the dataclass ``spec`` against its annotation, then
    against the range its class declares; each message names the field.

    A field annotated with a class (``int``, ``bool``, ``str``, a config
    dataclass) holds exactly that type, so a bool is no int; a ``float`` field
    holds a finite ``int`` or ``float``; a ``tuple[X, ...]`` field a tuple of
    ``X``.  A field named in ``positive`` is at least 1, one named in
    ``nonnegative`` at least 0, one keyed in ``choices`` one of its values,
    and one keyed in ``at_most`` at most its bound.
    """
    for name, kind in _type_hints(type(spec)).items():
        value = getattr(spec, name)
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            if type(value) is not tuple or any(type(v) is not item for v in value):
                raise ConfigError(f"{name} must be a tuple of {item.__name__}, got {value!r}")
        elif kind is float:
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        elif type(value) is not kind:
            raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if name in positive and value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
        if name in nonnegative and value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
        if choices and name in choices and value not in choices[name]:
            raise ConfigError(f"{name} must be one of {choices[name]}, got {value!r}")
        if at_most and name in at_most and value > at_most[name]:
            raise ConfigError(f"{name} must be at most {at_most[name]}, got {value}")


def check_unread(spec, readers: dict, reader: str, noun: str):
    """Reject a field of the dataclass ``spec``, off its default, that ``reader``
    does not read; ``readers`` lists per reader the fields not every reader reads."""
    for field in fields(spec):
        owners = [name for name, read in readers.items() if field.name in read]
        if owners and reader not in owners and getattr(spec, field.name) != field.default:
            raise ConfigError(f"{field.name} applies to {' and '.join(owners)} {noun} only")


@dataclass(frozen=True)
class AttentionConfig:
    """Operator family plus every structural knob of one attention layer.

    ``r1`` and ``r2`` are the channel reduction factors of the weight
    stream (query/key width ``d = C / r1``) and the value stream
    (``Cm = C / r2``); ``share`` is the number of consecutive value
    channels governed by one weight component; ``mlp_depth`` is the number
    of linear layers in the weight-producing perceptron.  Every family reads
    ``relation``, ``footprint``, ``r1`` and ``r2``; beyond those, pairwise reads
    ``share``, ``mlp_depth`` and ``position``, patchwise ``share`` and
    ``mlp_depth``, and scalar ``normalize`` (``FAMILY_FIELDS``).  A field the
    family does not read must keep its default.
    """

    family: str = "pairwise"
    relation: str = ""  # "" takes the family's DEFAULT_RELATION
    footprint: int = 7
    r1: int = 16
    r2: int = 4
    share: int = 8
    mlp_depth: int = 2
    position: str = "relative"
    normalize: bool = False

    def __post_init__(self):
        check_fields(self, positive=("r1", "r2", "share"), choices={"family": FAMILIES,
            "footprint": FOOTPRINT_SIDES, "mlp_depth": (1, 2, 3), "position": POSITION_MODES})
        if not self.relation:
            object.__setattr__(self, "relation", DEFAULT_RELATION[self.family])
        if self.relation not in RELATIONS[self.family]:
            raise ConfigError(f"{self.family} relation must be one of {RELATIONS[self.family]}")
        check_unread(self, FAMILY_FIELDS, self.family, "attention")


@dataclass(frozen=True)
class AttentionDims:
    """Derived widths of one attention layer at a given channel count."""

    d: int       # query/key width
    cm: int      # value width
    groups: int  # weight components per location-slot (cm / share)
    slots: int


def attention_dims(channels: int, cfg: AttentionConfig) -> AttentionDims:
    if channels % cfg.r1 != 0:
        raise ConfigError(f"channels {channels} not divisible by r1={cfg.r1}")
    if channels % cfg.r2 != 0:
        raise ConfigError(f"channels {channels} not divisible by r2={cfg.r2}")
    cm, groups = channels // cfg.r2, 1  # scalar attention: one weight per slot
    if "share" in FAMILY_FIELDS[cfg.family]:
        if cm % cfg.share != 0:
            raise ConfigError(f"value width {cm} not divisible by share={cfg.share}")
        groups = cm // cfg.share
    return AttentionDims(d=channels // cfg.r1, cm=cm, groups=groups,
                         slots=cfg.footprint * cfg.footprint)


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
    return {
        "star_product": dims.slots,
        "clique_product": dims.slots * dims.slots,
        "concatenation": (dims.slots + 1) * dims.d,
    }[cfg.relation]


def mlp_widths(cfg: AttentionConfig, dims: AttentionDims) -> list[int]:
    """Layer widths of the weight-producing perceptron, input to output.

    Pairwise runs the perceptron once per (location, slot) and emits one
    weight component per channel group; hidden layers reuse the query/key
    width.  Patchwise runs once per location and emits all slots' weights
    at once; the layer feeding that slot-times-groups expansion is kept at
    one group's width so the expansion stays cheap.
    """
    if cfg.family == "scalar":
        return []
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
        widths = mlp_widths(cfg, self.dims)
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.mlp.append(Linear(fan_in, fan_out, rng, dtype))
        if cfg.family == "pairwise" and cfg.position != "none":
            self.w_pos = kaiming_uniform(rng, (2, 2), 2, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if self.cfg.family == "pairwise":
            return pairwise_attention(x, self)
        return patchwise_attention(x, self)


def position_map(h: int, w: int, w_pos: Tensor, dtype) -> Tensor:
    """Trainably remapped normalized coordinates, shape ``[1, 2, H, W]``.

    Row and column indices are normalized to [-1, 1] per axis in ``dtype``
    (a single-pixel axis maps to 0) and passed through the 2x2 linear map.
    """
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype) if h > 1 else np.zeros(1, dtype=dtype)
    xs = np.linspace(-1.0, 1.0, w, dtype=dtype) if w > 1 else np.zeros(1, dtype=dtype)
    grid = np.stack(np.meshgrid(ys, xs, indexing="ij"))[None]
    return T.linear(Tensor(grid), w_pos)


def _qk(x: Tensor, params: VectorAttention):
    return T.linear(x, params.w_query, params.b_query), T.linear(x, params.w_key, params.b_key)


def _composed(outer: Tensor, w: Tensor, b: Tensor, bias: Tensor | None = None):
    """``(outer . w, outer . b + bias)``: the weight and bias that map ``x`` to
    ``outer . (w x + b) + bias`` in one ``linear``, built on the tape."""
    d = w.shape[0]
    weight = T.reshape(T.linear(T.reshape(w, (1, d, -1)), outer), (outer.shape[0], -1))
    return weight, T.reshape(T.linear(T.reshape(b, (1, d)), outer, bias), (-1,))


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
    cfg = params.cfg
    p = None
    if cfg.position != "none":
        p = position_map(x.shape[2], x.shape[3], params.w_pos, x.dtype)
    base, neighbor = _first_layer(x, p, params, slot_order)
    tail = [(layer.w, layer.b) for layer in list(params.mlp)[1:]]
    return T.slot_aggregate(base, x, params.w_value, cfg.footprint, slots=slot_order,
                            neighbor=neighbor, mlp=tail)


def _first_layer(x: Tensor, p: Tensor | None, params: VectorAttention, slot_order):
    """First perceptron layer of every (location, slot) pair, split in two.

    The layer is linear in its input, so it splits into a center map, a
    neighbor map read over the footprint and, for Hadamard and dot, a
    per-slot product term.  For subtraction with relative position,
    ``W[q_i - k_j ; p_i - p_j] + b = (W[q_i ; p_i] + b) - W[k_j ; p_j]``;
    for Hadamard, with ``W = [W_r, W_p]``, ``W[q_i * k_j ; p_i - p_j] + b =
    (W_r (q_i * k_j) + b + W_p p_i) - W_p p_j``.

    For summation, subtraction and concatenation, ``q = W_q x + b_q`` and
    ``k = W_k x + b_k`` compose with the layer's query and key columns
    ``W_1q`` and ``W_1k`` (negated for subtraction), so both maps are read
    from ``x``: ``center = (W_1q W_q) x + (W_1q b_q + b)`` and
    ``neighbor = (W_1k W_k) x + W_1k b_k``, plus the position terms; ``q``
    and ``k`` are never built.  The neighbor map is zero-padded, so an
    out-of-map slot gathers zero, exactly the layer's share of the zero key
    and zero position of a zero-padded neighbor.  Returns ``(base,
    neighbor)``: the center map ``[N, d1, 1, H, W]`` (for Hadamard and dot,
    the ``[N, d1, K, H, W]`` product term with the center added) and the
    neighbor map ``[N, d1, H, W]`` (for Hadamard and dot, the position term
    ``[1, d1, H, W]``, the same for every image) or None, for
    ``slot_aggregate`` to add slot by slot.
    """
    cfg, d = params.cfg, params.dims.d
    layer = params.mlp[0]
    n, _, h, w = x.shape
    rel_cols = relation_width(cfg, params.dims)
    pos = None if p is None else T.linear(p, T.take(layer.w, range(rel_cols, rel_cols + 2), axis=1))
    center, neighbor = (pos, T.neg(pos)) if cfg.position == "relative" else (None, pos)
    if cfg.relation in ("hadamard", "dot"):
        rel = _key_products(*_qk(x, params), cfg.footprint, slot_order)
        if cfg.relation == "dot":
            rel = T.sum(rel, axis=1, keepdims=True)
        center = None if center is None else T.reshape(center, (1, layer.w.shape[0], 1, h, w))
        base = T.linear(rel, T.take(layer.w, range(rel_cols), axis=1), layer.b, add=center)
        return base, neighbor
    key_cols = range(d, 2 * d) if cfg.relation == "concatenation" else range(d)
    w_key = T.take(layer.w, key_cols, axis=1)
    if cfg.relation == "subtraction":
        w_key = T.neg(w_key)
    w_query = T.take(layer.w, range(d), axis=1)
    center = T.linear(x, *_composed(w_query, params.w_query, params.b_query, layer.b),
                      add=center)
    neighbor = T.linear(x, *_composed(w_key, params.w_key, params.b_key), add=neighbor)
    return T.reshape(center, (n, layer.w.shape[0], 1, h, w)), neighbor


def _key_products(q: Tensor, k: Tensor, footprint: int, slot_order=None) -> Tensor:
    """``[N, d, K, H, W]``: ``q_i * k_j`` for each location and slot, in ``slot_order``."""
    n, d, h, w = q.shape
    ku = T.unfold(k, footprint)
    if slot_order is not None:  # checked first: np.take raises IndexError out of range
        T.footprint_windows(footprint, h, w, slots=slot_order, who="pairwise_attention")
        ku = T.take(ku, slot_order, axis=2)
    return T.mul(T.reshape(q, (n, d, 1, h, w)), ku)


def patchwise_attention(x: Tensor, params: VectorAttention) -> Tensor:
    """Whole-patch attention: one perceptron pass emits all slot weights.

    The relation summarizes the full footprint (so weights for any slot
    may draw on every neighbor), and the perceptron output is read as
    ``[slot, group]`` weight vectors, slot-major.  For concatenation the
    first layer over ``[q_i ; k_1 .. k_K]`` is the pointwise map of the
    query plus a k x k convolution of the key map, whose kernel is the
    layer's slot-major key columns regrouped to ``[out, d, k, k]``.

    Scalar attention is the star product with no perceptron, one weight per
    slot for all channels, ``y_i = sum_j (q_i . k_j) v_j``, softmaxed over
    slots first with ``normalize``.
    """
    cfg, dims, layers = params.cfg, params.dims, list(params.mlp)
    n, _, h, w = x.shape
    q, k = _qk(x, params)
    if cfg.relation == "concatenation":
        first = layers[0]
        blocks = T.reshape(first.w, (-1, dims.slots + 1, dims.d))
        keys = T.transpose(T.take(blocks, range(1, dims.slots + 1), axis=1), (0, 2, 1))
        kernel = T.reshape(keys, keys.shape[:2] + (cfg.footprint, cfg.footprint))
        flat = T.linear(q, T.take(first.w, range(dims.d), axis=1), first.b, add=conv2d(k, kernel))
    else:
        if cfg.relation == "clique_product":
            ku = T.unfold(k, cfg.footprint)
            qu = T.unfold(q, cfg.footprint)
            qj = T.reshape(qu, (n, dims.d, dims.slots, 1, h, w))
            kk = T.reshape(ku, (n, dims.d, 1, dims.slots, h, w))
            rel = T.sum(T.mul(qj, kk), axis=1)  # [N, K, K, H, W], (j, k) row-major
            rel = T.reshape(rel, (n, dims.slots * dims.slots, h, w))
        else:  # star product and scalar dot
            rel = T.sum(_key_products(q, k, cfg.footprint), axis=1)  # [N, K, H, W]
        flat = T.linear(rel, layers[0].w, layers[0].b) if layers else rel
    for layer in layers[1:]:
        flat = T.linear(T.relu(flat), layer.w, layer.b)  # [N, K * groups, H, W]
    if cfg.normalize:
        flat = T.softmax(flat, axis=1)
    wts = T.reshape(flat, (n, dims.slots, -1, h, w))
    wts = T.transpose(wts, (0, 2, 1, 3, 4))
    return T.slot_aggregate(wts, x, params.w_value, cfg.footprint)


class Linear(Module):
    """Pointwise channel linear, ``[N, Cin, ...] -> [N, Cout, ...]``."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        if rng is None:
            self.w = zeros_param((c_out, c_in), dtype)
        else:
            self.w = kaiming_uniform(rng, (c_out, c_in), c_in, dtype)
        self.b = zeros_param((c_out,), dtype)

    def forward(self, x: Tensor, add: Tensor | None = None) -> Tensor:
        return T.linear(x, self.w, self.b, add=add)


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

    def forward(self, x: Tensor, add: Tensor | None = None) -> Tensor:
        return conv2d(x, self.kernel, bias=self.bias, stride=self.stride, add=add)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1,
           add: Tensor | None = None) -> Tensor:
    """Cross-correlate ``x`` with ``kernel [Cout, Cin, k, k]``, same padding, plus ``add``."""
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
    return T.linear(flat, wf, bias, add=add)
