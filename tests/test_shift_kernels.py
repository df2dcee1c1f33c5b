"""Two-sided oracle for the shift-based attention kernels.

The operators aggregate values from one padded map (``slot_aggregate``) and
split the first pairwise perceptron layer into per-location maps.
Here they are compared, forward and backward, with a reference that
gathers every footprint with ``unfold``, builds the relation slot by slot
and aggregates the gathered values with the einsum-style weighted slot sum,
in float64 on random shapes.  ``slot_aggregate`` is also compared bit for
bit with an explicit float32 slot loop, and ``max_pool``, which folds the
window maximum over strided slices, with an ``argmax`` over copied
windows.  A bounded float32-vs-float64 drift check of one san-tiny training
step closes the file.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import sanet.tensor as T
from sanet.attention import (
    FAMILY_FIELDS,
    PAIRWISE_RELATIONS,
    PATCHWISE_RELATIONS,
    POSITION_MODES,
    AttentionConfig,
    VectorAttention,
    pairwise_attention,
    patchwise_attention,
    position_map,
)
from sanet.data import augment_batch, make_blobs
from sanet.models import build_model, named_spec
from sanet.tensor import Tensor
from sanet.training import SGD, TrainConfig, cross_entropy_smoothed

REL_TOL = 1e-10
# (N, H, W, k): batch of one, H != W, and a footprint wider than the map
SHAPES = [(1, 2, 5, 5), (2, 4, 3, 3), (1, 3, 7, 3), (2, 1, 4, 5)]
# patchwise concatenation's convolution at k=1 takes unfold's one-slot view
PATCHWISE_SHAPES = SHAPES + [(2, 3, 4, 1)]


def _gathered_aggregate(wts, vu):
    """``sum_k wts[n, g, k] * vu[n, g*share + s, k]``: the weighted slot sum
    over a gathered ``[N, Cm, K, H, W]`` value tensor."""
    n, cm, k2, h, w = vu.shape
    g = wts.shape[1]
    prod = T.mul(T.reshape(wts, (n, g, 1, k2, h, w)), T.reshape(vu, (n, g, cm // g, k2, h, w)))
    return T.reshape(T.sum(prod, axis=3), (n, cm, h, w))


def _mlp(layers, v):
    for i, layer in enumerate(layers):
        if i > 0:
            v = T.relu(v)
        v = T.linear(v, layer.w, layer.b)
    return v


def _gather(t, k, slot_order):
    tu = T.unfold(t, k)
    return tu if slot_order is None else T.take(tu, slot_order, axis=2)


def reference_pairwise(x, params, slot_order=None):
    cfg, d = params.cfg, params.dims.d
    n, _, h, w = x.shape
    k = cfg.footprint
    q = T.linear(x, params.w_query, params.b_query)
    ku = _gather(T.linear(x, params.w_key, params.b_key), k, slot_order)
    vu = _gather(T.linear(x, params.w_value), k, slot_order)
    qe = T.reshape(q, (n, d, 1, h, w))
    rel = {
        "summation": lambda: T.add(qe, ku),
        "subtraction": lambda: T.sub(qe, ku),
        "hadamard": lambda: T.mul(qe, ku),
        "concatenation": lambda: T.concat([T.broadcast_to(qe, ku.shape), ku], axis=1),
        "dot": lambda: T.sum(T.mul(qe, ku), axis=1, keepdims=True),
    }[cfg.relation]()
    if cfg.position != "none":
        p = position_map(h, w, params.w_pos, x.dtype)
        pu = _gather(p, k, slot_order)
        pos = T.sub(T.reshape(p, (1, 2, 1, h, w)), pu) if cfg.position == "relative" else pu
        rel = T.concat([rel, T.broadcast_to(pos, (n, 2, k * k, h, w))], axis=1)
    return _gathered_aggregate(_mlp(params.mlp, rel), vu)


def reference_patchwise(x, params):
    cfg, d, groups = params.cfg, params.dims.d, params.dims.groups
    n, _, h, w = x.shape
    k, k2 = cfg.footprint, cfg.footprint ** 2
    q = T.linear(x, params.w_query, params.b_query)
    ku = T.unfold(T.linear(x, params.w_key, params.b_key), k)
    vu = T.unfold(T.linear(x, params.w_value), k)
    if cfg.relation == "star_product":
        rel = T.sum(T.mul(T.reshape(q, (n, d, 1, h, w)), ku), axis=1)
    elif cfg.relation == "clique_product":
        qj = T.reshape(T.unfold(q, k), (n, d, k2, 1, h, w))
        rel = T.sum(T.mul(qj, T.reshape(ku, (n, d, 1, k2, h, w))), axis=1)
        rel = T.reshape(rel, (n, k2 * k2, h, w))
    else:
        kt = T.transpose(ku, (0, 2, 1, 3, 4))
        rel = T.concat([q, T.reshape(kt, (n, k2 * d, h, w))], axis=1)
    wts = T.reshape(_mlp(params.mlp, rel), (n, k2, groups, h, w))
    return _gathered_aggregate(T.transpose(wts, (0, 2, 1, 3, 4)), vu)


def reference_scalar(x, params):
    cfg, d = params.cfg, params.dims.d
    n, _, h, w = x.shape
    q = T.linear(x, params.w_query, params.b_query)
    ku = T.unfold(T.linear(x, params.w_key, params.b_key), cfg.footprint)
    vu = T.unfold(T.linear(x, params.w_value), cfg.footprint)
    scores = T.sum(T.mul(T.reshape(q, (n, d, 1, h, w)), ku), axis=1, keepdims=True)
    if cfg.normalize:
        scores = T.softmax(scores, axis=2)
    return _gathered_aggregate(scores, vu)


def _params(rng, k, **cfg):
    """Float64 layer with every parameter, biases included, drawn at random;
    ``share`` and the perceptron depth are drawn for every family and passed
    to those that read them."""
    drawn = {"share": int(rng.choice([1, 2, 8])), "mlp_depth": int(rng.integers(1, 4))}
    read = FAMILY_FIELDS[cfg.get("family", "pairwise")]
    cfg.update({f: v for f, v in drawn.items() if f in read})
    params = VectorAttention(16, AttentionConfig(footprint=k, r1=4, r2=2, **cfg),
                             rng, dtype=np.float64)
    for _, p in params.named_parameters():
        p.data = rng.normal(scale=0.5, size=p.shape)
    return params


def _output_and_grads(op, x, params, proj):
    x.grad = None
    for _, p in params.named_parameters():
        p.grad = None
    out = op(x, params)
    T.sum(T.mul(out, Tensor(proj))).backward()
    grads = {"x": x.grad.copy()}
    grads.update({name: p.grad.copy() for name, p in params.named_parameters()})
    return out.data, grads


def _rel_err(got, want):
    scale = np.abs(want).max()
    assert scale > 0, "reference is identically zero: the comparison would be vacuous"
    return np.abs(got - want).max() / scale


def _assert_two_sided(op, reference, make_layer, seed, shapes=SHAPES):
    rng = np.random.default_rng(seed)
    for n, h, w, k in shapes:
        params = make_layer(rng, k)
        x = Tensor(rng.normal(size=(n, 16, h, w)), requires_grad=True)
        proj = rng.uniform(-1.0, 1.0, size=(n, params.dims.cm, h, w))
        got, got_grads = _output_and_grads(op, x, params, proj)
        want, want_grads = _output_and_grads(reference, x, params, proj)
        case = f"shape {(n, 16, h, w)} k={k} share={params.cfg.share}"
        assert _rel_err(got, want) <= REL_TOL, f"output, {case}"
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert _rel_err(got_grads[name], g) <= REL_TOL, f"d/d{name}, {case}"


@pytest.mark.parametrize("ordered", [False, True], ids=["slots", "slot_order"])
@pytest.mark.parametrize("position", POSITION_MODES)
@pytest.mark.parametrize("relation", PAIRWISE_RELATIONS)
def test_pairwise_matches_gathered_reference(relation, position, ordered):
    def make_layer(rng, k):
        params = _params(rng, k, relation=relation, position=position)
        params.slot_order = tuple(rng.permutation(k * k).tolist()) if ordered else None
        return params

    _assert_two_sided(lambda x, p: pairwise_attention(x, p, slot_order=p.slot_order),
                      lambda x, p: reference_pairwise(x, p, slot_order=p.slot_order),
                      make_layer, seed=PAIRWISE_RELATIONS.index(relation))


@pytest.mark.parametrize("relation", PATCHWISE_RELATIONS)
def test_patchwise_matches_gathered_reference(relation):
    _assert_two_sided(patchwise_attention, reference_patchwise,
                      lambda rng, k: _params(rng, k, family="patchwise", relation=relation),
                      seed=10 + PATCHWISE_RELATIONS.index(relation), shapes=PATCHWISE_SHAPES)


@pytest.mark.parametrize("normalize", [False, True])
def test_scalar_matches_gathered_reference(normalize):
    _assert_two_sided(patchwise_attention, reference_scalar,
                      lambda rng, k: _params(rng, k, family="scalar", relation="dot",
                                             normalize=normalize),
                      seed=20 + normalize)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def test_slot_aggregate_rejects_a_footprint_that_does_not_match_the_weights():
    w = Tensor(np.zeros((1, 2, 9, 3, 3)))
    x, w_value = Tensor(np.zeros((1, 4, 3, 3))), Tensor(np.eye(4))
    with pytest.raises(T.DimensionError):
        T.slot_aggregate(w, x, w_value, 5)
    with pytest.raises(T.DimensionError):
        T.slot_aggregate(w, x, w_value, 3, slots=[0] * 9)
    # weights, neighbor, tail layer (w, b) and value weight shapes that do not
    # fit x [N, 4, 3, 3], N the weights' batch, and Cm = 4 values
    for weights, neighbor, mlp, value in [
        ((1, 2, 9, 3, 3), (1, 3, 3, 3), (), (4, 4)),                # neighbor width is not D
        ((1, 2, 9, 3, 3), (2, 2, 3, 3), (), (4, 4)),                # neighbor batch is not N
        ((3, 2, 9, 3, 3), (2, 2, 3, 3), (), (4, 4)),                # neighbor batch neither 1 nor N
        ((1, 2, 9, 3, 3), (1, 2, 3, 2), (), (4, 4)),                # neighbor map of another size
        ((1, 2, 4, 3, 3), (1, 2, 3, 3), (), (4, 4)),                # neither one slot nor K
        ((1, 2, 1, 3, 3), None, [((2, 3), (2,))], (4, 4)),          # tail input width is not D
        ((1, 2, 1, 3, 3), None, [((2, 2), (2,)), ((2, 3), (2,))], (4, 4)),  # layers do not chain
        ((1, 2, 1, 3, 3), None, [((2, 2), (3,))], (4, 4)),          # bias length is not the width
        ((1, 2, 1, 3, 3), (1, 2, 3, 3), [((3, 2), (3,))], (4, 4)),  # G = 3 does not divide Cm = 4
        ((1, 2, 9, 3, 3), None, (), (4, 3)),                        # value weight reads 3 channels
    ]:
        tail = [(_zeros(*ws), _zeros(*bs)) for ws, bs in mlp]
        with pytest.raises(T.DimensionError):
            T.slot_aggregate(_zeros(*weights), _zeros(weights[0], 4, 3, 3), _zeros(*value), 3,
                             mlp=tail, neighbor=None if neighbor is None else _zeros(*neighbor))


def _aggregate_and_grads(weights, x, w_value, neighbor, tail, k, slots, proj):
    """One ``slot_aggregate`` call on fresh leaves: its output with the
    weight, input and neighbor gradients, and the value weight and
    perceptron tail gradients."""
    leaves = [Tensor(a, requires_grad=True) for a in (weights, x, neighbor) if a is not None]
    layers = [(Tensor(wt, requires_grad=True), Tensor(bt, requires_grad=True)) for wt, bt in tail]
    wv = Tensor(w_value, requires_grad=True)
    out = T.slot_aggregate(leaves[0], leaves[1], wv, k, slots=slots,
                           neighbor=leaves[2] if neighbor is not None else None, mlp=layers)
    T.sum(T.mul(out, Tensor(proj))).backward()
    per_image = [out.data] + [t.grad for t in leaves]
    return per_image, [wv.grad] + [t.grad for pair in layers for t in pair]


# (weights, neighbor, widths D, ..., G): per-slot [N, G, K, H, W] weights as
# patchwise and scalar pass them, the per-slot product term of Hadamard and
# dot under a tail layer, and shared [N, D, 1, H, W] weights with a
# full-batch neighbor under one or two tail layers
SPLIT_CASES = [("per-slot", False, (4,)), ("per-slot", False, (3, 4)),
               ("shared", True, (3, 4)), ("shared", True, (3, 5, 4))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ordered", [False, True], ids=["slots", "slot_order"])
@pytest.mark.parametrize("weights_kind,has_neighbor,widths", SPLIT_CASES,
                         ids=["per-slot", "per-slot-tail", "shared-tail1", "shared-tail2"])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_split_batch_matches_per_image_calls(n, weights_kind, has_neighbor, widths, ordered,
                                             dtype):
    """A batch of two or more runs as two halves, one on a worker thread.  It
    must equal the per-image calls concatenated, bit for bit, in the output and
    the weight, input and neighbor gradients, and their sum over the batch in
    the value weight and tail gradients.  Two identical calls agree bit for
    bit."""
    rng = np.random.default_rng(40 + n)
    k, h, w, d, g = 3, 4, 5, widths[0], widths[-1]

    def draw(*shape):
        return rng.normal(size=shape).astype(dtype)

    if weights_kind == "per-slot":  # a strided view, as patchwise's transpose leaves it
        weights = draw(n, k * k, d, h, w).transpose(0, 2, 1, 3, 4)
    else:
        weights = draw(n, d, 1, h, w)
    x, w_value, proj = draw(n, 3, h, w), draw(2 * g, 3), draw(n, 2 * g, h, w)
    neighbor = draw(n, d, h, w) if has_neighbor else None
    tail = [(draw(fan_out, fan_in), draw(fan_out))
            for fan_in, fan_out in zip(widths[:-1], widths[1:])]
    slots = list(rng.permutation(k * k)) if ordered else None

    def call(part):
        return _aggregate_and_grads(weights[part], x[part], w_value,
                                    None if neighbor is None else neighbor[part],
                                    tail, k, slots, proj[part])

    whole, whole_tail = call(slice(None))
    again, again_tail = call(slice(None))
    images = [call(slice(i, i + 1)) for i in range(n)]
    for got, repeat, parts in zip(whole, again, zip(*(maps for maps, _ in images))):
        assert np.array_equal(got, np.concatenate(parts))
        assert np.array_equal(got, repeat)
    for got, repeat, parts in zip(whole_tail, again_tail, zip(*(grads for _, grads in images))):
        assert np.array_equal(got, np.sum(parts, axis=0))
        assert np.array_equal(got, repeat)


def reference_slot_loop(weights, x, neighbor, tail, k, slots, g):
    """``slot_aggregate``'s output and input gradient for an identity value
    weight, by an explicit float32 slot loop over the zero-padded values:
    ``o += a_s[:, :, None] * v[window_s]`` in slot order, then the scatter
    ``gv[window_s] += g * a_s[:, :, None]`` in footprint order."""
    n, c, h, w = x.shape
    pad = (k - 1) // 2
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    order = list(range(k * k)) if slots is None else [int(s) for s in slots]
    nb = None if neighbor is None else np.pad(neighbor, pads)

    def window(s):
        dy, dx = divmod(order[s], k)
        return Ellipsis, slice(dy, dy + h), slice(dx, dx + w)

    def a(s):
        a_s = weights[:, :, s if weights.shape[2] > 1 else 0]
        if nb is not None:
            a_s = a_s + nb[window(s)]
        for wt, bt in tail:
            a_s = np.einsum("od,ndhw->nohw", wt, np.maximum(a_s, 0)) + bt[:, None, None]
        return a_s

    groups = a(0).shape[1]
    v = np.pad(x, pads).reshape(n, groups, c // groups, h + 2 * pad, w + 2 * pad)
    o = np.zeros((n, groups, c // groups, h, w), np.float32)
    for s in range(k * k):
        o += a(s)[:, :, None] * v[window(s)]
    gv = np.zeros(v.shape, np.float32)
    g5 = g.reshape(o.shape)
    for s in np.argsort(order):
        gv[window(s)] += g5 * a(s)[:, :, None]
    return o.reshape(x.shape), gv.reshape(n, c, h + 2 * pad, w + 2 * pad)[:, :, pad:-pad, pad:-pad]


@pytest.mark.parametrize("ordered", [False, True], ids=["slots", "slot_order"])
@pytest.mark.parametrize("depth", [0, 1], ids=["no-tail", "tail1"])
@pytest.mark.parametrize("weights_kind", ["per-slot", "shared"])
@pytest.mark.parametrize("n", [1, 3])
def test_slot_aggregate_rounds_as_the_explicit_slot_loop(n, weights_kind, depth, ordered):
    """Output and input gradient equal the explicit float32 slot loop bit for
    bit, so the slot products round as ``a_s * v`` and every sum runs in the
    same order.  The value weight is the identity and the weights, neighbor
    and tail are integers, so the values, ``a_s`` and ``dx`` carry no rounding
    of their own and only the products and the slot sums are compared."""
    rng = np.random.default_rng(60 + n)
    k, c, h, w, d = 3, 6, 4, 5, 3

    def ints(*shape):
        return rng.integers(-3, 4, size=shape).astype(np.float32)

    weights = ints(n, d, k * k if weights_kind == "per-slot" else 1, h, w)
    neighbor = ints(n, d, h, w) if weights_kind == "shared" else None
    tail = [(ints(d, d), ints(d))] if depth else []
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    proj = rng.normal(size=(n, c, h, w)).astype(np.float32)
    slots = list(rng.permutation(k * k)) if ordered else None

    (out, _, gx, *_), _ = _aggregate_and_grads(weights, x, np.eye(c, dtype=np.float32),
                                               neighbor, tail, k, slots, proj)
    want, want_gx = reference_slot_loop(weights, x, neighbor, tail, k, slots, proj)
    assert np.array_equal(_bits(out), _bits(want))
    assert np.array_equal(_bits(gx), _bits(want_gx))


def reference_max_pool(x, k, stride, pad):
    """Window maximum through a copied window stack, plus its gradient map.

    ``argmax`` over the ``[N, C, Ho, Wo, k*k]`` copy picks the first maximal
    slot (a NaN beats every number).  The returned function routes an output
    gradient to that slot's input, summed slot by slot in row-major order.
    """
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2:4]
    flat = windows.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=-1)

    def route(g):
        gx = np.zeros_like(padded)
        for s in range(k * k):
            dy, dx = divmod(s, k)
            gx[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += g * (arg == s)
        return gx[:, :, pad : pad + h, pad : pad + w]

    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], route


def _bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_matches_argmax_reference_bit_for_bit(dtype):
    """Integer-valued maps with signed zeros make ties common; every fifth
    case holds one NaN.  Output and input gradient must equal the reference
    bit for bit, and the untaped output must equal the taped one."""
    rng = np.random.default_rng(30)
    for case in range(60):
        k, stride, pad = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 2))
        h, w = rng.choice(np.arange(max(1, k - 2 * pad), 10), size=2, replace=False)
        x = rng.integers(-2, 3, size=(int(rng.integers(1, 3)), 3, h, w)).astype(dtype)
        x[x == 0] *= rng.choice(np.array([-1, 1], dtype), size=int((x == 0).sum()))
        if case % 5 == 0:
            x.flat[rng.integers(x.size)] = np.nan
        label = f"case {case}: shape {x.shape} k={k} stride={stride} pad={pad}"
        want, route = reference_max_pool(x, k, stride, pad)
        g = rng.normal(size=want.shape).astype(dtype)

        xt = Tensor(x, requires_grad=True)
        out = T.max_pool(xt, k, stride, pad)
        assert out.shape == want.shape and out.dtype == want.dtype, label
        with np.errstate(invalid="ignore"):  # the loss itself may be NaN
            T.sum(T.mul(out, Tensor(g))).backward()
        with T.no_grad():
            untaped = T.max_pool(Tensor(x), k, stride, pad)

        assert np.array_equal(_bits(out.data), _bits(want)), f"output, {label}"
        assert np.array_equal(_bits(xt.grad), _bits(route(g))), f"gradient, {label}"
        assert np.array_equal(_bits(untaped.data), _bits(out.data)), f"no_grad output, {label}"


# One float32 training step of san-tiny may drift from the same step in
# float64 by rounding alone.  Fixed from float32's unit roundoff (6e-8)
# with room for the step's reductions (batch-norm statistics over 65,536
# values per channel, 25-slot sums): the loss within 1e-5 of itself, each
# gradient and updated parameter tensor within 1e-3 (~8,000 ulps) of its
# largest entry.  Tensors whose exact gradient is zero (a bias feeding batch
# norm) are measured against 1e-3 of the step's largest entry instead.
DRIFT_LOSS = 1e-5
DRIFT_REL = 1e-3
DRIFT_FLOOR = 1e-3


def _drift(got, want):
    scale = max(np.abs(w).max() for w in want)
    return max(np.abs(g - w).max() / max(np.abs(w).max(), DRIFT_FLOOR * scale)
               for g, w in zip(got, want))


def test_float32_training_step_stays_near_float64():
    spec = named_spec("san-tiny")
    data = make_blobs(train_per_class=8, val_per_class=1, seed=4)
    x = data.normalize(augment_batch(data.train_images[:64], np.random.default_rng(5)))
    labels = data.train_labels[:64]
    cfg = TrainConfig()
    start = {name: p.data for name, p in build_model(spec, seed=4).named_parameters()}
    rng = np.random.default_rng(6)
    for name, w in start.items():
        # residual units start as the identity; open them so attention is on the path
        if name.endswith("expand.w"):
            bound = np.sqrt(6.0 / w.shape[1])
            start[name] = rng.uniform(-bound, bound, w.shape).astype(np.float32)

    def step(dtype):
        model = build_model(spec, seed=4, dtype=dtype)
        for name, p in model.named_parameters():
            p.data = start[name].astype(dtype)
        loss = cross_entropy_smoothed(model(Tensor(x.astype(dtype))), labels,
                                      cfg.label_smoothing)
        loss.backward()
        grads = [p.grad.astype(np.float64) for p in model.parameters()]
        SGD(model.parameters(), cfg.momentum, cfg.weight_decay).step(cfg.base_lr)
        return float(loss.data), grads, [p.data.astype(np.float64) for p in model.parameters()]

    loss32, grads32, params32 = step(np.float32)
    loss64, grads64, params64 = step(np.float64)
    assert all(np.abs(g).max() > 0 for name, g in zip(start, grads64) if ".attention." in name)
    assert abs(loss32 - loss64) <= DRIFT_LOSS * abs(loss64)
    assert _drift(grads32, grads64) <= DRIFT_REL
    assert _drift(params32, params64) <= DRIFT_REL
