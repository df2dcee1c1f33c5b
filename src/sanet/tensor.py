"""Dense tensors with reverse-mode automatic differentiation.

Everything higher up in the library (attention operators, blocks, models,
training) is composed from the primitives in this module.  Each primitive
records its inputs and a backward closure on the output tensor; calling
``backward`` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into every leaf that requires
them.  The walk consumes the graph: each intermediate node releases its
parents, closure and gradient as soon as it has been processed, so only
the leaves and the loss keep ``grad``, and a second backward through the
same graph raises ``UsageError``.

Feature maps use NCHW layout throughout.  Two dtypes are supported:
float64 for verification (gradient checks, oracle comparisons) and
float32 for training.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A structural parameter (footprint, reduction factor, ...) is invalid."""


class UsageError(RuntimeError):
    """The API was called in a way its contract forbids."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the context (inference, updates)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def backward(self):
        backward(self)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _node(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap a forward result, recording parents when grads are live."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _consumed(g):
    """Stands in for the closure of a node that a backward call has processed."""
    raise UsageError("backward: the graph was consumed by an earlier backward call")


def backward(loss: Tensor):
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    The graph is traversed in reverse topological order; every node is
    visited exactly once.  ``loss`` must be a scalar produced on the tape.

    The walk consumes the graph: each interior node drops its parents, its
    backward closure and its gradient as soon as it has been processed, so
    the tape is freed while backward runs.  Afterwards only the leaves and
    ``loss`` hold a ``grad``, and a second backward through any part of the
    consumed graph raises ``UsageError``.
    """
    if loss.data.size != 1:
        raise UsageError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise UsageError("backward on a detached tensor (nothing was recorded)")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed(None)  # raises UsageError
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn, parents = node._backward, node._parents
        if fn is None:  # a leaf keeps its grad
            continue
        node._backward, node._parents = _consumed, ()
        if node.grad is None:
            continue
        grads = fn(node.grad)
        if node is not loss:
            node.grad = None
        for parent, g in zip(parents, grads):
            if g is None or not parent.requires_grad:
                continue
            # accumulation is never in place: a grad array may be shared
            # between siblings on first assignment
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# elementwise and shape primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    sv = a.data.dtype.type(s)
    return _node(a.data * sv, (a,), lambda g: (g * sv,))


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def bwd(g):
        return (g * (a.data > 0),)

    return _node(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _node(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _node(a.data.transpose(axes), (a,), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    data = np.broadcast_to(a.data, shape)

    def bwd(g):
        return (_unbroadcast(g, a.shape),)

    return _node(data.copy(), (a,), bwd)


def take(x: Tensor, indices, axis: int) -> Tensor:
    """Index-select along one axis (gradient scatter-adds back)."""
    indices = np.asarray(indices)
    data = np.take(x.data, indices, axis=axis)

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None),) * axis + (indices,), g)
        return (gx,)

    return _node(data, (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _node(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# linear algebra, normalization, activations
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           add: Tensor | None = None) -> Tensor:
    """Pointwise linear map along the channel axis.

    ``x`` is ``[N, Cin, *spatial]`` (spatial may be empty), ``weight`` is
    ``[Cout, Cin]``.  Every location is mapped independently:
    ``out[n, o, ...] = sum_i weight[o, i] * x[n, i, ...] + bias[o] + add[n, o, ...]``.
    ``bias`` and ``add`` (a residual or position map, which must broadcast
    to the output) are summed in place in the wider dtype, so no sum node
    keeps the output alive.  The backward reads ``x`` and ``weight``, never the output.
    """
    if x.data.ndim < 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"linear: x channels {x.shape} incompatible with weight {weight.shape}"
        )
    shape = x.shape
    c_out = weight.shape[0]
    x3 = x.data.reshape(shape[0], shape[1], -1)  # [N, Cin, R]
    data = np.matmul(weight.data[None], x3).reshape((shape[0], c_out) + shape[2:])
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (c_out,):
            raise DimensionError("linear: bias length must equal output channels")
        data = data.astype(np.result_type(data, bias.data), copy=False)
        data += bias.data.reshape((1, -1) + (1,) * (x.data.ndim - 2))
        parents.append(bias)
    if add is not None:
        if add.data.ndim > data.ndim or any(
                a not in (1, o) for a, o in zip(add.shape[::-1], data.shape[::-1])):
            raise DimensionError(f"linear: addend {add.shape} does not broadcast to {data.shape}")
        data = data.astype(np.result_type(data, add.data), copy=False)
        data += add.data
        parents.append(add)

    def bwd(g):
        g3 = g.reshape(shape[0], c_out, -1)
        gx = np.matmul(weight.data.T[None], g3).reshape(shape)
        gw = np.matmul(g3, np.moveaxis(x3, 1, 2)).sum(axis=0)
        grads = [gx, gw]
        if bias is not None:
            grads.append(g3.sum(axis=(0, 2)))
        if add is not None:
            grads.append(_unbroadcast(g, add.shape))
        return tuple(grads)

    return _node(data, tuple(parents), bwd)


BN_MOMENTUM = 0.1  # weight of the batch statistics in each running-buffer update
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch normalization over an NCHW feature map, rectified.

    Both modes apply ``out = max((x - mean) * scale + beta, 0)`` with
    ``scale = gamma / sqrt(var + BN_EPS)``; ``BN_EPS`` keeps zero variance
    finite.  Training mode centres ``x`` on the batch mean once, into the
    output buffer, sums the biased ``var`` from it in one einsum pass, and
    updates the running buffers with momentum ``BN_MOMENTUM``.  Eval mode
    reads the running buffers and folds the mean into the shift,
    ``x * scale + (beta - mean * scale)``, in three passes.  The ReLU is
    applied in place, so no pre-activation copy is kept: the backward masks
    the incoming gradient with ``out > 0`` and rebuilds ``x - mean`` from
    the input, as in-place activated batch norm does (arXiv:1712.02616).
    Its one training-only term, the gradient through the batch statistics
    ``dx -= scale / M * (dbeta + xhat * dgamma)`` over the ``M`` values of
    each channel (arXiv:1502.03167), is folded into that map in place.
    """
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects an NCHW tensor")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm: affine parameter length must equal channels")
    axes, shape, m = (0, 2, 3), (1, c, 1, 1), x.data.size // c
    # one full-size buffer, promoted up front so the in-place steps never downcast
    stats = () if training else (running_mean, running_var)
    dtype = np.result_type(x.data, gamma.data, beta.data, *stats)
    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        data = np.subtract(x.data, mean, dtype=dtype)
        var = np.einsum("nchw,nchw->c", data, data) / m
        running_mean[...] = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean.reshape(c)
        running_var[...] = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean.reshape(shape).copy(), running_var  # may move before backward
    inv_std = 1.0 / np.sqrt(var.reshape(shape) + BN_EPS)
    scale = gamma.data.reshape(shape) * inv_std
    if training:
        data *= scale
        data += beta.data.reshape(shape)
    else:
        data = np.multiply(x.data, scale, dtype=dtype)
        data += beta.data.reshape(shape) - mean * scale
    np.maximum(data, 0, out=data)

    def bwd(g):
        g = g * (data > 0)
        centered = np.subtract(x.data, mean, dtype=dtype)
        dgamma = np.einsum("nchw,nchw->c", g, centered).reshape(shape) * inv_std
        dbeta = g.sum(axis=axes, keepdims=True)
        g *= scale
        if training:
            centered *= scale / m * inv_std * dgamma
            centered += scale / m * dbeta
            g -= centered
        return g, dgamma.reshape(c), dbeta.reshape(c)

    return _node(data, (x, gamma, beta), bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (x,), bwd)


def log_softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# spatial primitives
# ---------------------------------------------------------------------------


def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out <= 0:
        raise DimensionError(f"window of size {k} does not fit extent {size} with pad {pad}")
    return out


def _scatter_windows(slot_grads, shape, k: int, stride: int, pad: int, dtype) -> np.ndarray:
    """Sum window gradients back onto an NCHW input of ``shape``.

    ``slot_grads`` yields one ``[N, C, Ho, Wo]`` gradient per footprint
    slot, row-major; they are consumed one at a time so no stacked copy of
    all slots is ever held.
    """
    n, c, h, w = shape
    buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    for slot, sg in enumerate(slot_grads):
        dy, dx = divmod(slot, k)
        ho, wo = sg.shape[2:]
        buf[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += sg
    return buf[:, :, pad : pad + h, pad : pad + w]


def slot_offsets(k: int, slots, who: str) -> list[tuple[int, int]]:
    """Footprint offset ``(dy, dx)`` of each slot: row-major by default, or
    footprint slot ``slots[s]`` for slot ``s``; ``slots`` must permute range(k*k)."""
    k2 = k * k
    offsets = [divmod(int(s), k) for s in (range(k2) if slots is None else slots)]
    if sorted(offsets) != [divmod(s, k) for s in range(k2)]:
        raise DimensionError(f"{who}: slots must permute range({k2})")
    return offsets


def unfold(x: Tensor, k: int, stride: int = 1) -> Tensor:
    """Gather the k*k spatial neighborhood of every location.

    Output is ``[N, C, K, Ho, Wo]`` with ``K = k*k``; slot ``s`` holds the
    row-major footprint offset ``divmod(s, k)``, and out-of-bounds slots are
    zero.  The map is zero-padded by ``(k - 1) // 2``, so with stride 1 the
    spatial extent is preserved.
    """
    if x.data.ndim != 4:
        raise DimensionError("unfold expects an NCHW tensor")
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"footprint side must be odd and positive, got {k}")
    pad = (k - 1) // 2
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    src = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad > 0 else x.data
    if k == 1:
        data = src[:, :, None, ::stride, ::stride]  # one slot: a view, no copy
        data.flags.writeable = False
    else:
        data = np.empty((n, c, k * k, ho, wo), src.dtype)
        for s in range(k * k):
            dy, dx = divmod(s, k)
            data[:, :, s] = src[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]

    def bwd(g):
        per_slot = (g[:, :, s] for s in range(k * k))
        return (_scatter_windows(per_slot, (n, c, h, w), k, stride, pad, g.dtype),)

    return _node(data, (x,), bwd)


def max_pool(x: Tensor, k: int = 2, stride: int = 2, pad: int = 0) -> Tensor:
    """Max pooling; gradient routes to the first maximal slot per window.

    The input is padded once with ``-inf`` and the window maximum is folded
    over its k*k strided slices, so no ``[N, C, Ho, Wo, k*k]`` window copy
    is built.  A NaN in a window wins over every number, as with ``argmax``.
    The winning slot of each window is recorded only when the output goes
    on the tape.
    """
    if x.data.ndim != 4:
        raise DimensionError("max_pool expects an NCHW tensor")
    if k < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"max_pool: bad window {k}, stride {stride} or pad {pad}")
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    src = np.pad(x.data, pads, constant_values=-np.inf) if pad > 0 else x.data
    taped = _grad_enabled and x.requires_grad
    data = src[:, :, : stride * ho : stride, : stride * wo : stride].copy()
    arg = np.zeros(data.shape, np.min_scalar_type(k * k - 1)) if taped else None
    for s in range(1, k * k):
        dy, dx = divmod(s, k)
        sl = src[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
        if taped:
            # a later slot wins only if it is greater, or NaN over a number;
            # slots rise, so a win always raises the recorded index
            better = ~(sl <= data) & (data == data)
            np.maximum(arg, better * arg.dtype.type(s), out=arg)
        # on a tie np.maximum keeps its second operand, the earlier slot; of
        # two NaNs it keeps the first, so only a NaN payload can differ from argmax
        np.maximum(sl, data, out=data)

    def bwd(g):
        slots = (g * (arg == s) for s in range(k * k))
        return (_scatter_windows(slots, (n, c, h, w), k, stride, pad, g.dtype),)

    return _node(data, (x,), bwd)


def slot_aggregate(weights: Tensor, values: Tensor, k: int, slots=None,
                   neighbor: Tensor | None = None, mlp=()) -> Tensor:
    """Weighted sum of a value map over each location's k*k footprint.

    ``values`` is ``[N, Cm, H, W]``.  Slot ``s`` pairs with footprint slot
    ``slots[s]`` (row-major offsets, identity by default), and out-of-map
    neighbors are zero.  Its weights ``a_s``, ``[N, G, H, W]`` with ``Cm`` a
    multiple of ``G``, each scale ``Cm / G`` consecutive value channels:
    ``out[n, c, i, j] = sum_s a_s[n, c // (Cm/G), i, j] * values[n, c, i + dy_s, j + dx_s]``.

    ``a_s = mlp(weights[:, :, s] + shift_s(neighbor))``.  ``weights`` is
    ``[N, D, K, H, W]`` with ``K = k*k``, or ``[N, D, 1, H, W]`` shared by
    every slot; the optional ``neighbor`` is ``[N or 1, D, H, W]``, read
    zero-padded at slot ``s``'s offset as ``unfold`` gathers it; ``mlp`` is
    a sequence of ``(w, b)`` layers from ``D`` to ``G`` channels, each
    preceded by a ReLU (none by default, so ``D = G``).  Each slot's weights
    are built, used and dropped, and backward builds them again, so no
    ``[N, D, K, H, W]`` array is kept for it.  Backward visits the slots
    in footprint order, as ``unfold``'s backward does, so the neighbor
    gradient is scattered in the same order as that of a gathered neighbor.

    The value map is padded once and read through k*k shifted slices, so no
    ``[N, Cm, K, H, W]`` gather is built in either direction; the backward
    pads the value and neighbor maps again, so no padded copy is kept.
    """
    if values.data.ndim != 4:
        raise DimensionError("slot_aggregate expects an NCHW value map")
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"footprint side must be odd and positive, got {k}")
    n, cm, h, w = values.shape
    d = groups = weights.shape[1]
    chained = True
    for wt, bt in mlp:  # each layer maps the previous width to its own
        chained &= wt.shape[1:] == (groups,) and bt.shape == wt.shape[:1]
        groups = wt.shape[0]
    if (not chained or cm % groups
            or weights.shape not in ((n, d, k * k, h, w), (n, d, 1, h, w))
            or neighbor is not None and neighbor.shape not in ((n, d, h, w), (1, d, h, w))):
        raise DimensionError(
            f"slot_aggregate: weights {weights.shape}, neighbor {getattr(neighbor, 'shape', None)} "
            f"and layers {[wt.shape for wt, _ in mlp]} do not fit values {values.shape} "
            f"and footprint {k}"
        )
    share, pad = cm // groups, (k - 1) // 2
    offsets = slot_offsets(k, slots, "slot_aggregate")
    per_slot = weights.shape[2] > 1
    footprint_order = np.argsort([dy * k + dx for dy, dx in offsets])
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))

    def slot_weights(s, window, nb):
        """The weights of slot ``s`` and the rectified input of each layer;
        ``nb`` is the padded neighbor map or None."""
        a = weights.data[:, :, s if per_slot else 0]
        if nb is not None:
            a = a + nb[window]
        inputs = []
        for wt, bt in mlp:
            a = np.maximum(a, 0)
            inputs.append(a)
            a = np.matmul(wt.data[None], a.reshape(n, a.shape[1], -1)).reshape(n, -1, h, w)
            a += bt.data.reshape(1, -1, 1, 1)
        return a, inputs

    def padded():  # made again in backward, not kept on the tape
        v5 = np.pad(values.data, pads).reshape(n, groups, share, h + 2 * pad, w + 2 * pad)
        return v5, None if neighbor is None else np.pad(neighbor.data, pads)

    parents = (weights, values) + (() if neighbor is None else (neighbor,))
    parents += tuple(t for pair in mlp for t in pair)
    v5, nb = padded()
    out = np.zeros((n, groups, share, h, w), dtype=np.result_type(*(t.data for t in parents)))
    for s, (dy, dx) in enumerate(offsets):
        window = (Ellipsis, slice(dy, dy + h), slice(dx, dx + w))
        out += slot_weights(s, window, nb)[0][:, :, None] * v5[window]

    def bwd(g):
        g5 = g.reshape(n, groups, share, h, w)
        v5, nb = padded()
        gw = (np.empty if per_slot else np.zeros)(weights.shape, dtype=g.dtype)
        gv5 = np.zeros_like(v5, dtype=g.dtype)
        gn = None if nb is None else np.zeros_like(nb, dtype=g.dtype)
        gtail = [(np.zeros_like(wt.data, dtype=g.dtype), np.zeros_like(bt.data, dtype=g.dtype))
                 for wt, bt in mlp]
        for s in footprint_order:
            dy, dx = offsets[s]
            window = (Ellipsis, slice(dy, dy + h), slice(dx, dx + w))
            a, inputs = slot_weights(s, window, nb)
            ga = np.einsum("ngshw,ngshw->nghw", g5, v5[window])
            gv5[window] += g5 * a[:, :, None]
            for (wt, _), r, (gwt, gbt) in zip(mlp[::-1], inputs[::-1], gtail[::-1]):
                g3 = ga.reshape(n, ga.shape[1], -1)
                gwt += np.matmul(g3, np.moveaxis(r.reshape(n, r.shape[1], -1), 1, 2)).sum(axis=0)
                gbt += g3.sum(axis=(0, 2))
                ga = np.matmul(wt.data.T[None], g3).reshape(r.shape)
                ga *= r > 0
            if per_slot:
                gw[:, :, s] = ga
            else:
                gw[:, :, 0] += ga
            if gn is not None:
                gn[window] += _unbroadcast(ga, gn.shape[:2] + (h, w))
        inner = (Ellipsis, slice(pad, pad + h), slice(pad, pad + w))
        grads = [gw, gv5.reshape(n, cm, h + 2 * pad, w + 2 * pad)[inner]]
        if gn is not None:
            grads.append(gn[inner])
        return tuple(grads) + tuple(gt for pair in gtail for gt in pair)

    return _node(out.reshape(n, cm, h, w), parents, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: ``[N, C, H, W] -> [N, C]``."""
    if x.data.ndim != 4:
        raise DimensionError("global_avg_pool expects an NCHW tensor")
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def bwd(g):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), x.shape)
        return (gx.copy(),)

    return _node(data, (x,), bwd)
