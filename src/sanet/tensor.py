"""Dense tensors with reverse-mode automatic differentiation.

Everything higher up in the library (attention operators, blocks, models,
training) is composed from the primitives in this module.  Each primitive
records its inputs and a backward closure on the output tensor; calling
``backward`` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that
requires them.

Feature maps use NCHW layout throughout.  Two dtypes are supported:
float64 for verification (gradient checks, oracle comparisons) and
float32 for training.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
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

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


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


def backward(loss: Tensor):
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    The graph is traversed in reverse topological order; every node is
    visited exactly once.  ``loss`` must be a scalar produced on the tape.
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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            # accumulation is never in place: a grad array may be shared
            # between siblings on first assignment
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# elementwise and shape primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    sv = a.data.dtype.type(s)
    return _node(a.data * sv, (a,), lambda g: (g * sv,))


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(data, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return scale(sum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0)

    def bwd(g):
        return (g * (a.data > 0),)

    return _node(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _node(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _node(a.data.transpose(axes), (a,), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape)

    def bwd(g):
        return (_unbroadcast(g, a.shape),)

    return _node(data.copy(), (a,), bwd)


def take(x: Tensor, indices, axis: int) -> Tensor:
    """Index-select along one axis (gradient scatter-adds back)."""
    x = as_tensor(x)
    indices = np.asarray(indices)
    data = np.take(x.data, indices, axis=axis)

    def bwd(g):
        gx = np.zeros_like(x.data)
        dest = [slice(None)] * gx.ndim
        for pos, src in enumerate(indices):
            dest[axis] = int(src)
            sel = [slice(None)] * gx.ndim
            sel[axis] = pos
            gx[tuple(dest)] += g[tuple(sel)]
        return (gx,)

    return _node(data, (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Pointwise linear map along the channel axis.

    ``x`` is ``[N, Cin, *spatial]`` (spatial may be empty), ``weight`` is
    ``[Cout, Cin]``.  Every location is mapped independently:
    ``out[n, o, ...] = sum_i weight[o, i] * x[n, i, ...] + bias[o]``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
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
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise DimensionError("linear: bias length must equal output channels")
        data += bias.data.reshape((1, -1) + (1,) * (x.data.ndim - 2))
        parents.append(bias)

    def bwd(g):
        g3 = g.reshape(shape[0], c_out, -1)
        gx = np.matmul(weight.data.T[None], g3).reshape(shape)
        gw = np.matmul(g3, np.moveaxis(x3, 1, 2)).sum(axis=0)
        grads = [gx, gw]
        if bias is not None:
            grads.append(g3.sum(axis=(0, 2)))
        return tuple(grads)

    return _node(data, tuple(parents), bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over an NCHW feature map.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place with the given momentum; eval mode
    normalizes with the running buffers.  ``eps`` keeps the zero-variance
    case finite.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects an NCHW tensor")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm: affine parameter length must equal channels")
    axes = (0, 2, 3)
    shape = (1, c, 1, 1)

    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu.reshape(shape)) * inv_std.reshape(shape)
        data = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)

        def bwd(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            dxhat = g * gamma.data.reshape(shape)
            m1 = dxhat.mean(axis=axes).reshape(shape)
            m2 = (dxhat * xhat).mean(axis=axes).reshape(shape)
            dx = inv_std.reshape(shape) * (dxhat - m1 - xhat * m2)
            return dx, dgamma, dbeta

        return _node(data, (x, gamma, beta), bwd)

    inv_std = 1.0 / np.sqrt(running_var + eps)
    centered = x.data - running_mean.reshape(shape)
    data = gamma.data.reshape(shape) * inv_std.reshape(shape) * centered + beta.data.reshape(shape)

    def bwd_eval(g):
        dgamma = (g * centered * inv_std.reshape(shape)).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dx = g * (gamma.data * inv_std).reshape(shape)
        return dx, dgamma, dbeta

    return _node(data, (x, gamma, beta), bwd_eval)


def softmax(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (x,), bwd)


def log_softmax(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
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


def _windows(data: np.ndarray, k: int, stride: int, pad: int, fill: float) -> np.ndarray:
    """View an NCHW array as ``[N, C, Ho, Wo, k, k]`` windows."""
    if pad > 0:
        data = np.pad(
            data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill
        )
    view = sliding_window_view(data, (k, k), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


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


def unfold(x: Tensor, k: int, stride: int = 1, pad: int | None = None) -> Tensor:
    """Gather the k*k spatial neighborhood of every location.

    Output is ``[N, C, K, Ho, Wo]`` with ``K = k*k``; slot ordering is
    row-major over the footprint, and out-of-bounds slots are zero.  With
    the default padding ``(k - 1) // 2`` and stride 1 the spatial extent
    is preserved.
    """
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError("unfold expects an NCHW tensor")
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"footprint side must be odd and positive, got {k}")
    if pad is None:
        pad = (k - 1) // 2
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    win = _windows(x.data, k, stride, pad, 0.0)
    data = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c, k * k, ho, wo)

    def bwd(g):
        slots = (g[:, :, s] for s in range(k * k))
        return (_scatter_windows(slots, (n, c, h, w), k, stride, pad, g.dtype),)

    return _node(data, (x,), bwd)


def max_pool(x: Tensor, k: int = 2, stride: int = 2, pad: int = 0) -> Tensor:
    """Max pooling; gradient routes to the first maximal slot per window."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError("max_pool expects an NCHW tensor")
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    win = _windows(x.data, k, stride, pad, -np.inf)
    flat = win.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=-1)
    data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        slots = (g * (arg == s) for s in range(k * k))
        return (_scatter_windows(slots, (n, c, h, w), k, stride, pad, g.dtype),)

    return _node(data, (x,), bwd)


def slot_aggregate(weights: Tensor, values: Tensor) -> Tensor:
    """Weighted sum over footprint slots with channel-group broadcasting.

    ``weights`` is ``[N, G, K, H, W]``, ``values`` is ``[N, Cm, K, H, W]``
    with ``Cm`` a multiple of ``G``; each weight component scales
    ``Cm / G`` consecutive value channels:
    ``out[n, c, h, w] = sum_k weights[n, c // (Cm/G), k, h, w] * values[n, c, k, h, w]``.
    """
    weights, values = as_tensor(weights), as_tensor(values)
    n, cm, k2, h, w = values.shape
    groups = weights.shape[1]
    if weights.shape != (n, groups, k2, h, w) or cm % groups:
        raise DimensionError(
            f"slot_aggregate: weights {weights.shape} incompatible with values {values.shape}"
        )
    share = cm // groups
    v6 = values.data.reshape(n, groups, share, k2, h, w)
    data = np.einsum(
        "ngkhw,ngskhw->ngshw", weights.data, v6, optimize=True
    ).reshape(n, cm, h, w)

    def bwd(g):
        g6 = g.reshape(n, groups, share, h, w)
        gw = np.einsum("ngshw,ngskhw->ngkhw", g6, v6, optimize=True)
        gv = (g6[:, :, :, None] * weights.data[:, :, None]).reshape(values.shape)
        return gw, gv

    return _node(data, (weights, values), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: ``[N, C, H, W] -> [N, C]``."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError("global_avg_pool expects an NCHW tensor")
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def bwd(g):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), x.shape)
        return (gx.copy(),)

    return _node(data, (x,), bwd)
