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

Feature maps use NCHW layout throughout.  A graph runs in one dtype, float64
for verification (gradient checks, oracle comparisons) or float32 for
training: an operand of another dtype is rejected, never cast (``_node``).

Every image of a batch is computed on its own, except that batch norm
couples images through its per-channel statistics.  So ``linear``,
``max_pool`` and ``slot_aggregate`` run a batch of two or more images as
two halves, and ``batch_norm`` runs such a batch as two halves of its
channels: the first half on one lazily started worker thread, the second
on the calling thread, so that both cores of a small host work while numpy
and BLAS release the GIL (see ``_in_halves``).  Each half writes only its
own slice of the output and the gradients.  Batch-1 calls, such as
inference on one image and ``sanet gradcheck``, start no thread, and the
other primitives run on the calling thread.  The split is always two
halves, whatever the core count, and a split call is bit for bit its
one-part run, so results do not depend on the machine.

``slot_aggregate`` takes the attention input and its value weight, not a
value map: it projects the values in each half and again in backward, so no
value map stays on the tape.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np


class DimensionError(ValueError):
    """Operand shapes or dtypes are incompatible with the requested operation."""


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
    """Wrap a forward result, recording parents when grads are live; one graph, one dtype."""
    out = Tensor(data)
    for p in parents:
        if p.dtype != out.dtype:
            raise DimensionError(f"{backward_fn.__qualname__.split('.')[0]}: a {p.dtype} "
                                 f"operand in a {out.dtype} graph")
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
    to the output) are summed in place, so no sum node keeps the output
    alive.  The backward reads ``x`` and ``weight``, never the output.

    A batch of ``N >= 2`` runs as two halves of its images (see
    ``_in_halves``): each half maps its images and adds the bias and the
    addend, and in backward writes its images of the input gradient and of
    the per-image weight products, which the calling thread then sums over
    the batch.
    """
    if x.data.ndim < 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"linear: x channels {x.shape} incompatible with weight {weight.shape}"
        )
    shape = x.shape
    n, c_out = shape[0], weight.shape[0]
    out_shape = (n, c_out) + shape[2:]
    x3 = x.data.reshape(n, shape[1], -1)  # [N, Cin, R]
    parents, terms = [x, weight], []
    if bias is not None:
        if bias.shape != (c_out,):
            raise DimensionError("linear: bias length must equal output channels")
        parents.append(bias)
        terms.append(bias.data.reshape((1, -1) + (1,) * (x.data.ndim - 2)))
    if add is not None:
        if add.data.ndim > len(out_shape) or any(
                a not in (1, o) for a, o in zip(add.shape[::-1], out_shape[::-1])):
            raise DimensionError(f"linear: addend {add.shape} does not broadcast to {out_shape}")
        parents.append(add)
        terms.append(add.data)
    data = np.empty(out_shape, x.dtype)

    def forward(lo, hi):
        o = data[lo:hi]
        np.matmul(weight.data, x3[lo:hi], out=o.reshape(hi - lo, c_out, -1))
        for t in terms:  # the bias, then the addend
            o += t[lo:hi] if t.ndim == o.ndim and t.shape[0] == n else t

    _in_halves(forward, n, n >= 2)

    def bwd(g):
        g3 = g.reshape(n, c_out, -1)
        gx = np.empty((n,) + x3.shape[1:], g.dtype)
        gw = np.empty((n,) + weight.shape, g.dtype)  # per image

        def backward(lo, hi):
            np.matmul(weight.data.T, g3[lo:hi], out=gx[lo:hi])
            np.matmul(g3[lo:hi], np.moveaxis(x3[lo:hi], 1, 2), out=gw[lo:hi])

        _in_halves(backward, n, n >= 2)
        grads = [gx.reshape(shape), gw.sum(axis=0)]
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
    finite.  Training mode sums the batch mean in one einsum pass, centres
    ``x`` on it once, into the output buffer, sums the biased ``var`` from
    it in one more, and updates the running buffers with momentum
    ``BN_MOMENTUM``.  Eval mode reads the running buffers and folds the
    mean into the shift, ``x * scale + (beta - mean * scale)``, in three
    passes.  The ReLU is applied in place, so no pre-activation copy is
    kept: the backward masks the incoming gradient with ``out > 0`` and
    rebuilds ``x - mean`` from the input, as in-place activated batch norm
    does (arXiv:1712.02616).  Its one training-only term, the gradient
    through the batch statistics ``dx -= scale / M * (dbeta + xhat * dgamma)``
    over the ``M`` values of each channel (arXiv:1502.03167), is folded
    into that map in place.

    Channels are normalized independently, so a batch of ``N >= 2`` with
    ``C >= 2`` channels runs as two halves of its channels, forward and
    backward (see ``_in_halves``); each half does its own channels'
    statistics, running-buffer update and gradients.  Every reduction is a
    ``"nchw->c"`` einsum, which sums a channel slice as it sums the whole
    map.
    """
    if x.data.ndim != 4:
        raise DimensionError("batch_norm expects an NCHW tensor")
    n, c = x.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("batch_norm: affine parameter length must equal channels")
    dtypes = {a.dtype.name for a in (gamma.data, beta.data, running_mean, running_var)}
    if dtypes != {x.dtype.name}:  # before any running buffer moves
        raise DimensionError(f"batch_norm: dtypes {sorted(dtypes)} in a {x.dtype} graph")
    m = x.data.size // c
    # the running mean is copied, as it may move before backward
    stats = () if training else (running_mean.copy(), running_var)
    data = np.empty(x.shape, x.dtype)
    gamma4, beta4 = (t.data.reshape(1, c, 1, 1) for t in (gamma, beta))

    def forward(lo, hi):
        """Normalize channels ``lo:hi``; return their mean, 1 / std and scale."""
        xs, out = x.data[:, lo:hi], data[:, lo:hi]
        if training:
            mean = np.einsum("nchw->c", xs) / m
            np.subtract(xs, mean.reshape(1, -1, 1, 1), out=out)
            var = np.einsum("nchw,nchw->c", out, out) / m
            running_mean[lo:hi] = (1.0 - BN_MOMENTUM) * running_mean[lo:hi] + BN_MOMENTUM * mean
            running_var[lo:hi] = (1.0 - BN_MOMENTUM) * running_var[lo:hi] + BN_MOMENTUM * var
        else:
            mean, var = stats[0][lo:hi], stats[1][lo:hi]
        mean = mean.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + BN_EPS)
        scale = gamma4[:, lo:hi] * inv_std
        if training:
            out *= scale
            out += beta4[:, lo:hi]
        else:
            np.multiply(xs, scale, out=out)
            out += beta4[:, lo:hi] - mean * scale
        np.maximum(out, 0, out=out)
        return mean, inv_std, scale

    split = n >= 2 and c >= 2
    mean, inv_std, scale = (np.concatenate(t, axis=1)
                            for t in zip(*_in_halves(forward, c, split)))

    def bwd(g):
        gx = np.empty(g.shape, g.dtype)

        def mask(lo, hi):
            np.multiply(g[:, lo:hi], data[:, lo:hi] > 0, out=gx[:, lo:hi])

        _in_halves(mask, c, split)
        rebuilt = np.empty(x.shape, x.dtype)  # after the masks, so the peak stays at two maps

        def backward(lo, hi):
            """Fill channels ``lo:hi`` of ``dx``; return their ``dgamma``, ``dbeta``."""
            gs, centered = gx[:, lo:hi], rebuilt[:, lo:hi]
            np.subtract(x.data[:, lo:hi], mean[:, lo:hi], out=centered)
            inv, sc = inv_std[:, lo:hi], scale[:, lo:hi]
            dgamma = np.einsum("nchw,nchw->c", gs, centered).reshape(1, -1, 1, 1) * inv
            dbeta = np.einsum("nchw->c", gs).reshape(1, -1, 1, 1)
            gs *= sc
            if training:
                centered *= sc / m * inv * dgamma
                centered += sc / m * dbeta
                gs -= centered
            return dgamma.reshape(-1), dbeta.reshape(-1)

        dgamma, dbeta = (np.concatenate(t) for t in zip(*_in_halves(backward, c, split)))
        return gx, dgamma, dbeta

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


_worker: list[ThreadPoolExecutor] = []  # the one thread that runs the first half of a split
if hasattr(os, "register_at_fork"):  # a forked child has no copy of the thread: drop the pool
    os.register_at_fork(after_in_child=_worker.clear)


def _in_halves(part_fn, n: int, split: bool) -> list:
    """Run ``part_fn(lo, hi)`` over ``[0, n)``; return its results in order.

    ``[0, n)`` indexes the axis a primitive splits: images for ``linear``,
    ``max_pool`` and ``slot_aggregate``, channels for ``batch_norm``.
    Unsplit, ``part_fn(0, n)`` runs on the calling thread.  Split,
    ``[0, n // 2)`` runs on the one worker thread, in a copy of the caller's
    context so that numpy's error state holds there too, while
    ``[n // 2, n)`` runs on the calling thread.  The worker's part is always
    waited for, also when the caller's part raises; the worker's exception,
    if any, is raised here.

    One rule makes a split call bit for bit its one-part run: each part
    writes only its own slice of buffers that the caller allocated, and
    every sum across the split axis (a weight gradient summed over the
    images, say) runs on the calling thread after the parts, over the
    whole buffer, as one part would have summed it.
    """
    if not split:
        return [part_fn(0, n)]
    if not _worker:
        _worker.append(ThreadPoolExecutor(max_workers=1, thread_name_prefix="sanet-half"))
    first = _worker[0].submit(contextvars.copy_context().run, part_fn, 0, n // 2)
    try:
        second = part_fn(n // 2, n)
    finally:
        wait((first,))
    return [first.result(), second]


def footprint_windows(k: int, ho: int, wo: int, stride: int = 1, slots=None,
                      who: str = "footprint_windows") -> list[tuple]:
    """The index ``(..., rows, cols)`` of each slot's window in a map padded
    for a k*k footprint: the ``ho x wo`` locations, ``stride`` apart, that
    slot ``s`` reads at footprint offset ``divmod(s, k)`` (row-major), or at
    ``divmod(slots[s], k)`` when ``slots`` is given, which must permute
    range(k*k).  Every footprint walk in this module goes through it."""
    k2 = k * k
    order = range(k2) if slots is None else [int(s) for s in slots]
    if sorted(order) != list(range(k2)):
        raise DimensionError(f"{who}: slots must permute range({k2})")
    return [(Ellipsis, slice(dy, dy + stride * ho, stride), slice(dx, dx + stride * wo, stride))
            for dy, dx in (divmod(s, k) for s in order)]


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
    windows = footprint_windows(k, ho, wo, stride)
    if k == 1:
        data = src[windows[0]][:, :, None]  # one slot: a view, no copy
        data.flags.writeable = False
    else:
        data = np.empty((n, c, k * k, ho, wo), src.dtype)
        for s, window in enumerate(windows):
            data[:, :, s] = src[window]

    def bwd(g):
        buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), g.dtype)
        for s, window in enumerate(windows):
            buf[window] += g[:, :, s]
        return (buf[:, :, pad : pad + h, pad : pad + w],)

    return _node(data, (x,), bwd)


def max_pool(x: Tensor, k: int = 2, stride: int = 2, pad: int = 0) -> Tensor:
    """Max pooling; gradient routes to the first maximal slot per window.

    The input is padded with ``-inf`` and the window maximum is folded
    over its k*k strided slices, so no ``[N, C, Ho, Wo, k*k]`` window copy
    is built.  A NaN in a window wins over every number, as with ``argmax``.
    The winning slot of each window is recorded only when the output goes
    on the tape.  A batch of ``N >= 2`` runs as two halves of its images,
    forward and backward (see ``_in_halves``): each half pads its images,
    writes their maxima and winning slots, and scatters their gradient
    into its own images of the padded gradient map.
    """
    if x.data.ndim != 4:
        raise DimensionError("max_pool expects an NCHW tensor")
    if k < 1 or stride < 1 or pad < 0:
        raise ConfigError(f"max_pool: bad window {k}, stride {stride} or pad {pad}")
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    taped = _grad_enabled and x.requires_grad
    data = np.empty((n, c, ho, wo), x.dtype)
    arg = np.zeros(data.shape, np.min_scalar_type(k * k - 1)) if taped else None
    windows = footprint_windows(k, ho, wo, stride)

    def forward(lo, hi):
        src = x.data[lo:hi]
        if pad > 0:
            src = np.pad(src, pads, constant_values=-np.inf)
        out, won = data[lo:hi], None if arg is None else arg[lo:hi]
        out[...] = src[windows[0]]
        for s, window in enumerate(windows[1:], 1):
            sl = src[window]
            if taped:
                # a later slot wins only if it is greater, or NaN over a number;
                # slots rise, so a win always raises the recorded index
                better = ~(sl <= out) & (out == out)
                np.maximum(won, better * won.dtype.type(s), out=won)
            # on a tie np.maximum keeps its second operand, the earlier slot; of
            # two NaNs it keeps the first, so only a NaN payload can differ from argmax
            np.maximum(sl, out, out=out)

    _in_halves(forward, n, n >= 2)

    def bwd(g):
        buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), g.dtype)

        def backward(lo, hi):
            gp, ap, bp = g[lo:hi], arg[lo:hi], buf[lo:hi]
            for s, window in enumerate(windows):
                bp[window] += gp * (ap == s)

        _in_halves(backward, n, n >= 2)
        return (buf[:, :, pad : pad + h, pad : pad + w],)

    return _node(data, (x,), bwd)


def slot_aggregate(weights: Tensor, x: Tensor, w_value: Tensor, k: int, slots=None,
                   neighbor: Tensor | None = None, mlp=()) -> Tensor:
    """Weighted sum of a value map over each location's k*k footprint.

    ``values = linear(x, w_value)``, with ``x`` ``[N, C, H, W]`` and the
    bias-free ``w_value`` ``[Cm, C]``, so zero-padded ``x`` gives zero-padded
    values.  Slot ``s`` pairs with footprint slot ``slots[s]`` (row-major
    offsets, identity by default), and out-of-map neighbors are zero.  Its
    weights ``a_s``, ``[N, G, H, W]`` with ``Cm`` a multiple of ``G``, each
    scale ``Cm / G`` consecutive value channels:
    ``out[n, c, i, j] = sum_s a_s[n, c // (Cm/G), i, j] * values[n, c, i + dy_s, j + dx_s]``.

    ``a_s = mlp(weights[:, :, s] + shift_s(neighbor))``.  ``weights`` is
    ``[N, D, K, H, W]`` with ``K = k*k``, or ``[N, D, 1, H, W]`` shared by
    every slot; the optional ``neighbor``, ``[N, D, H, W]`` or ``[1, D, H, W]``
    shared by every image, is read zero-padded at slot ``s``'s offset as
    ``unfold`` gathers it; ``mlp`` is a sequence of ``(w, b)`` layers from
    ``D`` to ``G`` channels, each preceded by a ReLU (none by default, so
    ``D = G``).  Each slot's weights are built, used and dropped, and
    backward builds them again, so no ``[N, D, K, H, W]`` array is kept for
    it.  Backward visits the slots in footprint order, as ``unfold``'s
    backward does, so the neighbor gradient is scattered in the same order
    as that of a gathered neighbor.

    Each half projects its images' values, one GEMM per image as in
    ``linear``, pads them and reads them through the k*k windows of
    ``footprint_windows``, so no ``[N, Cm, K, H, W]`` gather is built in
    either direction.  Each slot's product, forward and backward, is formed
    in one contiguous buffer per half: the weights are broadcast into it by
    copy and multiplied in place by the window, which rounds as
    ``a_s * window`` but never multiplies a zero-stride operand.  Backward
    projects and pads the values and the neighbor map again, so no value map
    is kept, padded or not, and maps the padded value gradient to ``dx``
    through ``w_value`` and to the ``w_value`` gradient through ``x``.

    Every image is computed on its own, so a batch of ``N >= 2`` runs as two
    fixed halves, forward and backward: images ``[0, N // 2)`` on one worker
    thread and ``[N // 2, N)`` on the calling thread, each writing only its
    own images of the output and the gradients (see ``_in_halves``).  The
    ``w_value`` and tail ``(w, b)`` gradients, and a shared neighbor's, are
    kept per image, as ``linear`` keeps its weight gradient, and summed over
    the batch once both halves are done.
    """
    if x.data.ndim != 4 or w_value.data.ndim != 2 or w_value.shape[1] != x.shape[1]:
        raise DimensionError(
            f"slot_aggregate: value weight {w_value.shape} does not map x {x.shape}")
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"footprint side must be odd and positive, got {k}")
    n, c, h, w = x.shape
    cm = w_value.shape[0]
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
            f"and layers {[wt.shape for wt, _ in mlp]} do not fit {cm} values of x {x.shape} "
            f"and footprint {k}"
        )
    share, pad = cm // groups, (k - 1) // 2
    windows = footprint_windows(k, h, w, slots=slots, who="slot_aggregate")
    per_slot = weights.shape[2] > 1
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    x3 = x.data.reshape(n, c, h * w)
    inner = (Ellipsis, slice(pad, pad + h), slice(pad, pad + w))

    def slot_weights(s, part, nb):
        """The weights of slot ``s`` for images ``part`` and the rectified
        input of each layer; ``nb`` is the padded neighbor map or None."""
        a = weights.data[part, :, s if per_slot else 0]
        m = a.shape[0]
        if nb is not None:
            a = a + nb[windows[s]]
        inputs = []
        for wt, bt in mlp:
            a = np.maximum(a, 0)
            inputs.append(a)
            a = np.matmul(wt.data[None], a.reshape(m, a.shape[1], -1)).reshape(m, -1, h, w)
            a += bt.data.reshape(1, -1, 1, 1)
        return a, inputs

    def padded(part):  # images ``part``, made again in backward, not kept on the tape
        values = np.matmul(w_value.data, x3[part]).reshape(-1, cm, h, w)
        v5 = np.pad(values, pads).reshape(-1, groups, share, h + 2 * pad, w + 2 * pad)
        nb = None if neighbor is None else neighbor.data[part if len(neighbor.data) == n else ...]
        return v5, None if nb is None else np.pad(nb, pads)  # a shared neighbor is padded whole

    parents = (weights, x, w_value) + (() if neighbor is None else (neighbor,))
    parents += tuple(t for pair in mlp for t in pair)
    out = np.zeros((n, groups, share, h, w), x.dtype)

    def weighted(prod, a, v):  # ``a[:, :, None] * v`` into ``prod``, no zero-stride operand
        np.copyto(prod, a[:, :, None])
        prod *= v
        return prod

    def aggregate(lo, hi):
        part = slice(lo, hi)
        o, (v5p, nbp) = out[part], padded(part)
        prod = np.empty(o.shape, o.dtype)
        for s, window in enumerate(windows):
            o += weighted(prod, slot_weights(s, part, nbp)[0], v5p[window])

    _in_halves(aggregate, n, n >= 2)

    def bwd(g):
        g5 = g.reshape(n, groups, share, h, w)
        gw = (np.empty if per_slot else np.zeros)(weights.shape, dtype=g.dtype)
        gx = np.empty(x3.shape, g.dtype)
        gwv = np.empty((n,) + w_value.shape, g.dtype)  # per image
        gn = None if neighbor is None else np.zeros((n, d, h + 2 * pad, w + 2 * pad), g.dtype)
        gtail = [(np.zeros((n,) + wt.shape, g.dtype), np.zeros((n,) + bt.shape, g.dtype))
                 for wt, bt in mlp]  # per image

        def accumulate(lo, hi):
            """Fill images ``lo:hi`` of every gradient, the per-image sums included."""
            part = slice(lo, hi)
            (v5p, nbp), g5p, gwp = padded(part), g5[part], gw[part]
            gv5p, prod = np.zeros(v5p.shape, g.dtype), np.empty(g5p.shape, g.dtype)
            gnp = None if gn is None else gn[part]
            for s in range(k * k) if slots is None else np.argsort(slots):  # footprint order
                a, inputs = slot_weights(s, part, nbp)
                gv5p[windows[s]] += weighted(prod, a, g5p)
                del a  # before the einsum, so the step peak does not rise
                ga = np.einsum("ngshw,ngshw->nghw", g5p, v5p[windows[s]])
                for (wt, _), r, (gwt, gbt) in zip(mlp[::-1], inputs[::-1], gtail[::-1]):
                    g3 = ga.reshape(hi - lo, ga.shape[1], -1)
                    r3 = r.reshape(hi - lo, r.shape[1], -1)
                    gwt[part] += np.matmul(g3, np.moveaxis(r3, 1, 2))
                    gbt[part] += g3.sum(axis=2)
                    ga = np.matmul(wt.data.T[None], g3).reshape(r.shape)
                    ga *= r > 0
                if per_slot:
                    gwp[:, :, s] = ga
                else:
                    gwp[:, :, 0] += ga
                if gnp is not None:
                    gnp[windows[s]] += ga
            gv = gv5p.reshape(hi - lo, cm, h + 2 * pad, w + 2 * pad)[inner].reshape(hi - lo, cm, -1)
            np.matmul(w_value.data.T, gv, out=gx[part])
            np.matmul(gv, np.moveaxis(x3[part], 1, 2), out=gwv[part])

        _in_halves(accumulate, n, n >= 2)
        grads = [gw, gx.reshape(x.shape), gwv.sum(axis=0)]
        if gn is not None:
            grads.append(_unbroadcast(gn[inner], neighbor.shape))
        return tuple(grads) + tuple(gt.sum(axis=0) for pair in gtail for gt in pair)

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
