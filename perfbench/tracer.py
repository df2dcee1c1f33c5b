"""Span tracer that times sanet's layers from outside the package.

``Tracer.install`` replaces the public functions of ``sanet.tensor``,
``sanet.attention`` and ``sanet.data``, plus ``sanet.tensor.backward`` and
the ``forward`` of each named residual unit of one model, with wrappers
that record a span around every call.  ``Tracer.uninstall`` puts the
originals back, so an untraced op runs the package's own code unchanged.
Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, block, attention, out_bytes]``:
``parent`` is the index of the enclosing span (-1 at the root), ``block``
and ``attention`` name the residual unit and attention operator that were
active when the span began.  The backward closure a primitive stores on
its output node is wrapped too; its span (``tensor.<p>.bwd``) carries the
block and operator that were active when the node was *created*, so
backward time is attributed to the layer that produced the node.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Primitives that build a node themselves.  ``mean`` and ``hadamard`` only
# delegate to these, so their time already shows as their callees' spans.
PRIMITIVES = (
    "add", "sub", "mul", "neg", "scale", "sum", "relu", "reshape", "transpose",
    "broadcast_to", "take", "concat", "linear", "batch_norm", "softmax",
    "log_softmax", "unfold", "max_pool", "slot_aggregate", "global_avg_pool",
)
# Primitives reported one by one; the rest count toward coverage only.
REPORTED_PRIMITIVES = (
    "linear", "unfold", "slot_aggregate", "batch_norm", "relu", "max_pool",
    "concat", "sub", "broadcast_to",
)
ATTENTION_OPS = ("pairwise_attention", "conv2d")
TRAINING_PHASES = ("data", "forward", "loss", "backward", "optimizer")
# Spans that only group other spans; time they spend themselves is work
# no layer span accounts for, reported as the uncovered remainder.
CONTAINERS = frozenset(("op", "models.predict", "training.forward", "training.backward"))

NAME, START, END, PARENT, BLOCK, ATTN, OUT_BYTES = range(7)
MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._block = None
        self._attn = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin(self, name, block=None, attn=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           block or self._block, attn or self._attn, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers ----------------------------------------------------------

    def _primitive(self, name, fn):
        span_name = "tensor." + name
        bwd_name = span_name + ".bwd"

        def traced(*args, **kwargs):
            idx = self.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.spans[idx][OUT_BYTES] = out.data.nbytes
            if out._backward is not None:
                out._backward = self._backward_closure(bwd_name, out._backward)
            return out

        return traced

    def _backward_closure(self, name, fn):
        block, attn = self._block, self._attn

        def traced(g):
            idx = self.begin(name, block, attn)
            try:
                return fn(g)
            finally:
                self.end(idx)

        return traced

    def _scoped(self, span_name, fn, block=None, attn=None):
        def traced(*args, **kwargs):
            prev = self._block, self._attn
            self._block, self._attn = block or prev[0], attn or prev[1]
            idx = self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._block, self._attn = prev

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self, sn, units):
        """Wrap the package's layer entry points; ``units`` is [(name, module)]."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name in PRIMITIVES:
            self._patch(sn.tensor, name, self._primitive(name, getattr(sn.tensor, name)))
        self._patch(sn.tensor, "backward", self._scoped("tensor.backward", sn.tensor.backward))
        for name in ATTENTION_OPS:
            fn = getattr(sn.attention, name)
            self._patch(sn.attention, name, self._scoped("attention." + name, fn, attn=name))
        self._patch(sn.data, "augment_batch",
                    self._scoped("data.augment_batch", sn.data.augment_batch))
        self._patch(sn.models, "predict", self._scoped("models.predict", sn.models.predict))
        for name, unit in units:
            # an instance attribute shadows the class's forward for this unit only
            self._patch(unit, "forward", self._scoped("blocks." + name, unit.forward, block=name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class NullTracer:
    """Stand-in with the tracer's span interface that records nothing."""

    @contextmanager
    def span(self, name):
        yield


def op_metrics(spans, root, stop):
    """Per-layer totals of one op from ``spans[root:stop]``, rooted at its ``op`` span."""
    m = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans[root + 1 : stop]:
        child_time[s[PARENT]] += s[END] - s[START]
    for i in range(root, stop):
        s = spans[i]
        name, dur = s[NAME], (s[END] - s[START]) * 1e3
        if name in CONTAINERS:
            m["trace.uncovered_ms"] += dur - child_time[i] * 1e3
        if name.endswith(".bwd"):
            m[name[:-4] + ".bwd_ms"] += dur
            if s[BLOCK]:
                m[f"blocks.{s[BLOCK]}.bwd_ms"] += dur
            if s[ATTN]:
                m[f"attention.{s[ATTN]}.bwd_ms"] += dur
            m["tensor.backward.nodes"] += 1
        elif name == "tensor.backward":
            m["tensor.backward.self_ms"] += dur - child_time[i] * 1e3
        elif name.startswith(("tensor.", "attention.")):
            m[name + ".fwd_ms"] += dur
            m[name + ".calls"] += 1
            m[name + ".out_mib"] += s[OUT_BYTES] / MIB
        elif name.startswith("blocks."):
            m[name + ".fwd_ms"] += dur
        elif name.startswith("training."):
            m[name + "_ms"] += dur
        elif name == "data.augment_batch":
            m["data.augment_batch.ms"] += dur
    op = spans[root]
    m["op_ms"] = (op[END] - op[START]) * 1e3
    return m


def spans_to_json(spans):
    t0 = spans[0][START] if spans else 0.0
    return [
        {"name": s[NAME], "start_ms": (s[START] - t0) * 1e3, "end_ms": (s[END] - t0) * 1e3,
         "parent": s[PARENT], "block": s[BLOCK], "attention": s[ATTN]}
        for s in spans
    ]
