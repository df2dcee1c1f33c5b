"""Parameter containers for composing networks.

A ``Module`` auto-registers attributes by type: ``Tensor`` attributes are
trainable parameters, ``np.ndarray`` attributes are non-trainable buffers
(batch-norm running statistics), ``Module``/``ModuleList`` attributes are
children.  Registration order is attribute-assignment order, which fixes
the parameter declaration order used by checkpoints.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    """Fan-in scaled uniform init, gain for ReLU nonlinearities."""
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def zeros_param(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones_param(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, np.ndarray):
            self._buffers[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_modules(self, prefix: str = ""):
        """``(prefix, module)`` for this module and every descendant, each
        before its children, in registration order."""
        yield prefix, self
        for cname, child in self._children.items():
            yield from child.named_modules(prefix + cname + ".")

    def named_parameters(self, prefix: str = ""):
        for path, m in self.named_modules(prefix):
            for name, p in m._params.items():
                yield path + name, p

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self):
        for path, m in self.named_modules():
            for name, b in m._buffers.items():
                yield path + name, b

    def train(self, mode: bool = True):
        for _, m in self.named_modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    @contextmanager
    def evaluating(self):
        """Eval mode inside the block; every module's own mode returns on any exit."""
        modes = [(m, m.training) for _, m in self.named_modules()]
        try:
            yield self.eval()
        finally:
            for m, mode in modes:
                m.training = mode

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return int(np.sum([p.size for p in self.parameters()], dtype=np.int64))

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x, **kwargs):
        return self.forward(x, **kwargs)


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        setattr(self, str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]
