"""Parameter containers for composing networks.

A ``Module`` auto-registers attributes by type: ``Tensor`` attributes are
trainable parameters, ``np.ndarray`` attributes are non-trainable buffers
(batch-norm running statistics), ``Module``/``ModuleList`` attributes are
children.  Registration order is attribute-assignment order, which fixes
the parameter declaration order used by checkpoints.
"""

from __future__ import annotations

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

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return int(np.sum([p.size for p in self.parameters()], dtype=np.int64))

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)


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
