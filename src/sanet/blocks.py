"""Residual building blocks: self-attention blocks, convolutional
bottlenecks, stage transitions, stems, and the classifier head.

All residual blocks are pre-activation (normalize and rectify before the
operator; ``BatchNorm`` does both in one primitive) and zero-initialize
their final expansion map, so a freshly built block is exactly the
identity.  That last layer also writes the residual sum (``add=``).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, Conv2d, Linear, VectorAttention, attention_dims
from .module import Module, ones_param, zeros_param
from .tensor import DimensionError, Tensor


class BatchNorm(Module):
    """Batch normalization followed by a ReLU, ``max(gamma * xhat + beta, 0)``.

    Every normalization in these networks feeds a rectifier, so the two are
    one primitive (``tensor.batch_norm``) and no pre-activation copy is kept.
    """

    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.gamma = ones_param((channels,), dtype)
        self.beta = zeros_param((channels,), dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=self.training,
        )


class SelfAttentionBlock(Module):
    """Residual unit around one attention operator.

    The operator input is normalized and rectified, attention reduces the
    width to ``Cm``, and a final linear expands back to ``C`` and adds the
    block input.
    """

    def __init__(self, channels: int, cfg: AttentionConfig, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.channels = channels
        dims = attention_dims(channels, cfg)
        self.bn_in = BatchNorm(channels, dtype)
        self.attention = VectorAttention(channels, cfg, rng, dtype)
        self.bn_mid = BatchNorm(dims.cm, dtype)
        self.expand = Linear(dims.cm, channels, rng=None, dtype=dtype)  # zero init

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn_in(x)
        h = self.attention(h)
        return self.expand(self.bn_mid(h), add=x)


class Bottleneck(Module):
    """Pre-activation 1x1 -> 3x3 -> 1x1 convolutional residual unit."""

    def __init__(self, c_in: int, width: int, stride: int = 1,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        c_out = 4 * width
        self.c_out = c_out
        self.bn1 = BatchNorm(c_in, dtype)
        self.conv1 = Conv2d(c_in, width, 1, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm(width, dtype)
        self.conv2 = Conv2d(width, width, 3, stride=stride, rng=rng, dtype=dtype)
        self.bn3 = BatchNorm(width, dtype)
        self.conv3 = Conv2d(width, c_out, 1, rng=None, dtype=dtype)  # zero init
        if c_in != c_out or stride != 1:
            self.proj = Conv2d(c_in, c_out, 1, stride=stride, rng=rng, dtype=dtype)
        else:
            self.proj = None

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1(x)
        h = self.conv1(h)
        h = self.bn2(h)
        h = self.conv2(h)
        shortcut = x if self.proj is None else self.proj(x)
        return self.conv3(self.bn3(h), add=shortcut)


class Transition(Module):
    """Stage bridge: BN, ReLU, 2x2 stride-2 max pool, channel expansion."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.bn = BatchNorm(c_in, dtype)
        self.linear = Linear(c_in, c_out, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn(x)
        _, _, height, width = h.shape
        if height % 2 or width % 2:
            raise DimensionError(
                f"transition pooling needs even spatial extents, got {height}x{width}"
            )
        return self.linear(T.max_pool(h, 2, 2))


class Stem(Module):
    """Pointwise image-to-feature map, ``[N, 3, H, W] -> [N, C, H, W]``."""

    def __init__(self, c_out: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.linear = Linear(3, c_out, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(x)


class ConvStem(Module):
    """ResNet entry: 7x7 stride-2 convolution, then 3x3 stride-2 max pool."""

    def __init__(self, c_out: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(3, c_out, 7, stride=2, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.max_pool(self.conv(x), 3, 2, pad=1)


class Classifier(Module):
    """Global average pool followed by a linear map to class logits."""

    def __init__(self, c_in: int, classes: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.linear = Linear(c_in, classes, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(T.global_avg_pool(x))
