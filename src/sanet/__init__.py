"""Self-attention networks for image recognition.

A small, self-contained stack: a numpy tensor core with reverse-mode
autodiff, local pairwise and patchwise vector-attention operators (scalar
dot-product attention runs as the patchwise star product without a
perceptron) plus a convolution baseline, residual blocks and full network
builders, analytical parameter/MAC accounting, a desk-scale training loop,
and rotation/adversarial robustness probes.
"""

from .tensor import (
    ConfigError,
    DimensionError,
    Tensor,
    UsageError,
    backward,
    no_grad,
)
from .attention import (
    AttentionConfig,
    PAIRWISE_RELATIONS,
    PATCHWISE_RELATIONS,
    conv2d,
    pairwise_attention,
    patchwise_attention,
)
from .models import ModelSpec, build_model, load_checkpoint, save_checkpoint
from .accounting import CostReport, cost_report, verify_against_runtime

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "ConfigError",
    "CostReport",
    "DimensionError",
    "ModelSpec",
    "PAIRWISE_RELATIONS",
    "PATCHWISE_RELATIONS",
    "Tensor",
    "UsageError",
    "backward",
    "build_model",
    "conv2d",
    "cost_report",
    "load_checkpoint",
    "no_grad",
    "pairwise_attention",
    "patchwise_attention",
    "save_checkpoint",
    "verify_against_runtime",
]
