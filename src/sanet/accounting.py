"""The one walk over a network's units, and their analytic parameter and
multiply-accumulate counts.

``unit_plan`` decides which units a spec builds, in forward order, and
yields each one's ``CostReport`` name, stage, constructor and counts.
``models`` builds and runs a network from the constructors and records
the names; ``cost_report`` lists the counts.  The counts come from
per-unit formulas that allocate no tensors, so ``verify_against_runtime``
can compare them with a built network's arrays.  The MAC convention: one
multiply-add counts 1; counted work is linear/convolution contractions,
the relation and perceptron stages of attention (per location, and per
slot where the computation is per-slot), and the slot aggregation
(``K * Cm`` per location).  Normalization, activations, pooling, and
softmax are excluded.  Parameter counts include every trainable scalar:
weights, biases, batch-norm affines, and position linears.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from .attention import AttentionConfig, attention_dims, mlp_widths
from .blocks import (BatchNorm, Bottleneck, Classifier, ConvStem, SelfAttentionBlock, Stem,
                     Transition)
from .tensor import ConfigError

if TYPE_CHECKING:
    from .models import ModelSpec


@dataclass
class LayerCost:
    name: str
    params: int
    macs: int


@dataclass
class CostReport:
    model: str
    input_hw: int
    breakdown: list[LayerCost] = field(default_factory=list)

    @property
    def params(self) -> int:
        return sum(item.params for item in self.breakdown)

    @property
    def macs(self) -> int:
        return sum(item.macs for item in self.breakdown)

    def to_dict(self) -> dict:
        return {**asdict(self), "params": self.params, "macs": self.macs}

    def to_table(self) -> str:
        width = max([len(b.name) for b in self.breakdown] + [len("layer"), len("total")])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'macs':>14}"]
        for b in self.breakdown:
            lines.append(f"{b.name:<{width}}  {b.params:>12,}  {b.macs:>14,}")
        lines.append(f"{'total':<{width}}  {self.params:>12,}  {self.macs:>14,}")
        return "\n".join(lines)


def linear_params(c_in: int, c_out: int, bias: bool = True) -> int:
    return c_in * c_out + (c_out if bias else 0)


def mlp_params(widths: list[int]) -> int:
    return sum(linear_params(a, b) for a, b in zip(widths[:-1], widths[1:]))


def attention_block_cost(channels: int, cfg: AttentionConfig, hw: int) -> tuple[int, int]:
    """(params, macs) of one self-attention residual block at ``hw**2`` locations."""
    dims = attention_dims(channels, cfg)
    d, cm, slots = dims.d, dims.cm, dims.slots
    s = hw * hw

    params = 2 * channels                      # entry norm affine
    params += 2 * linear_params(channels, d)   # query and key maps
    params += linear_params(channels, cm, bias=False)  # value map
    macs = s * channels * d * 2 + s * channels * cm

    widths = mlp_widths(cfg, dims)             # none for scalar attention
    params += mlp_params(widths)
    per_pass = sum(a * b for a, b in zip(widths[:-1], widths[1:]))
    passes = s * slots if cfg.family == "pairwise" else s
    macs += passes * per_pass
    if cfg.family == "pairwise":
        macs += s * slots * (d if cfg.relation != "concatenation" else 0)
        if cfg.position != "none":
            params += 4                        # 2x2 position linear
            macs += 4 * s
            if cfg.position == "relative":
                macs += 2 * slots * s          # per-slot coordinate differences
    elif cfg.relation == "clique_product":
        macs += s * slots * slots * d
    elif cfg.relation != "concatenation":      # star product and scalar dot: slot scores
        macs += s * slots * d
    # patchwise concatenation has no relation stage: its first layer,
    # counted above, runs as a query map plus a k x k key convolution

    macs += s * slots * cm                     # weighted slot aggregation
    params += 2 * cm                           # mid norm affine
    params += linear_params(cm, channels)      # expansion
    macs += s * cm * channels
    return params, macs


def bottleneck_cost(c_in: int, width: int, stride: int, hw_in: int) -> tuple[int, int]:
    """(params, macs) of one pre-activation bottleneck."""
    c_out = 4 * width
    hw_out = -(-hw_in // stride)  # the padded strided convolutions round up
    s_in, s_out = hw_in * hw_in, hw_out * hw_out
    params = 2 * c_in + c_in * width           # bn1 + conv1
    params += 2 * width + 9 * width * width    # bn2 + conv2
    params += 2 * width + width * c_out        # bn3 + conv3
    macs = s_in * c_in * width + s_out * 9 * width * width + s_out * width * c_out
    if c_in != c_out or stride != 1:
        params += c_in * c_out
        macs += s_out * c_in * c_out
    return params, macs


def unit_plan(spec: ModelSpec, input_hw: int | None = None):
    """Yield ``(name, stage, build, (params, macs))`` for every unit ``spec``
    describes, in forward order, counted at ``input_hw`` (the spec's own by
    default).  ``stage`` is None for the stem, ``bn_out`` and the classifier;
    ``build(rng, dtype)`` makes the unit."""
    hw = spec.input_hw if input_hw is None else input_hw
    c = spec.stem_channels
    if spec.arch == "resnet":
        hw = -(-hw // 2)  # stride-2 stem convolution, padded, so the extent rounds up
        yield "stem", None, partial(ConvStem, c), (3 * c * 49, 3 * c * 49 * hw * hw)
        hw = -(-hw // 2)  # padded stem max pool
    else:
        yield "stem", None, partial(Stem, c), (linear_params(3, c), 3 * c * hw * hw)
    for si, st in enumerate(spec.stages):
        blocks = []
        if spec.arch == "resnet":
            for bi in range(st.blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                blocks.append((partial(Bottleneck, c, st.channels, stride),
                               bottleneck_cost(c, st.channels, stride, hw)))
                c, hw = 4 * st.channels, -(-hw // stride)
        else:
            if si > 0 or spec.first_transition:
                if hw % 2:
                    raise ConfigError(f"stage {si + 1} transition needs an even extent, got {hw}")
                hw //= 2
                yield (f"stage{si + 1}.transition", si, partial(Transition, c, st.channels),
                       (2 * c + linear_params(c, st.channels), c * st.channels * hw * hw))
            c, cfg = st.channels, replace(spec.attention, footprint=st.footprint)
            blocks = [(partial(SelfAttentionBlock, c, cfg), attention_block_cost(c, cfg, hw))]
            blocks *= st.blocks
        for bi, (build, cost) in enumerate(blocks):
            yield f"stage{si + 1}.block{bi + 1}", si, build, cost
    if spec.arch == "resnet":
        yield "bn_out", None, lambda rng, dtype: BatchNorm(c, dtype), (2 * c, 0)
    yield "classifier", None, partial(Classifier, c, spec.classes), (
        linear_params(c, spec.classes), c * spec.classes)


def cost_report(spec: ModelSpec, input_hw: int | None = None) -> CostReport:
    hw = spec.input_hw if input_hw is None else input_hw
    return CostReport(spec.name, hw, [LayerCost(name, *cost)
                                      for name, _, _, cost in unit_plan(spec, hw)])


def verify_against_runtime(spec: ModelSpec) -> dict:
    """Cross-check symbolic parameter counts against a built model, exactly.

    Returns a report dict; ``report["matches"]`` is False when any unit
    disagrees, with the offending units listed.  Both sides walk the same
    ``unit_plan``, so they agree on the unit names by construction.
    """
    from .models import build_model

    symbolic = cost_report(spec)
    model = build_model(spec)  # parameter counts do not depend on the seed
    mismatches = [{"layer": b.name, "symbolic": b.params, "runtime": unit.param_count()}
                  for b, (_, unit) in zip(symbolic.breakdown, model.units)
                  if b.params != unit.param_count()]
    total_runtime = model.param_count()
    return {
        "model": spec.name,
        "symbolic_params": symbolic.params,
        "runtime_params": total_runtime,
        "matches": not mismatches and symbolic.params == total_runtime,
        "mismatches": mismatches,
    }
