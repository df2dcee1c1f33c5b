"""Analytical parameter and multiply-accumulate accounting.

Counts are exact symbolic sums over the layers a spec would build; no
tensors are allocated.  The MAC convention: one multiply-add counts 1;
counted work is linear/convolution contractions, the relation and
perceptron stages of attention (per location, and per slot where the
computation is per-slot), and the slot aggregation (``K * Cm`` per
location).  Normalization, activations, pooling, and softmax are
excluded.  Parameter counts include every trainable scalar: weights,
biases, batch-norm affines, and position linears.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attention import AttentionConfig, attention_dims, mlp_widths
from .blocks import Transition
from .models import ModelSpec, build_model
from .tensor import ConfigError


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
        return {
            "model": self.model,
            "input_hw": self.input_hw,
            "params": self.params,
            "macs": self.macs,
            "breakdown": [
                {"name": b.name, "params": b.params, "macs": b.macs}
                for b in self.breakdown
            ],
        }

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

    if cfg.family == "scalar":
        macs += s * slots * d                  # slot scores
    else:
        widths = mlp_widths(cfg, dims)
        params += mlp_params(widths)
        per_pass = sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        passes = s * slots if cfg.family == "pairwise" else s
        macs += passes * per_pass
        if cfg.family == "pairwise":
            macs += s * slots * (d if cfg.relation != "concatenation" else 0)
            if cfg.position != "none":
                params += 4                    # 2x2 position linear
                macs += 4 * s
                if cfg.position == "relative":
                    macs += 2 * slots * s      # per-slot coordinate differences
        else:
            if cfg.relation == "star_product":
                macs += s * slots * d
            elif cfg.relation == "clique_product":
                macs += s * slots * slots * d
            # patchwise concatenation is a copy

    macs += s * slots * cm                     # weighted slot aggregation
    params += 2 * cm                           # mid norm affine
    params += linear_params(cm, channels)      # expansion
    macs += s * cm * channels
    return params, macs


def bottleneck_cost(c_in: int, width: int, stride: int, hw_in: int) -> tuple[int, int, int]:
    """(params, macs, hw_out) of one pre-activation bottleneck."""
    c_out = 4 * width
    hw_out = hw_in // stride
    s_in, s_out = hw_in * hw_in, hw_out * hw_out
    params = 2 * c_in + c_in * width           # bn1 + conv1
    params += 2 * width + 9 * width * width    # bn2 + conv2
    params += 2 * width + width * c_out        # bn3 + conv3
    macs = s_in * c_in * width + s_out * 9 * width * width + s_out * width * c_out
    if c_in != c_out or stride != 1:
        params += c_in * c_out
        macs += s_out * c_in * c_out
    return params, macs, hw_out


def cost_report(spec: ModelSpec, input_hw: int | None = None) -> CostReport:
    hw = input_hw if input_hw is not None else spec.input_hw
    report = CostReport(model=spec.name, input_hw=hw)
    add = report.breakdown.append

    if spec.arch == "resnet":
        hw = hw // 2  # stride-2 stem convolution
        add(LayerCost("stem", 3 * spec.stem_channels * 49, 3 * spec.stem_channels * 49 * hw * hw))
        hw = hw // 2  # stem max pool
        prev = spec.stem_channels
        for si, st in enumerate(spec.stages):
            for bi in range(st.blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                c_in = prev if bi == 0 else 4 * st.channels
                p, m, hw = bottleneck_cost(c_in, st.channels, stride, hw)
                add(LayerCost(f"stage{si + 1}.block{bi + 1}", p, m))
            prev = 4 * st.channels
        add(LayerCost("bn_out", 2 * prev, 0))
        add(LayerCost("classifier", linear_params(prev, spec.classes), prev * spec.classes))
        return report

    add(LayerCost("stem", linear_params(3, spec.stem_channels),
                  3 * spec.stem_channels * hw * hw))
    prev = spec.stem_channels
    for si, st in enumerate(spec.stages):
        if si > 0 or spec.first_transition:
            if hw % 2:
                raise ConfigError(f"stage {si + 1} transition needs an even extent, got {hw}")
            hw = hw // 2
            p = 2 * prev + linear_params(prev, st.channels)
            add(LayerCost(f"stage{si + 1}.transition", p, prev * st.channels * hw * hw))
        cfg = spec.attention.with_footprint(st.footprint)
        for bi in range(st.blocks):
            p, m = attention_block_cost(st.channels, cfg, hw)
            add(LayerCost(f"stage{si + 1}.block{bi + 1}", p, m))
        prev = st.channels
    add(LayerCost("classifier", linear_params(prev, spec.classes), prev * spec.classes))
    return report


# Public names of the one report: parameter counts do not depend on the
# input size, MAC counts do.
count_params = count_macs = cost_report


def _runtime_units(model) -> list[tuple[str, int]]:
    units = [("stem", model.stem.param_count())]
    for si, stage in enumerate(model.stages):
        bi = 0
        for item in stage:
            if isinstance(item, Transition):
                units.append((f"stage{si + 1}.transition", item.param_count()))
            else:
                bi += 1
                units.append((f"stage{si + 1}.block{bi}", item.param_count()))
    if hasattr(model, "bn_out"):
        units.append(("bn_out", model.bn_out.param_count()))
    units.append(("classifier", model.classifier.param_count()))
    return units


def verify_against_runtime(spec: ModelSpec, seed: int = 0) -> dict:
    """Cross-check symbolic parameter counts against a built model, exactly.

    Returns a report dict; ``report["matches"]`` is False when any layer
    disagrees, with the offending layers listed.
    """
    symbolic = cost_report(spec)
    model = build_model(spec, seed=seed)
    runtime = _runtime_units(model)
    sym = [(b.name, b.params) for b in symbolic.breakdown]
    mismatches = []
    for (sname, sparams), (rname, rparams) in zip(sym, runtime):
        if sname != rname or sparams != rparams:
            mismatches.append(
                {"layer": sname, "symbolic": sparams, "runtime_layer": rname, "runtime": rparams}
            )
    if len(sym) != len(runtime):
        mismatches.append(
            {"layer": "<structure>", "symbolic": len(sym), "runtime_layer": "<structure>",
             "runtime": len(runtime)}
        )
    total_runtime = model.param_count()
    return {
        "model": spec.name,
        "symbolic_params": symbolic.params,
        "runtime_params": total_runtime,
        "matches": not mismatches and symbolic.params == total_runtime,
        "mismatches": mismatches,
    }
