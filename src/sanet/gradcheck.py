"""Central finite-difference verification of the reverse-mode gradients.

Each check builds a scalar probe ``loss = sum(output * projection)`` with
a fixed random projection, computes analytic leaf gradients with one
backward pass, then re-derives every leaf coordinate's gradient from two
forward evaluations at ``x +- DEFAULT_STEP``.  Checks run in float64.  This sweep
and the naive-loop oracle share one case filter, ``select_cases``, and one
plain-dict result record, ``result_record``, in which a NaN error fails.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor as T
from .attention import (
    DEFAULT_RELATION,
    FAMILY_FIELDS,
    PAIRWISE_RELATIONS,
    PATCHWISE_RELATIONS,
    POSITION_MODES,
    AttentionConfig,
    Conv2d,
    VectorAttention,
)
from .tensor import ConfigError, Tensor, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
CHECK_SHAPE = (1, 16, 5, 5)
CHECK_FOOTPRINT = 3
SWEEP_SEED = 7  # draws each case's module, probe input and projection


def select_cases(table, label: str, kind: str | None = None,
                 relation: str | None = None, position: str | None = None) -> list:
    """Matching ``(kind, relation, position)`` rows.  A relation filter drops
    rows without a relation; a position filter narrows only rows with one."""
    rows = [(k, r, p) for k, r, p in table
            if kind in (None, k) and relation in (None, r)
            and (position is None or p in (None, position))]
    if not rows:
        raise ConfigError(f"{label} filter matched no cases")
    return rows


def result_record(name: str, metric: str, errors, tol: float, **extra) -> dict:
    """A verification case: ``metric`` is the worst of ``errors``, folded so
    that a NaN error is the worst and fails the case."""
    worst = float(np.max(list(errors), initial=0.0))
    return {"name": name, metric: worst, "tol": tol, "passed": worst <= tol, **extra}


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm relative disagreement between two gradient estimates."""
    num = float(np.max(np.abs(analytic - numeric))) if analytic.size else 0.0
    den = max(float(np.max(np.abs(analytic), initial=0.0)),
              float(np.max(np.abs(numeric), initial=0.0)), 1e-12)
    return num / den


def check_gradients(build, leaves: dict[str, Tensor], name: str = "case",
                    tol: float = DEFAULT_TOL, seed: int = 0) -> dict:
    """Compare backward() gradients of ``build()`` against finite differences.

    ``build`` must return the operator output as a function of the current
    contents of ``leaves`` (the same Tensor objects are perturbed in place
    for the numeric estimate).
    """
    rng = np.random.default_rng(seed)
    out = build()
    proj = rng.uniform(-1.0, 1.0, out.shape)

    for leaf in leaves.values():
        leaf.grad = None
    loss = T.sum(T.mul(build(), Tensor(proj)))
    loss.backward()
    analytic = {
        lname: (leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data))
        for lname, leaf in leaves.items()
    }

    def probe() -> float:
        with no_grad():
            return float((build().data * proj).sum())

    per_leaf = {}
    for lname, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DEFAULT_STEP
            f_plus = probe()
            flat[i] = orig - DEFAULT_STEP
            f_minus = probe()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * DEFAULT_STEP)
        per_leaf[lname] = relative_error(analytic[lname].reshape(-1), numeric)
    return result_record(name, "max_rel_error", per_leaf.values(), tol, per_leaf=per_leaf)


# ---------------------------------------------------------------------------
# operator sweep
# ---------------------------------------------------------------------------


def _check_config(family: str, relation: str, position: str = "none",
                  normalize: bool = False) -> AttentionConfig:
    # channels=16 at the check shape: r1=4 -> width 4, r2=2 -> value width 8
    fields = {"share": 2, "position": position, "normalize": normalize}
    return AttentionConfig(
        family=family, relation=relation, footprint=CHECK_FOOTPRINT, r1=4, r2=2,
        **{f: v for f, v in fields.items() if f in FAMILY_FIELDS[family]},
    )


def _case(name: str, module, rng: np.random.Generator):
    """``(name, build, leaves)`` for ``module`` on a probe input drawn now."""
    x = Tensor(rng.normal(0.0, 1.0, CHECK_SHAPE), requires_grad=True)
    return name, (lambda: module.forward(x)), {"x": x, **dict(module.named_parameters())}


def attention_case(family: str, relation: str, position: str = "none",
                   normalize: bool = False, *, seed: int):
    cfg = _check_config(family, relation, position, normalize)
    rng = np.random.default_rng(seed)
    params = VectorAttention(CHECK_SHAPE[1], cfg, rng, dtype=np.float64)
    tag = f"{family}/{relation}"
    if family == "pairwise":
        tag += f"/{position}"
    if family == "scalar":
        tag = f"scalar/{'softmax' if normalize else 'raw'}"
    return _case(tag, params, rng)


def conv_case(seed: int):
    rng = np.random.default_rng(seed)
    conv = Conv2d(CHECK_SHAPE[1], 8, CHECK_FOOTPRINT, bias=True, rng=rng, dtype=np.float64)
    return _case("conv/3x3", conv, rng)


def block_cases(seed: int):
    from .blocks import Bottleneck, SelfAttentionBlock

    rng = np.random.default_rng(seed)
    cfg = _check_config("pairwise", "subtraction", position="relative")
    sab = SelfAttentionBlock(CHECK_SHAPE[1], cfg, rng, dtype=np.float64)
    # zero-initialized expansion would mask the attention path in the check
    sab.expand.w.data[...] = rng.normal(0.0, 0.2, sab.expand.w.shape)
    attention = _case("block/self-attention", sab, rng)
    bott = Bottleneck(CHECK_SHAPE[1], 4, rng=rng, dtype=np.float64)
    bott.conv3.kernel.data[...] = rng.normal(0.0, 0.2, bott.conv3.kernel.shape)
    return [attention, _case("block/bottleneck", bott, rng)]


SWEEP_CASES = (
    [("pairwise", rel, pos) for rel in PAIRWISE_RELATIONS for pos in POSITION_MODES]
    + [("patchwise", rel, None) for rel in PATCHWISE_RELATIONS]
    + [("scalar", None, None), ("conv", None, None), ("block", None, None)]
)


def sweep_cases(kind: str | None = None, relation: str | None = None,
                position: str | None = None, seed: int = SWEEP_SEED):
    """Every operator/relation/position combination, optionally filtered."""
    cases = []
    for k, rel, pos in select_cases(SWEEP_CASES, "gradcheck", kind, relation, position):
        if k == "scalar":
            cases += [attention_case(k, DEFAULT_RELATION[k], normalize=n, seed=seed)
                      for n in (False, True)]
        elif k == "conv":
            cases.append(conv_case(seed=seed))
        elif k == "block":
            cases += block_cases(seed=seed)
        else:
            cases.append(attention_case(k, rel, position=pos or "none", seed=seed))
    return cases


def plan_sweep(kind: str | None = None, relation: str | None = None,
               position: str | None = None, tol: float = DEFAULT_TOL,
               seed: int = SWEEP_SEED) -> list:
    """Select the cases now; return one zero-argument check per case."""
    return [partial(check_gradients, build, leaves, name=name, tol=tol, seed=seed)
            for name, build, leaves in sweep_cases(kind, relation, position, seed=seed)]
