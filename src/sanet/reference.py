"""Naive per-pixel, per-slot reference implementations.

These loops exist to cross-check the vectorized operators and are kept
deliberately independent of them: neighborhoods are fetched by direct
index arithmetic (out-of-bounds features are zero) instead of the unfold
primitive, and the weight perceptron is evaluated with plain ``np.dot``.
Everything runs on raw numpy arrays.  ``naive_linear`` is the one
per-pixel channel map, and the three attention families share one
footprint walk (``_footprint_walk``); each supplies only its weight rule.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .attention import (
    DEFAULT_RELATION,
    FAMILY_FIELDS,
    AttentionConfig,
    Conv2d,
    VectorAttention,
)
from .gradcheck import SWEEP_CASES, result_record, select_cases
from .tensor import ConfigError, Tensor, no_grad


def naive_linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Apply a channel linear pixel by pixel."""
    n, _, h, w = x.shape
    out = np.zeros((n, weight.shape[0], h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                out[b, :, i, j] = weight @ x[b, :, i, j]
                if bias is not None:
                    out[b, :, i, j] += bias
    return out


def naive_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None,
                 stride: int = 1) -> np.ndarray:
    n, c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    pad = (k - 1) // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, c_out, ho, wo), dtype=x.dtype)
    for b in range(n):
        for oi in range(ho):
            for oj in range(wo):
                for dy in range(k):
                    for dx in range(k):
                        ii = oi * stride + dy - pad
                        jj = oj * stride + dx - pad
                        if not (0 <= ii < h and 0 <= jj < w):
                            continue
                        out[b, :, oi, oj] += kernel[:, :, dy, dx] @ x[b, :, ii, jj]
                if bias is not None:
                    out[b, :, oi, oj] += bias
    return out


def _mlp_vector(params: VectorAttention, v: np.ndarray) -> np.ndarray:
    for idx, layer in enumerate(params.mlp):
        if idx > 0:
            v = np.maximum(v, 0)
        v = layer.w.data @ v + layer.b.data
    return v


def naive_position_map(h: int, w: int, w_pos: np.ndarray, dtype) -> np.ndarray:
    out = np.zeros((2, h, w), dtype=dtype)
    for i in range(h):
        for j in range(w):
            ci = -1.0 + 2.0 * i / (h - 1) if h > 1 else 0.0
            cj = -1.0 + 2.0 * j / (w - 1) if w > 1 else 0.0
            out[:, i, j] = w_pos @ np.array([ci, cj], dtype=dtype)
    return out


def _neighbor(feat: np.ndarray, b: int, ii: int, jj: int) -> np.ndarray:
    """Feature vector at (ii, jj), zero outside the map."""
    _, c, h, w = feat.shape
    if 0 <= ii < h and 0 <= jj < w:
        return feat[b, :, ii, jj]
    return np.zeros(c, dtype=feat.dtype)


def pairwise_relation_vector(qi: np.ndarray, kj: np.ndarray, kind: str) -> np.ndarray:
    """Combine one (center query, neighbor key) feature pair.

    Output length: the feature length for summation/subtraction/hadamard,
    twice it for concatenation (query half first), and 1 for dot.
    """
    if qi.shape != kj.shape:
        raise ValueError(f"feature lengths differ: {qi.shape} vs {kj.shape}")
    if kind == "summation":
        return qi + kj
    if kind == "subtraction":
        return qi - kj
    if kind == "hadamard":
        return qi * kj
    if kind == "concatenation":
        return np.concatenate([qi, kj])
    if kind == "dot":
        return np.array([qi @ kj], dtype=qi.dtype)
    raise ValueError(f"unknown pairwise relation {kind!r}")


def patch_relation_vector(qi: np.ndarray, q_slots: list[np.ndarray],
                          k_slots: list[np.ndarray], kind: str) -> np.ndarray:
    """Summarize a whole patch of query/key features into one vector.

    Star-product: one ``qi . k_j`` scalar per slot.  Clique-product: one
    ``q_j . k_k`` scalar per ordered slot pair, (j, k) row-major.
    Concatenation: the center query followed by each slot's key features.
    """
    slots = len(k_slots)
    if kind == "star_product":
        return np.array([qi @ k_slots[s] for s in range(slots)], dtype=qi.dtype)
    if kind == "clique_product":
        return np.array(
            [q_slots[j] @ k_slots[k] for j in range(slots) for k in range(slots)],
            dtype=qi.dtype,
        )
    if kind == "concatenation":
        return np.concatenate([qi] + list(k_slots))
    raise ValueError(f"unknown patchwise relation {kind!r}")


def _footprint_walk(x: np.ndarray, params: VectorAttention, combine) -> np.ndarray:
    """Shared loop of the naive attentions, ``y_i = sum_s weight_s * value_s``.

    Builds the query/key/value maps pixel by pixel, then at each location
    gathers every footprint slot's query, key and value vectors, row-major
    and zero outside the map.  ``combine(qi, qs, ks, center, at)`` is the
    family's weight rule: from the center query ``qi``, the slots' queries
    and keys, the center ``(i, j)`` and the slots' coordinates, it returns
    one weight per slot, a scalar or a length-``Cm`` vector.
    """
    k, pad = params.cfg.footprint, (params.cfg.footprint - 1) // 2
    n, _, h, w = x.shape
    q = naive_linear(x, params.w_query.data, params.b_query.data)
    kf = naive_linear(x, params.w_key.data, params.b_key.data)
    v = naive_linear(x, params.w_value.data)
    out = np.zeros((n, params.dims.cm, h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                at = [(i + dy - pad, j + dx - pad) for dy in range(k) for dx in range(k)]
                qs, ks, vs = ([_neighbor(f, b, ii, jj) for ii, jj in at] for f in (q, kf, v))
                acc = np.zeros(params.dims.cm, dtype=x.dtype)
                for weight, vv in zip(combine(q[b, :, i, j], qs, ks, (i, j), at), vs):
                    acc += weight * vv
                out[b, :, i, j] = acc
    return out


def naive_pairwise_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    cfg = params.cfg
    pos = None
    if cfg.position != "none":
        pos = naive_position_map(x.shape[2], x.shape[3], params.w_pos.data, x.dtype)[None]

    def weights(qi, qs, ks, center, at):
        for kj, (ii, jj) in zip(ks, at):
            rel = pairwise_relation_vector(qi, kj, cfg.relation)
            if pos is not None:
                pj = _neighbor(pos, 0, ii, jj)
                pvec = pos[0, :, center[0], center[1]] - pj if cfg.position == "relative" else pj
                rel = np.concatenate([rel, pvec])
            yield np.repeat(_mlp_vector(params, rel), cfg.share)

    return _footprint_walk(x, params, weights)


def naive_patchwise_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    cfg, groups = params.cfg, params.dims.groups

    def weights(qi, qs, ks, center, at):
        flat = _mlp_vector(params, patch_relation_vector(qi, qs, ks, cfg.relation))
        # slot-major: one group-width block per slot
        return [np.repeat(flat[s * groups : (s + 1) * groups], cfg.share) for s in range(len(ks))]

    return _footprint_walk(x, params, weights)


def naive_scalar_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    def weights(qi, qs, ks, center, at):
        scores = np.array([qi @ kj for kj in ks], dtype=qi.dtype)
        if params.cfg.normalize:
            e = np.exp(scores - scores.max())
            scores = e / e.sum()
        return scores

    return _footprint_walk(x, params, weights)


# ---------------------------------------------------------------------------
# oracle sweep: vectorized operators vs the loops above, random cases
# ---------------------------------------------------------------------------

_NAIVE = {
    "pairwise": naive_pairwise_attention,
    "patchwise": naive_patchwise_attention,
    "scalar": naive_scalar_attention,
}


def _random_attention_case(family: str, rel: str, rng: np.random.Generator):
    k = int(rng.choice([1, 3, 5]))
    drawn = {"share": int(rng.choice([1, 2, 4]))}  # drawn for every family: one rng stream
    if family == "pairwise":
        drawn["position"] = str(rng.choice(["none", "absolute", "relative"]))
    if family == "scalar":
        drawn["normalize"] = bool(rng.integers(0, 2))
    cfg = AttentionConfig(family=family, relation=rel, footprint=k, r1=4, r2=2,
                          **{f: v for f, v in drawn.items() if f in FAMILY_FIELDS[family]})
    params = VectorAttention(16, cfg, rng, dtype=np.float64)
    shape = (int(rng.integers(1, 3)), 16, int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    x = rng.normal(0.0, 1.0, shape)
    with no_grad():
        fast = params.forward(Tensor(x)).data
    return float(np.max(np.abs(fast - _NAIVE[family](x, params))))


def _random_conv_case(rng: np.random.Generator) -> float:
    k = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    c_in, c_out = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    conv = Conv2d(c_in, c_out, k, stride=stride, bias=bool(rng.integers(0, 2)),
                  rng=rng, dtype=np.float64)
    shape = (int(rng.integers(1, 3)), c_in, int(rng.integers(3, 8)), int(rng.integers(3, 8)))
    x = rng.normal(0.0, 1.0, shape)
    with no_grad():
        fast = conv.forward(Tensor(x)).data
    bias = conv.bias.data if conv.bias is not None else None
    return float(np.max(np.abs(fast - naive_conv2d(x, conv.kernel.data, bias, stride=stride))))


# the first row of each (kind, relation) that gradcheck sweeps, blocks aside
ORACLE_CASES = tuple(dict.fromkeys((k, r, None) for k, r, _ in SWEEP_CASES if k != "block"))
DEFAULT_CASES = 20  # random cases per operator
ORACLE_TOL = 1e-10


def _oracle_case(family: str, rel: str | None, cases: int, tol: float, seed) -> dict:
    rng = np.random.default_rng(seed)
    if family == "conv":
        name, draw = "conv", partial(_random_conv_case, rng)
    else:
        rel = rel or DEFAULT_RELATION[family]
        name, draw = f"{family}/{rel}", partial(_random_attention_case, family, rel, rng)
    diffs = [draw() for _ in range(cases)]
    return result_record(name, "max_abs_diff", diffs, tol, cases=cases)


def plan_oracle_sweep(kind: str | None = None, relation: str | None = None,
                      cases: int = DEFAULT_CASES, tol: float = ORACLE_TOL, seed: int = 0) -> list:
    """Select the operators now; return one zero-argument fast-vs-naive comparison each."""
    if cases < 1:
        raise ConfigError(f"oracle needs at least one case per operator, got {cases}")
    rows = select_cases(ORACLE_CASES, "oracle", kind, relation)
    return [partial(_oracle_case, family, rel, cases, tol, [seed, index])
            for index, (family, rel, _) in enumerate(rows)]
