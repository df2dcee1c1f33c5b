"""Naive per-pixel, per-slot reference implementations.

These loops exist to cross-check the vectorized operators and are kept
deliberately independent of them: neighborhoods are fetched by direct
index arithmetic (out-of-bounds features are zero) instead of the unfold
primitive, and the weight perceptron is evaluated with plain ``np.dot``.
Everything runs on raw numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    PAIRWISE_RELATIONS,
    PATCHWISE_RELATIONS,
    AttentionConfig,
    Conv2d,
    VectorAttention,
)
from .tensor import ConfigError, Tensor, no_grad


def naive_linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    n, c_in, h, w = x.shape
    c_out = weight.shape[0]
    out = np.zeros((n, c_out, h, w), dtype=x.dtype)
    for b in range(n):
        for o in range(c_out):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for c in range(c_in):
                        acc += weight[o, c] * x[b, c, i, j]
                    if bias is not None:
                        acc += bias[o]
                    out[b, o, i, j] = acc
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


def _pixel_map(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Apply a channel linear pixel by pixel."""
    n, _, h, ww = x.shape
    out = np.zeros((n, w.shape[0], h, ww), dtype=x.dtype)
    for bi in range(n):
        for i in range(h):
            for j in range(ww):
                out[bi, :, i, j] = w @ x[bi, :, i, j]
                if b is not None:
                    out[bi, :, i, j] += b
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


def naive_pairwise_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    k, pad = cfg.footprint, (cfg.footprint - 1) // 2
    q = _pixel_map(x, params.w_query.data, params.b_query.data)
    kf = _pixel_map(x, params.w_key.data, params.b_key.data)
    v = _pixel_map(x, params.w_value.data, None)
    pos_map = None
    if cfg.position != "none":
        pos_map = naive_position_map(h, w, params.w_pos.data, x.dtype)

    out = np.zeros((n, dims.cm, h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                acc = np.zeros(dims.cm, dtype=x.dtype)
                for dy in range(k):
                    for dx in range(k):
                        ii, jj = i + dy - pad, j + dx - pad
                        in_bounds = 0 <= ii < h and 0 <= jj < w
                        kvec = _neighbor(kf, b, ii, jj)
                        vvec = _neighbor(v, b, ii, jj)
                        rel = pairwise_relation_vector(q[b, :, i, j], kvec, cfg.relation)
                        if cfg.position != "none":
                            pj = pos_map[:, ii, jj] if in_bounds else np.zeros(2, dtype=x.dtype)
                            if cfg.position == "relative":
                                pvec = pos_map[:, i, j] - pj
                            else:
                                pvec = pj
                            rel = np.concatenate([rel, pvec])
                        comp = _mlp_vector(params, rel)
                        acc += np.repeat(comp, cfg.share) * vvec
                out[b, :, i, j] = acc
    return out


def naive_patchwise_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    k, pad = cfg.footprint, (cfg.footprint - 1) // 2
    slots = k * k
    q = _pixel_map(x, params.w_query.data, params.b_query.data)
    kf = _pixel_map(x, params.w_key.data, params.b_key.data)
    v = _pixel_map(x, params.w_value.data, None)

    out = np.zeros((n, dims.cm, h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                kvecs, qvecs, vvecs = [], [], []
                for dy in range(k):
                    for dx in range(k):
                        ii, jj = i + dy - pad, j + dx - pad
                        kvecs.append(_neighbor(kf, b, ii, jj))
                        qvecs.append(_neighbor(q, b, ii, jj))
                        vvecs.append(_neighbor(v, b, ii, jj))
                rel = patch_relation_vector(q[b, :, i, j], qvecs, kvecs, cfg.relation)
                flat = _mlp_vector(params, rel)  # [slots * groups], slot-major
                acc = np.zeros(dims.cm, dtype=x.dtype)
                for s in range(slots):
                    comp = flat[s * dims.groups : (s + 1) * dims.groups]
                    acc += np.repeat(comp, cfg.share) * vvecs[s]
                out[b, :, i, j] = acc
    return out


def naive_scalar_attention(x: np.ndarray, params: VectorAttention) -> np.ndarray:
    cfg, dims = params.cfg, params.dims
    n, _, h, w = x.shape
    k, pad = cfg.footprint, (cfg.footprint - 1) // 2
    q = _pixel_map(x, params.w_query.data, params.b_query.data)
    kf = _pixel_map(x, params.w_key.data, params.b_key.data)
    v = _pixel_map(x, params.w_value.data, None)

    out = np.zeros((n, dims.cm, h, w), dtype=x.dtype)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                scores, vvecs = [], []
                for dy in range(k):
                    for dx in range(k):
                        ii, jj = i + dy - pad, j + dx - pad
                        scores.append(q[b, :, i, j] @ _neighbor(kf, b, ii, jj))
                        vvecs.append(_neighbor(v, b, ii, jj))
                scores = np.array(scores, dtype=x.dtype)
                if cfg.normalize:
                    e = np.exp(scores - scores.max())
                    scores = e / e.sum()
                acc = np.zeros(dims.cm, dtype=x.dtype)
                for s, vv in zip(scores, vvecs):
                    acc += s * vv
                out[b, :, i, j] = acc
    return out


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
    share = int(rng.choice([1, 2, 4]))
    position = str(rng.choice(["none", "absolute", "relative"])) if family == "pairwise" else "none"
    normalize = bool(rng.integers(0, 2)) if family == "scalar" else False
    cfg = AttentionConfig(family=family, relation=rel, footprint=k, r1=4, r2=2,
                          share=share, position=position, normalize=normalize)
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


def run_oracle_sweep(kind: str | None = None, relation: str | None = None,
                     cases: int = 20, tol: float = 1e-10, seed: int = 0) -> list[dict]:
    """Random-case agreement between fast operators and the naive loops."""
    if cases < 1:
        raise ConfigError(f"oracle needs at least one case per operator, got {cases}")
    jobs = []
    if kind in (None, "pairwise"):
        jobs += [("pairwise", r) for r in PAIRWISE_RELATIONS if relation in (None, r)]
    if kind in (None, "patchwise"):
        jobs += [("patchwise", r) for r in PATCHWISE_RELATIONS if relation in (None, r)]
    if kind in (None, "scalar") and relation is None:
        jobs.append(("scalar", "dot"))
    if kind in (None, "conv") and relation is None:
        jobs.append(("conv", "conv"))

    results = []
    for job_index, (family, rel) in enumerate(jobs):
        rng = np.random.default_rng([seed, job_index])
        worst = 0.0
        for _ in range(cases):
            if family == "conv":
                worst = max(worst, _random_conv_case(rng))
            else:
                worst = max(worst, _random_attention_case(family, rel, rng))
        name = f"{family}/{rel}" if family != "conv" else "conv"
        results.append({"name": name, "cases": cases, "max_abs_diff": worst,
                        "tol": tol, "passed": worst <= tol})
    return results
