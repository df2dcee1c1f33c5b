"""Robustness probes: zero-shot image manipulations and targeted PGD.

Manipulations are exact pixel permutations (no interpolation), applied at
test time only.  The attack is white-box targeted projected gradient
descent under an L-infinity budget on the raw 0..255 pixel scale; the
normalization applied before the model is differentiated through, and
only the gradient sign is used, so the pixel-scale step is well-defined.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .attention import check_fields
from .models import INFERENCE_BATCH, predict
from .module import Module
from .tensor import ConfigError, DimensionError, Tensor, UsageError
from .training import cross_entropy_smoothed, top_k_accuracy

MANIPULATIONS = ("none", "cw90", "cw180", "cw270", "upside_down_flip")


def manipulate(images: np.ndarray, kind: str) -> np.ndarray:
    """Rotate clockwise by quarter turns or flip upside down, exactly."""
    if kind not in MANIPULATIONS:
        raise ValueError(f"unknown manipulation {kind!r}")
    if kind == "none":
        return images.copy()
    if kind == "upside_down_flip":
        return np.ascontiguousarray(np.flip(images, axis=-2))
    if images.shape[-1] != images.shape[-2]:
        raise DimensionError("rotations need a square spatial extent")
    quarter_turns = {"cw90": -1, "cw180": 2, "cw270": 1}[kind]
    return np.ascontiguousarray(np.rot90(images, k=quarter_turns, axes=(-2, -1)))


@dataclass(frozen=True)
class AttackConfig:
    """Targeted PGD budget: ``eps``/``step`` on the 0..255 pixel scale,
    over ``count`` validation images (fewer when the split is smaller)."""

    eps: float = 8.0
    step: float = 4.0
    iters: int = 2
    seed: int = 0
    count: int = 500

    def __post_init__(self):
        try:
            check_fields(self, positive=("count",), nonnegative=("eps", "step", "iters", "seed"))
        except ConfigError as exc:
            raise ConfigError(f"attack {exc}") from None


def choose_targets(labels: np.ndarray, classes: int, seed: int) -> np.ndarray:
    """Uniform random wrong class per image, seeded per image index."""
    targets = np.empty_like(labels)
    for i, label in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        draw = int(rng.integers(0, classes - 1))
        targets[i] = draw if draw < label else draw + 1
    return targets


def _target_loss(model: Module, dataset: Dataset, pixels: np.ndarray,
                 targets: np.ndarray) -> tuple[Tensor, Tensor]:
    x = Tensor(dataset.normalize(pixels), requires_grad=True)
    return cross_entropy_smoothed(model.forward(x), targets, 0.0), x


def pgd_attack(model: Module, images: np.ndarray, labels: np.ndarray,
               dataset: Dataset, cfg: AttackConfig,
               targets: np.ndarray | None = None) -> dict:
    """Drive the model toward a wrong class within the pixel L-inf ball.

    Starts from the clean image and iterates
    ``x <- clamp(x - step * sign(grad_x loss(x, target)))`` with the clamp
    intersecting the eps-ball and the valid pixel range.  Returns the
    adversarial pixels and per-image success flags.
    """
    if targets is None:
        targets = choose_targets(labels, dataset.classes, cfg.seed)
    if np.any(targets == labels):
        raise UsageError("attack targets must differ from the true labels")
    clean = images.astype(np.float32)
    adv = clean.copy()
    with model.evaluating():
        for start in range(0, len(images), INFERENCE_BATCH):
            sl = slice(start, start + INFERENCE_BATCH)
            x_adv = clean[sl].copy()
            for _ in range(cfg.iters):
                loss, x = _target_loss(model, dataset, x_adv, targets[sl])
                model.zero_grad()
                loss.backward()
                # normalization is a positive per-channel rescale: the pixel
                # gradient sign equals the normalized-input gradient sign
                x_adv = x_adv - cfg.step * np.sign(x.grad)
                x_adv = np.clip(x_adv, clean[sl] - cfg.eps, clean[sl] + cfg.eps)
                x_adv = np.clip(x_adv, 0.0, 255.0)
                linf = np.max(np.abs(x_adv - clean[sl])) if x_adv.size else 0.0
                if linf > cfg.eps + 1e-3:
                    raise RuntimeError(f"perturbation {linf} escaped the L-inf ball of {cfg.eps}")
            adv[sl] = x_adv

    logits = predict(model, dataset.normalize(adv))
    preds = logits.argmax(axis=1)
    return {
        "adv_images": adv,
        "targets": targets,
        "predictions": preds,
        "success": preds == targets,
        "linf": float(np.max(np.abs(adv - clean))) if adv.size else 0.0,
    }


def manipulation_report(model: Module, dataset: Dataset,
                        manipulations=MANIPULATIONS) -> list[dict]:
    """Zero-shot top-1/top-5 per manipulation with drops against clean.

    Rows follow the declared manipulation order; the clean row is always
    evaluated (drops are relative to it) and reported first when present.
    """
    images, labels = dataset.val_images, dataset.val_labels
    clean_logits = predict(model, dataset.normalize(images))
    clean1, clean5 = (top_k_accuracy(clean_logits, labels, k) for k in (1, 5))
    rows = []
    for kind in manipulations:
        if kind == "none":
            top1, top5 = clean1, clean5
        else:
            moved = manipulate(images, kind)
            logits = predict(model, dataset.normalize(moved))
            top1, top5 = (top_k_accuracy(logits, labels, k) for k in (1, 5))
        rows.append({
            "manipulation": kind,
            "top1": top1,
            "top5": top5,
            "drop1": clean1 - top1,
            "drop5": clean5 - top5,
        })
    return rows


def format_manipulation_table(rows: list[dict]) -> str:
    """Paper-style table: accuracy with the drop in parentheses."""
    width = max(len(r["manipulation"]) for r in rows)
    lines = [f"{'manipulation':<{width}}  {'top-1':>13}  {'top-5':>13}"]
    for r in rows:
        c1 = f"{100 * r['top1']:.1f} ({100 * r['drop1']:.1f})"
        c5 = f"{100 * r['top5']:.1f} ({100 * r['drop5']:.1f})"
        lines.append(f"{r['manipulation']:<{width}}  {c1:>13}  {c5:>13}")
    return "\n".join(lines)


def attack_report(model: Module, dataset: Dataset, cfg: AttackConfig) -> dict:
    """Attack a fixed seeded subset of the validation split."""
    n = min(cfg.count, len(dataset.val_images))
    rng = np.random.default_rng(cfg.seed)
    idx = np.sort(rng.choice(len(dataset.val_images), size=n, replace=False))
    images = dataset.val_images[idx]
    labels = dataset.val_labels[idx]

    clean_logits = predict(model, dataset.normalize(images))
    clean_top1 = top_k_accuracy(clean_logits, labels, 1)
    result = pgd_attack(model, images, labels, dataset, cfg)
    adv_top1 = float(np.mean(result["predictions"] == labels))
    return {
        **asdict(cfg),
        "count": int(n),
        "clean_top1": clean_top1,
        "success_rate": float(np.mean(result["success"])),
        "top1_under_attack": adv_top1,
        "linf": result["linf"],
    }
