"""Optimization loop: SGD with momentum, cosine schedule, label smoothing.

Runs are deterministic: shuffling and augmentation draw from generators
derived from (seed, epoch), and gradient accumulation order is fixed, so
repeating a run with the same config and data reproduces its metrics.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .attention import check_fields
from .data import Dataset, augment_batch
from .models import NonFiniteLogits, predict, save_checkpoint
from .module import Module
from .tensor import ConfigError, Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 20
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    label_smoothing: float = 0.1
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("epochs", "batch_size"), nonnegative=(
            "base_lr", "momentum", "weight_decay", "label_smoothing", "seed"))
        if self.label_smoothing >= 1.0:
            raise ConfigError(f"label_smoothing must lie in [0, 1), got {self.label_smoothing}")


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """``base_lr * 0.5 * (1 + cos(pi * t / T))``: starts at base, ends at 0."""
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def cross_entropy_smoothed(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Mean cross-entropy against a label-smoothed target distribution.

    The target puts ``1 - smoothing`` on the true class and spreads
    ``smoothing`` uniformly over all classes.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("smoothing must lie in [0, 1)")
    n, k = logits.shape
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    logp = T.log_softmax(logits, axis=1)
    return T.scale(T.sum(T.mul(logp, Tensor(target))), -1.0 / n)


class SGD:
    """Momentum SGD; weight decay enters as an L2 term on the gradient."""

    def __init__(self, params, momentum: float, weight_decay: float):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float):
        for p, v in zip(self.params, self.velocity):
            g = self.weight_decay * p.data
            if p.grad is not None:
                g = g + p.grad
            v *= self.momentum
            v += g
            p.data = p.data - lr * v


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Share of rows whose label is among the ``k`` largest logits."""
    top = np.argsort(-logits, axis=1)[:, :k]
    return float((top == labels[:, None]).any(axis=1).mean())


def evaluate(model: Module, dataset: Dataset) -> dict:
    """Eval-mode top-1/top-5 on the center (untouched) validation images."""
    logits = predict(model, dataset.normalize(dataset.val_images))
    k5 = min(5, dataset.classes)
    return {
        "top1": top_k_accuracy(logits, dataset.val_labels, 1),
        "top5": top_k_accuracy(logits, dataset.val_labels, k5),
    }


@dataclass
class RunReport:
    config: TrainConfig
    history: list[dict] = field(default_factory=list)
    best_top1: float = 0.0
    best_epoch: int = -1
    run_dir: str | None = None


def _check_finite(model: Module, where: str):
    """Raise ``TrainingDiverged`` naming the first parameter, in forward
    order and by its cost-report unit, whose gradient or updated value is
    not finite."""
    for unit, module in model.units:
        for name, p in module.named_parameters(unit + "."):
            for kind, arr in (("gradient", p.grad), ("value", p.data)):
                if arr is not None and not np.isfinite(arr).all():
                    raise TrainingDiverged(f"non-finite {kind} of {name} at {where}")


def train(model: Module, dataset: Dataset, config: TrainConfig,
          run_dir: str | None = None, log=None) -> RunReport:
    """SGD training per the config; logs per-epoch metrics, keeps the best
    checkpoint, and aborts with a diagnostic on a non-finite loss, gradient,
    parameter or validation logit, before any checkpoint of that state is
    written."""
    report = RunReport(config=config, run_dir=run_dir)
    metrics_fh = None
    writer = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            json.dump(asdict(config), fh, indent=2, sort_keys=True)
        metrics_fh = open(os.path.join(run_dir, "metrics.csv"), "w", newline="")
        writer = csv.writer(metrics_fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_top1", "val_top5"])

    n = len(dataset.train_images)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    optimizer = SGD(model.parameters(), config.momentum, config.weight_decay)
    model.train()
    step = 0
    lr = config.base_lr
    try:
        for epoch in range(config.epochs):
            shuffle_rng = np.random.default_rng([config.seed, epoch, 1])
            augment_rng = np.random.default_rng([config.seed, epoch, 2])
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for bi in range(steps_per_epoch):
                idx = order[bi * config.batch_size : (bi + 1) * config.batch_size]
                batch = augment_batch(dataset.train_images[idx], augment_rng)
                x = Tensor(dataset.normalize(batch))
                lr = cosine_lr(config.base_lr, step, total_steps)
                with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                    logits = model.forward(x)
                    loss = cross_entropy_smoothed(logits, dataset.train_labels[idx],
                                                  config.label_smoothing)
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} batch {bi} (last lr {lr:.6f})"
                    )
                model.zero_grad()
                loss.backward()
                optimizer.step(lr)
                _check_finite(model, f"epoch {epoch} batch {bi} (lr {lr:.6f})")
                step += 1
                epoch_loss += loss_value * len(idx)

            try:
                metrics = evaluate(model, dataset)
            except NonFiniteLogits as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch} validation") from exc
            row = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": epoch_loss / n,
                "val_top1": metrics["top1"],
                "val_top5": metrics["top5"],
            }
            report.history.append(row)
            if writer is not None:
                writer.writerow([row["epoch"], f"{row['lr']:.8f}",
                                 f"{row['train_loss']:.6f}",
                                 f"{row['val_top1']:.6f}", f"{row['val_top5']:.6f}"])
                metrics_fh.flush()
            if log is not None:
                log(f"epoch {epoch:3d}  lr {row['lr']:.4f}  loss {row['train_loss']:.4f}  "
                    f"val top1 {row['val_top1']:.4f}  top5 {row['val_top5']:.4f}")
            if metrics["top1"] >= report.best_top1:
                report.best_top1 = metrics["top1"]
                report.best_epoch = epoch
                if run_dir is not None:
                    save_checkpoint(model, os.path.join(run_dir, "best.ckpt"))
            if run_dir is not None:
                save_checkpoint(model, os.path.join(run_dir, "last.ckpt"))
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return report
