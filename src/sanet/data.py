"""Dataset ingestion and augmentation.

Two sources: the standard CIFAR-10 binary layout (3073-byte records,
label byte followed by three 1024-byte color planes) and a synthetic
Gaussian-blob dataset that renders class clusters as images, used as a
fast always-available training sanity gate.

Images are kept as uint8 on the raw 0..255 scale; normalization to
float happens at batch assembly with per-channel statistics of the
training split.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError

CIFAR_SIDE = 32
CIFAR_RECORD = 1 + 3 * CIFAR_SIDE * CIFAR_SIDE
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_VAL_PER_CLASS = 50
# synthetic blobs: classes, image side, template cell side, pixel noise std
BLOB_CLASSES, BLOB_SIDE, BLOB_CELL, BLOB_NOISE = 10, 32, 4, 25.0
AUGMENT_PAD = 4


@dataclass
class Dataset:
    name: str
    train_images: np.ndarray  # uint8 [N, 3, H, W]
    train_labels: np.ndarray  # int64 [N]
    val_images: np.ndarray
    val_labels: np.ndarray
    mean: np.ndarray  # per-channel, 0..255 scale, from the train split
    std: np.ndarray
    classes: int

    def normalize(self, images: np.ndarray) -> np.ndarray:
        """Evaluation path: float32 by channel statistics only, no augmentation."""
        x = images.astype(np.float32)
        return (x - self.mean.reshape(1, 3, 1, 1)) / self.std.reshape(1, 3, 1, 1)


def _finalize(name, tr_x, tr_y, va_x, va_y, classes) -> Dataset:
    mean = tr_x.astype(np.float64).mean(axis=(0, 2, 3)).astype(np.float32)
    std = tr_x.astype(np.float64).std(axis=(0, 2, 3)).astype(np.float32)
    std = np.maximum(std, 1.0)  # guard degenerate channels
    return Dataset(name, tr_x, tr_y, va_x, va_y, mean, std, classes)


def _read_cifar_file(path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD:
        raise ConfigError(f"{path}: not a CIFAR-10 binary batch ({raw.size} bytes)")
    records = raw.reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise ConfigError(f"{path}: not a CIFAR-10 binary batch (label {labels.max()} > 9)")
    images = records[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE)
    return images, labels


def load_cifar10(root, limit: int | None = None, seed: int = 0) -> Dataset:
    """Load the binary batches under ``root`` with a held-out validation split.

    The validation split samples ``CIFAR_VAL_PER_CLASS`` images per category
    from the training batches (seeded, deterministic); ``limit`` then
    truncates the remaining training pool to a fixed-size subset.
    """
    paths = [os.path.join(root, f) for f in CIFAR_TRAIN_FILES]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"CIFAR-10 binaries not found: {missing[0]}")
    parts = [_read_cifar_file(p) for p in paths]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])

    rng = np.random.default_rng(seed)
    val_idx = []
    for c in range(10):
        pool = np.flatnonzero(labels == c)
        if pool.size < CIFAR_VAL_PER_CLASS:
            raise ConfigError(f"CIFAR-10 class {c} has {pool.size} images, fewer than the "
                              f"{CIFAR_VAL_PER_CLASS} its validation split takes")
        val_idx.append(rng.choice(pool, size=CIFAR_VAL_PER_CLASS, replace=False))
    val_idx = np.sort(np.concatenate(val_idx))
    val_mask = np.zeros(len(labels), dtype=bool)
    val_mask[val_idx] = True
    train_idx = np.flatnonzero(~val_mask)
    train_idx = rng.permutation(train_idx)
    if limit is not None:
        train_idx = train_idx[:limit]

    return _finalize("cifar10", images[train_idx], labels[train_idx],
                     images[val_idx], labels[val_idx], classes=10)


def make_blobs(train_per_class: int = 100, val_per_class: int = 20, seed: int = 0) -> Dataset:
    """Gaussian class clusters rendered as blocky images.

    Each of ``BLOB_CLASSES`` classes owns a random low-resolution template
    upsampled to ``BLOB_SIDE``; samples add pixel noise.  Linearly separable
    by design, so a sound training loop reaches high accuracy within a
    couple of epochs.
    """
    rng = np.random.default_rng(seed)
    low = BLOB_SIDE // BLOB_CELL
    templates = rng.uniform(40.0, 215.0, size=(BLOB_CLASSES, 3, low, low))
    templates = np.kron(templates, np.ones((1, 1, BLOB_CELL, BLOB_CELL)))

    def render(per_class):
        xs, ys = [], []
        for c in range(BLOB_CLASSES):
            samples = templates[c] + rng.normal(
                0.0, BLOB_NOISE, size=(per_class, 3, BLOB_SIDE, BLOB_SIDE))
            xs.append(np.clip(samples, 0, 255).astype(np.uint8))
            ys.append(np.full(per_class, c, dtype=np.int64))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return x[order], y[order]

    tr_x, tr_y = render(train_per_class)
    va_x, va_y = render(val_per_class)
    return _finalize("blobs", tr_x, tr_y, va_x, va_y, BLOB_CLASSES)


def load_dataset(kind: str, root: str | None = None, limit: int | None = None,
                 seed: int = 0) -> Dataset:
    if limit is not None and limit < 1:
        raise ConfigError(f"dataset limit must be at least 1, got {limit}")
    if kind == "blobs" and limit is not None and limit < BLOB_CLASSES:
        raise ConfigError(f"blobs limit must be at least {BLOB_CLASSES} (one image per class), "
                          f"got {limit}")
    if kind == "cifar10":
        if root is None:
            raise ConfigError("cifar10 needs a dataset root (flag or data-root env)")
        return load_cifar10(root, limit=limit, seed=seed)
    if kind == "blobs":
        per_class = 100 if limit is None else limit // BLOB_CLASSES
        return make_blobs(train_per_class=per_class, seed=seed)
    raise ConfigError(f"unknown dataset kind {kind!r} (expected cifar10 or blobs)")


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pad each uint8 [3, H, W] image of ``images`` with ``AUGMENT_PAD``
    zeros, randomly crop it back to native size and flip it horizontally
    with p=0.5.

    Training path only.  The batch is padded once and each image's crop,
    flipped or not, is copied into one output array.  The generator is drawn
    image by image, the two crop offsets and then the flip coin, so the
    result is byte-deterministic given the generator state.
    """
    _, _, h, w = images.shape
    pad = AUGMENT_PAD
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(images)
    for i, src in enumerate(padded):
        dy = int(rng.integers(0, 2 * pad + 1))
        dx = int(rng.integers(0, 2 * pad + 1))
        crop = src[:, dy : dy + h, dx : dx + w]
        out[i] = crop[:, :, ::-1] if rng.random() < 0.5 else crop
    return out
