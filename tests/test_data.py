"""CIFAR-10 binary reader, on synthetic batches in the real file layout."""

import numpy as np
import pytest

from sanet.data import CIFAR_RECORD, CIFAR_TRAIN_FILES, load_cifar10, load_dataset
from sanet.tensor import ConfigError

PER_CLASS = 12  # images per class in each of the five batches, 60 per class in all


def record_index(images):
    """The index each synthetic record carries in its first two red bytes."""
    return images[:, 0, 0, 0].astype(np.int64) * 256 + images[:, 0, 0, 1]


@pytest.fixture
def cifar_root(tmp_path):
    """Five ``data_batch_N.bin`` files of 120 records each.  Record ``i`` of
    the five, in order, has label ``i % 10`` and carries ``i`` in its first
    two pixel bytes; the other bytes are noise."""
    rng = np.random.default_rng(0)
    per_file = 10 * PER_CLASS
    for f, name in enumerate(CIFAR_TRAIN_FILES):
        index = np.arange(f * per_file, (f + 1) * per_file)
        records = rng.integers(0, 256, size=(per_file, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] = index % 10
        records[:, 1], records[:, 2] = index // 256, index % 256
        records.tofile(tmp_path / name)
    return tmp_path


def test_records_keep_their_labels_and_layout(cifar_root):
    ds = load_cifar10(cifar_root)
    total = 5 * 10 * PER_CLASS
    assert ds.name == "cifar10" and ds.classes == 10
    assert ds.train_images.shape == (total - 500, 3, 32, 32)
    assert ds.val_images.shape == (500, 3, 32, 32)
    assert ds.train_images.dtype == np.uint8
    for images, labels in ((ds.train_images, ds.train_labels), (ds.val_images, ds.val_labels)):
        np.testing.assert_array_equal(labels, record_index(images) % 10)
    seen = np.concatenate([record_index(ds.train_images), record_index(ds.val_images)])
    np.testing.assert_array_equal(np.sort(seen), np.arange(total))


def test_validation_split_is_seeded_per_class_and_limit_truncates(cifar_root):
    ds = load_cifar10(cifar_root, seed=4)
    np.testing.assert_array_equal(np.bincount(ds.val_labels, minlength=10), [50] * 10)
    again = load_cifar10(cifar_root, seed=4)
    np.testing.assert_array_equal(again.val_images, ds.val_images)
    np.testing.assert_array_equal(again.train_images, ds.train_images)
    other = load_cifar10(cifar_root, seed=5)
    assert not np.array_equal(record_index(other.val_images), record_index(ds.val_images))

    limited = load_dataset("cifar10", root=str(cifar_root), limit=7, seed=4)
    np.testing.assert_array_equal(limited.train_images, ds.train_images[:7])
    np.testing.assert_array_equal(limited.val_images, ds.val_images)


@pytest.mark.parametrize("size", [0, 2 * CIFAR_RECORD + 1], ids=["empty", "partial-record"])
def test_batch_of_the_wrong_size_is_config_error(cifar_root, size):
    (cifar_root / CIFAR_TRAIN_FILES[2]).write_bytes(bytes(size))
    with pytest.raises(ConfigError, match="not a CIFAR-10 binary batch"):
        load_cifar10(cifar_root)


def test_missing_batch_is_config_error(cifar_root):
    (cifar_root / CIFAR_TRAIN_FILES[4]).unlink()
    with pytest.raises(ConfigError, match="CIFAR-10 binaries not found: .*data_batch_5.bin"):
        load_cifar10(cifar_root)
