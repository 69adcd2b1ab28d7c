"""Binary parsers, synthetic spectra, preprocessing and the matrix cache."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from oracles import write_cifar10, write_idx

from daedyn.data import (
    RawImageBatch,
    load_cifar10,
    load_idx,
    load_matrix,
    preprocess,
    save_matrix,
    synthetic_dataset,
)
from daedyn.errors import ParseError


def _idx_bytes(images, rows, cols):
    head = struct.pack(">IIII", 0x00000803, len(images) // (rows * cols), rows, cols)
    return head + bytes(images)


def test_load_idx_hand_built_two_image_file(tmp_path):
    payload = [0, 255, 128, 64, 10, 20, 30, 40]
    path = tmp_path / "imgs"
    path.write_bytes(_idx_bytes(payload, 2, 2))
    batch = load_idx(path)
    assert batch.pixels.shape == (2, 4)
    assert np.array_equal(batch.pixels[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert batch.image_shape == (2, 2)


def test_load_idx_respects_count_limit(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_idx_bytes(list(range(16)), 2, 2))
    batch = load_idx(path, count_limit=3)
    assert batch.pixels.shape[0] == 3


def test_load_idx_rejects_label_magic(tmp_path):
    path = tmp_path / "labels"
    path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([1, 2, 3, 4]))
    with pytest.raises(ParseError, match="0x00000801"):
        load_idx(path)


def test_load_idx_truncated_pixels_reports_offset(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_idx_bytes([0, 1, 2, 3], 2, 2)[:-2])
    with pytest.raises(ParseError, match="byte 18"):
        load_idx(path)


def test_load_idx_truncated_header(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
    with pytest.raises(ParseError, match="dimension header"):
        load_idx(path)


def test_load_idx_dimension_overflow(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 31, 2 ** 16, 2 ** 16))
    with pytest.raises(ParseError, match="overflow"):
        load_idx(path)


def test_load_idx_rejects_a_header_of_zero_images(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(_idx_bytes([], 2, 2))
    with pytest.raises(ParseError, match="0 images") as info:
        load_idx(path)
    assert info.value.offset == 4


def test_load_idx_checksum_matches_byte_level_reader(mnist_like_paths):
    # independent reader: walk raw bytes directly, no numpy parsing
    images_path = mnist_like_paths
    batch = load_idx(images_path, count_limit=50)
    raw = images_path.read_bytes()
    rows = int.from_bytes(raw[8:12], "big")
    cols = int.from_bytes(raw[12:16], "big")
    total = sum(raw[16:16 + 50 * rows * cols])
    assert int(np.rint(batch.pixels * 255.0).sum()) == total


def test_load_cifar10_single_record(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes([7]) + bytes([255] * 3072))
    batch = load_cifar10(path)
    assert batch.labels.tolist() == [7]
    assert np.array_equal(batch.pixels, np.ones((1, 3072)))


def test_load_cifar10_rejects_partial_record(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes(3072))
    with pytest.raises(ParseError, match="3073"):
        load_cifar10(path)


def test_load_cifar10_rejects_bad_label(tmp_path):
    path = tmp_path / "batch.bin"
    record = bytes([11]) + bytes(3072)
    path.write_bytes(record)
    with pytest.raises(ParseError, match="out of range"):
        load_cifar10(path)


def test_load_cifar10_label_histogram_matches_byte_reader(cifar_like_path):
    batch = load_cifar10(cifar_like_path, count_limit=100)
    raw = cifar_like_path.read_bytes()
    expected = np.zeros(10, dtype=int)
    for i in range(100):
        expected[raw[i * 3073]] += 1
    got = np.bincount(batch.labels, minlength=10)
    assert np.array_equal(got, expected)


def test_load_cifar10_preserves_channel_major_layout(tmp_path):
    # red plane 10, green plane 20, blue plane 30: no transposition on parse
    record = bytes([1]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    path = tmp_path / "batch.bin"
    path.write_bytes(record)
    batch = load_cifar10(path)
    assert np.allclose(batch.pixels[0, :1024], 10 / 255)
    assert np.allclose(batch.pixels[0, 1024:2048], 20 / 255)
    assert np.allclose(batch.pixels[0, 2048:], 30 / 255)


def test_idx_round_trip_is_byte_exact(mnist_like_paths, tmp_path):
    images_path = mnist_like_paths
    batch = load_idx(images_path, count_limit=64)
    out_images = tmp_path / "imgs"
    write_idx(batch, out_images)
    original = images_path.read_bytes()
    rows, cols = batch.image_shape
    expected = struct.pack(">IIII", 0x00000803, 64, rows, cols) \
        + original[16:16 + 64 * rows * cols]
    assert out_images.read_bytes() == expected
    again = load_idx(out_images)
    assert np.array_equal(again.pixels, batch.pixels)


def test_cifar_round_trip_is_byte_exact(cifar_like_path, tmp_path):
    batch = load_cifar10(cifar_like_path, count_limit=32)
    out = tmp_path / "batch.bin"
    write_cifar10(batch, out)
    assert out.read_bytes() == cifar_like_path.read_bytes()[: 32 * 3073]
    again = load_cifar10(out)
    assert np.array_equal(again.pixels, batch.pixels)
    assert np.array_equal(again.labels, batch.labels)


def test_parsed_pixels_and_labels_in_range(mnist_like_paths, cifar_like_path):
    idx = load_idx(mnist_like_paths, count_limit=200)
    cif = load_cifar10(cifar_like_path, count_limit=200)
    for batch in (idx, cif):
        assert batch.pixels.min() >= 0.0 and batch.pixels.max() <= 1.0
        if batch.labels is not None:
            assert batch.labels.min() >= 0 and batch.labels.max() <= 9


def test_synthetic_dataset_zero_spectrum_is_zero_data():
    ds = synthetic_dataset([0.0, 0.0], 10, seed=0)
    assert np.array_equal(ds.samples, np.zeros((10, 2)))


def test_synthetic_dataset_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        synthetic_dataset([1.0, -0.5], 10, seed=0)


def test_synthetic_dataset_spectrum_within_tolerance():
    target = np.array([2.5, 1.0, 0.5])
    ds = synthetic_dataset(target, 10_000, seed=1)
    # independent oracle: numpy symmetric eigensolver on the raw sum
    got = np.sort(np.linalg.eigvalsh(ds.samples.T @ ds.samples))[::-1]
    assert np.max(np.abs(got - target) / target) <= 0.05


def test_synthetic_dataset_distinct_seeds_differ_but_both_match():
    target = np.array([2.5, 1.0, 0.5])
    a = synthetic_dataset(target, 10_000, seed=1)
    b = synthetic_dataset(target, 10_000, seed=2)
    assert np.max(np.abs(a.samples - b.samples)) > 0.0
    for ds in (a, b):
        got = np.sort(np.linalg.eigvalsh(ds.samples.T @ ds.samples))[::-1]
        assert np.max(np.abs(got - target) / target) <= 0.05


def test_synthetic_dataset_spectrum_error_shrinks_with_samples():
    target = np.array([2.0, 1.0, 0.5, 0.25])

    def err(n):
        ds = synthetic_dataset(target, n, seed=6)
        got = np.sort(np.linalg.eigvalsh(ds.samples.T @ ds.samples))[::-1]
        return np.max(np.abs(got - target) / target)

    assert err(10_000) < err(1_000)


def test_synthetic_dataset_deterministic_per_seed():
    a = synthetic_dataset([1.0, 0.5], 100, seed=9)
    b = synthetic_dataset([1.0, 0.5], 100, seed=9)
    assert np.array_equal(a.samples, b.samples)


def test_preprocess_passthrough_is_identity(cifar_like_path):
    batch = load_cifar10(cifar_like_path, count_limit=20)
    ds = preprocess(batch)
    assert np.array_equal(ds.samples, batch.pixels)
    assert ds.source == "cifar10"


def test_preprocess_center_zeroes_feature_means():
    rng = np.random.default_rng(4)
    batch = RawImageBatch(pixels=rng.uniform(0, 1, size=(40, 7)), labels=None,
                          source="mnist")
    ds = preprocess(batch, center=True)
    assert np.max(np.abs(ds.samples.mean(axis=0))) <= 1e-12


def test_preprocess_center_matches_brute_force_covariance():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, size=(30, 5))
    batch = RawImageBatch(pixels=x, labels=None, source="mnist")
    ds = preprocess(batch, center=True)
    mu = x.mean(axis=0)
    expected = np.zeros((5, 5))
    for row in x:
        expected += np.outer(row - mu, row - mu)
    got = ds.samples.T @ ds.samples
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_preprocess_scale_normalizes_peak():
    batch = RawImageBatch(pixels=np.array([[0.5, 0.25], [0.1, 0.2]]), labels=None,
                          source="mnist")
    ds = preprocess(batch, scale=True)
    assert ds.samples.max() == 1.0


def test_preprocess_plain_matrix_matches_image_batch_path():
    # a loaded matrix cache takes the same centering and rescaling as parsed images
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(25, 6))
    batch = RawImageBatch(pixels=x, labels=None, source="mnist")
    for flags in ({}, {"center": True}, {"scale": True}, {"center": True, "scale": True}):
        ds = preprocess(x, **flags)
        assert ds.source == "synthetic"
        assert np.array_equal(ds.samples, preprocess(batch, **flags).samples)


def test_matrix_cache_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((13, 7))
    path = tmp_path / "m.cache"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)
    assert path.stat().st_size == 8 + 13 * 7 * 8


def test_matrix_cache_detects_truncation(tmp_path):
    path = tmp_path / "m.cache"
    save_matrix(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError, match="mismatch"):
        load_matrix(path)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_matrix_cache_rejects_an_empty_header(rows, cols, tmp_path):
    path = tmp_path / "m.cache"
    path.write_bytes(struct.pack("<II", rows, cols))
    with pytest.raises(ParseError, match=f"{rows}x{cols}") as info:
        load_matrix(path)
    assert info.value.offset == 0


@pytest.mark.parametrize("count_limit", [None, 1])
def test_matrix_cache_checks_the_whole_file_however_few_rows_it_reads(count_limit, tmp_path,
                                                                      monkeypatch):
    path = tmp_path / "m.cache"
    save_matrix(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError, match="mismatch") as info:
        load_matrix(path, count_limit)
    assert info.value.offset == 8 + 15 * 8
    path.write_bytes(struct.pack("<II", 0, 4))
    with pytest.raises(ParseError, match="0x4") as info:
        load_matrix(path, count_limit)
    assert info.value.offset == 0
    path.write_bytes(b"\x04\x00\x00")
    with pytest.raises(ParseError, match="truncated cache header") as info:
        load_matrix(path, count_limit)
    assert info.value.offset == 3
    # a file cut short after its size was read leaves rows unread, which are refused too
    path.write_bytes(struct.pack("<II", 4, 4))
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real_fstat(fd)[:6] + (8 + 16 * 8,) + real_fstat(fd)[7:]))
    with pytest.raises(ParseError, match="truncated cache payload") as info:
        load_matrix(path, count_limit)
    assert info.value.offset == 8


def test_matrix_cache_reads_only_the_rows_it_keeps(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5000, 784))
    path = tmp_path / "m.cache"
    save_matrix(path, m)
    for limit in (1, 100, 5000, 6000):
        assert np.array_equal(load_matrix(path, limit), m[:limit])
    del m
    peaks = {}
    for limit in (100, None):
        tracemalloc.start()
        try:
            load_matrix(path, limit)
            peaks[limit] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    full = 5000 * 784 * 8
    assert peaks[None] >= full > 20 * peaks[100]


@pytest.mark.parametrize("load, head, record", [
    (load_idx, struct.pack(">IIII", 0x00000803, 4000, 28, 28), 784),
    (load_cifar10, b"", 3073)], ids=["idx", "cifar10"])
def test_image_files_read_only_the_records_they_keep(load, head, record, tmp_path):
    # bytes 0..9 are valid CIFAR-10 labels as well as pixels
    body = np.random.default_rng(6).integers(0, 10, size=(4000, record), dtype=np.uint8)
    path = tmp_path / "images"
    path.write_bytes(head + body.tobytes())
    pixels = body[:10, record - 784 if load is load_idx else 1:]
    assert np.array_equal(load(path, 10).pixels, pixels / 255.0)
    peaks = {}
    for limit in (10, None):
        tracemalloc.start()
        try:
            load(path, limit)
            peaks[limit] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert peaks[None] >= size > 10 * peaks[10]
    if load is load_idx:    # a file cut short after the kept images still loads them
        path.write_bytes(head + body[:10].tobytes())
        assert np.array_equal(load(path, 10).pixels, pixels / 255.0)


def test_load_cifar10_refuses_a_file_cut_short_after_its_size_was_read(tmp_path, monkeypatch):
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes(3073))
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real_fstat(fd)[:6] + (2 * 3073,) + real_fstat(fd)[7:]))
    with pytest.raises(ParseError, match="truncated record data") as info:
        load_cifar10(path)
    assert info.value.offset == 3073


def test_raw_image_batch_validation():
    with pytest.raises(ValueError, match="0, 1"):
        RawImageBatch(pixels=np.array([[1.5]]), labels=None, source="mnist")
    with pytest.raises(ValueError, match="one per image"):
        RawImageBatch(pixels=np.ones((2, 3)), labels=np.array([1]), source="mnist")
