"""Dataset ingestion: IDX and CIFAR-10 binary parsers, synthetic spectra, preprocessing.

File formats handled here:
  - IDX images: 4-byte big-endian magic 0x00000803, three big-endian uint32
    dims (count, rows, cols), then raw unsigned bytes row-major.
  - IDX labels: magic 0x00000801, one uint32 count, then one byte per label.
  - CIFAR-10 binary: consecutive 3073-byte records (1 label byte followed by
    3072 channel-major pixel bytes). The channel-major layout is preserved.
  - Matrix cache: 8-byte header of two little-endian uint32 (rows, cols),
    then row-major little-endian float64 values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .spectrum import Dataset, random_orthogonal

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
MAX_PIXEL_COUNT = 2 ** 40  # header sanity bound before allocating


@dataclass(frozen=True)
class RawImageBatch:
    """Parsed images scaled to [0, 1]; labels are kept but unused by training."""

    pixels: np.ndarray
    labels: np.ndarray | None
    source: str
    image_shape: tuple[int, int] | None = None  # (rows, cols) for IDX round-trips

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError(f"pixels must be a non-empty N x D matrix, got shape {pixels.shape}")
        if pixels.min() < 0.0 or pixels.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (pixels.shape[0],):
                raise ValueError("labels must be one per image")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pixels", pixels)

    @property
    def n(self) -> int:
        return self.pixels.shape[0]

    @property
    def d(self) -> int:
        return self.pixels.shape[1]


def _read_file(path):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_idx(images_path, count_limit=None, labels_path=None) -> RawImageBatch:
    """Parse an IDX unsigned-byte rank-3 image file; bytes are scaled by 1/255.

    Parses the first min(count_limit, header count) images. Labels come from a
    separate IDX label file when a path is given.
    """
    raw = _read_file(images_path)
    if len(raw) < 4:
        raise ParseError(f"truncated magic: file ends at byte {len(raw)}", offset=len(raw))
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_IMAGES_MAGIC:
        raise ParseError(
            f"wrong magic 0x{magic:08x} at byte 0 (expected 0x{IDX_IMAGES_MAGIC:08x})", offset=0)
    if len(raw) < 16:
        raise ParseError(f"truncated dimension header: file ends at byte {len(raw)}", offset=len(raw))
    count, rows, cols = struct.unpack(">III", raw[4:16])
    if rows * cols == 0:
        raise ParseError(f"zero image dimensions {rows}x{cols} in header at byte 8", offset=8)
    if count * rows * cols > MAX_PIXEL_COUNT:
        raise ParseError(
            f"dimension overflow: header at byte 4 promises {count}x{rows}x{cols} pixels", offset=4)
    n = count if count_limit is None else min(count, int(count_limit))
    need = 16 + n * rows * cols
    if len(raw) < need:
        raise ParseError(
            f"truncated pixel data: need {need} bytes for {n} images, file ends at byte {len(raw)}",
            offset=len(raw))
    pixels = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=16)
    pixels = pixels.astype(np.float64).reshape(n, rows * cols) / 255.0
    labels = _load_idx_labels(labels_path, n) if labels_path is not None else None
    return RawImageBatch(pixels=pixels, labels=labels, source="mnist", image_shape=(rows, cols))


def _load_idx_labels(path, n):
    raw = _read_file(path)
    if len(raw) < 8:
        raise ParseError(f"truncated label header: file ends at byte {len(raw)}", offset=len(raw))
    magic = int.from_bytes(raw[0:4], "big")
    if magic != IDX_LABELS_MAGIC:
        raise ParseError(
            f"wrong magic 0x{magic:08x} at byte 0 (expected 0x{IDX_LABELS_MAGIC:08x})", offset=0)
    count = int.from_bytes(raw[4:8], "big")
    if count < n or len(raw) < 8 + n:
        raise ParseError(f"label file has {count} entries, need {n}", offset=8)
    labels = np.frombuffer(raw, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise ParseError(f"label {labels[bad[0]]} out of range at byte {8 + int(bad[0])}",
                         offset=8 + int(bad[0]))
    return labels


def load_cifar10(batch_path, count_limit=None) -> RawImageBatch:
    """Parse a CIFAR-10 binary batch; pixels scaled by 1/255, labels captured."""
    raw = _read_file(batch_path)
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        whole = len(raw) // CIFAR_RECORD_BYTES
        raise ParseError(
            f"file length {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES} "
            f"(nearest record boundaries: {whole * CIFAR_RECORD_BYTES} and "
            f"{(whole + 1) * CIFAR_RECORD_BYTES})",
            offset=whole * CIFAR_RECORD_BYTES)
    count = len(raw) // CIFAR_RECORD_BYTES
    n = count if count_limit is None else min(count, int(count_limit))
    records = np.frombuffer(raw, dtype=np.uint8, count=n * CIFAR_RECORD_BYTES)
    records = records.reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise ParseError(
            f"label {labels[bad[0]]} out of range in record {bad[0]} "
            f"at byte {int(bad[0]) * CIFAR_RECORD_BYTES}",
            offset=int(bad[0]) * CIFAR_RECORD_BYTES)
    pixels = records[:, 1:].astype(np.float64) / 255.0
    return RawImageBatch(pixels=pixels, labels=labels, source="cifar10")


def write_idx(batch: RawImageBatch, images_path, labels_path=None):
    """Serialize a batch back to IDX bytes; exact inverse of load_idx."""
    rows, cols = batch.image_shape if batch.image_shape else (batch.d, 1)
    if rows * cols != batch.d:
        raise ValueError(f"image shape {rows}x{cols} does not match dimension {batch.d}")
    data = np.rint(batch.pixels * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, batch.n, rows, cols))
        fh.write(data.tobytes())
    if labels_path is not None:
        if batch.labels is None:
            raise ValueError("batch has no labels to serialize")
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", IDX_LABELS_MAGIC, batch.n))
            fh.write(batch.labels.astype(np.uint8).tobytes())


def write_cifar10(batch: RawImageBatch, path):
    """Serialize a batch back to CIFAR-10 binary records; exact inverse of load_cifar10."""
    if batch.d != CIFAR_RECORD_BYTES - 1:
        raise ValueError(f"CIFAR records need {CIFAR_RECORD_BYTES - 1} pixels, got {batch.d}")
    if batch.labels is None:
        raise ValueError("CIFAR serialization needs labels")
    records = np.empty((batch.n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = batch.labels.astype(np.uint8)
    records[:, 1:] = np.rint(batch.pixels * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def synthetic_dataset(eigenvalues, n, seed) -> Dataset:
    """Samples whose unnormalised covariance has the given expected spectrum.

    Rows are i.i.d. gaussian with diagonal covariance diag(eigenvalues) / n,
    rotated by a seeded random orthogonal basis, so sum(x_i x_i^T) has
    expected eigenvalues equal to the request. Deterministic per seed.
    """
    lams = np.asarray(eigenvalues, dtype=np.float64)
    if lams.ndim != 1 or lams.size < 1:
        raise ValueError("eigenvalues must be a non-empty vector")
    if np.any(lams < 0.0):
        raise ValueError("eigenvalues must be >= 0")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, lams.size))
    q = random_orthogonal(lams.size, rng)
    x = (g * np.sqrt(lams / n)) @ q.T
    return Dataset(samples=x, source="synthetic")


def preprocess(batch, center=False, scale=False) -> Dataset:
    """Optional per-feature mean removal and global max-abs rescale (default pass-through).

    batch is a parsed RawImageBatch or a plain N x D matrix such as a loaded
    matrix cache; a plain matrix is tagged as synthetic.
    """
    if isinstance(batch, RawImageBatch):
        x, source = batch.pixels, batch.source
    else:
        x, source = np.asarray(batch, dtype=np.float64), "synthetic"
    if center:
        x = x - x.mean(axis=0)
    if scale:
        peak = np.max(np.abs(x))
        if peak > 0.0:
            x = x / peak
    return Dataset(samples=np.ascontiguousarray(x), source=source)


def save_matrix(path, matrix):
    """Matrix cache writer: (rows, cols) uint32-LE header, float64-LE payload."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def load_matrix(path):
    """Inverse of save_matrix."""
    raw = _read_file(path)
    if len(raw) < 8:
        raise ParseError(f"truncated cache header: file ends at byte {len(raw)}", offset=len(raw))
    rows, cols = struct.unpack("<II", raw[0:8])
    need = 8 + rows * cols * 8
    if len(raw) != need:
        raise ParseError(
            f"cache payload mismatch: header at byte 0 promises {need} bytes, file has {len(raw)}",
            offset=min(len(raw), need))
    return np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=8).reshape(rows, cols).copy()
