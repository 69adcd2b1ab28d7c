"""Dataset ingestion: IDX and CIFAR-10 binary parsers, synthetic spectra, preprocessing.

File formats handled here:
  - IDX images: 4-byte big-endian magic 0x00000803, three big-endian uint32
    dims (count, rows, cols), then raw unsigned bytes row-major; no labels.
  - CIFAR-10 binary: consecutive 3073-byte records (1 label byte followed by
    3072 channel-major pixel bytes), layout preserved; labels checked and kept.
  - Matrix cache: 8-byte header of two little-endian uint32 (rows, cols),
    then row-major little-endian float64 values.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .spectrum import Dataset, random_orthogonal

IDX_IMAGES_MAGIC = 0x00000803
CIFAR_RECORD_BYTES = 3073
MAX_PIXEL_COUNT = 2 ** 40  # header sanity bound before allocating


@dataclass(frozen=True)
class RawImageBatch:
    """Parsed images scaled to [0, 1]; CIFAR-10 keeps its checked labels, IDX has none."""

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


def load_idx(images_path, count_limit=None) -> RawImageBatch:
    """The first min(count_limit, header count) images of an IDX uint8 file, scaled by 1/255.

    Only the header and the kept images are read; a file cut short after them is accepted.
    """
    try:
        with open(images_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(16)
            if len(head) < 4:
                raise ParseError(f"truncated magic: file ends at byte {len(head)}",
                                 offset=len(head))
            magic = int.from_bytes(head[0:4], "big")
            if magic != IDX_IMAGES_MAGIC:
                raise ParseError(f"wrong magic 0x{magic:08x} at byte 0 "
                                 f"(expected 0x{IDX_IMAGES_MAGIC:08x})", offset=0)
            if len(head) < 16:
                raise ParseError(f"truncated dimension header: file ends at byte {len(head)}",
                                 offset=len(head))
            count, rows, cols = struct.unpack(">III", head[4:16])
            if count == 0:
                raise ParseError("empty image file: header at byte 4 promises 0 images",
                                 offset=4)
            if rows * cols == 0:
                raise ParseError(f"zero image dimensions {rows}x{cols} in header at byte 8",
                                 offset=8)
            if count * rows * cols > MAX_PIXEL_COUNT:
                raise ParseError(f"dimension overflow: header at byte 4 promises "
                                 f"{count}x{rows}x{cols} pixels", offset=4)
            n = count if count_limit is None else min(count, int(count_limit))
            # no more than the file holds, so a header promising more allocates nothing for it
            payload = fh.read(min(n * rows * cols, size - 16))
    except OSError as exc:
        raise ParseError(f"cannot read {images_path}: {exc}") from exc
    need, end = 16 + n * rows * cols, 16 + len(payload)
    if end < need:
        raise ParseError(
            f"truncated pixel data: need {need} bytes for {n} images, file ends at byte {end}",
            offset=end)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)
    # unnamed, the float64 copy is divided in place: one N x D array at the peak, not two
    return RawImageBatch(pixels=pixels.astype(np.float64) / 255.0, labels=None, source="mnist",
                         image_shape=(rows, cols))


def load_cifar10(batch_path, count_limit=None) -> RawImageBatch:
    """Parse a CIFAR-10 binary batch; pixels scaled by 1/255, labels captured.

    The file's size is checked whole, but only the kept records are read.
    """
    try:
        with open(batch_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == 0 or size % CIFAR_RECORD_BYTES != 0:
                whole = size // CIFAR_RECORD_BYTES
                raise ParseError(
                    f"file length {size} is not a positive multiple of {CIFAR_RECORD_BYTES} "
                    f"(nearest record boundaries: {whole * CIFAR_RECORD_BYTES} and "
                    f"{(whole + 1) * CIFAR_RECORD_BYTES})",
                    offset=whole * CIFAR_RECORD_BYTES)
            count = size // CIFAR_RECORD_BYTES
            n = count if count_limit is None else min(count, int(count_limit))
            payload = fh.read(n * CIFAR_RECORD_BYTES)
    except OSError as exc:
        raise ParseError(f"cannot read {batch_path}: {exc}") from exc
    if len(payload) != n * CIFAR_RECORD_BYTES:
        raise ParseError(f"truncated record data: file ends at byte {len(payload)}",
                         offset=len(payload))
    records = np.frombuffer(payload, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise ParseError(
            f"label {labels[bad[0]]} out of range in record {bad[0]} "
            f"at byte {int(bad[0]) * CIFAR_RECORD_BYTES}",
            offset=int(bad[0]) * CIFAR_RECORD_BYTES)
    pixels = records[:, 1:].astype(np.float64) / 255.0
    return RawImageBatch(pixels=pixels, labels=labels, source="cifar10")


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


def load_matrix(path, count_limit=None):
    """Inverse of save_matrix; only the first min(count_limit, rows) rows are read."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(8)
            if len(header) < 8:
                raise ParseError(f"truncated cache header: file ends at byte {len(header)}",
                                 offset=len(header))
            rows, cols = struct.unpack("<II", header)
            if rows * cols == 0:
                raise ParseError(f"empty cache: header at byte 0 promises {rows}x{cols} values",
                                 offset=0)
            need = 8 + rows * cols * 8
            if size != need:
                raise ParseError(f"cache payload mismatch: header at byte 0 promises {need} "
                                 f"bytes, file has {size}", offset=min(size, need))
            n = rows if count_limit is None else min(rows, int(count_limit))
            payload = fh.read(n * cols * 8)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(payload) != n * cols * 8:
        raise ParseError(f"truncated cache payload: file ends at byte {8 + len(payload)}",
                         offset=8 + len(payload))
    # copied from the read buffer, as before: read in place, X shared its page offset with the
    # sampled step's N x D noise buffer, and sampled_small_d trained 10-22% slower
    return np.frombuffer(payload, dtype="<f8").reshape(n, cols).copy()
