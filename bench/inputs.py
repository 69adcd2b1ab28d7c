"""Seeded benchmark inputs: an image-like IDX fixture and a synthetic matrix cache.

The program under test receives only the files written here (plus flags), so
every input is a pure function of the workload seed. Each file is recorded
with its size, sha256 and seed so that two runs can prove they measured the
same bytes.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IMAGE_SIDE = 28
IMAGE_COUNT = 1200

SYNTH_N = 2000
SYNTH_D = 128
# k^-0.75 spectrum: leading modes separated enough for the decoupled per-mode
# theory to hold on the ranks the sampled workload checks, with a top
# eigenvalue small enough that --alpha 10 stays close to the continuous flow
SYNTH_EIGENVALUES = 30.0 * np.arange(1, SYNTH_D + 1) ** -0.75


def _random_orthogonal(dim, rng):
    # same draw and sign convention as the package's spectrum.random_orthogonal,
    # kept here so the fixture bytes do not depend on the code under test
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def imagelike_pixels(n_img, seed, n_strong=24, strong=2.0, weak=0.025):
    """Image-shaped uint8 samples: a smooth mean blob plus planted spectral directions.

    The construction matches the test suite's image-like fixture: a strong
    block of 24 directions keeps the learnable modes inside a hidden width of
    32 while the weak tail stays dormant at desk-scale run lengths.
    """
    d = IMAGE_SIDE * IMAGE_SIDE
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    half, width = IMAGE_SIDE / 2, IMAGE_SIDE / 3
    mean = 0.3 * np.exp(-(((xx - half) ** 2 + (yy - half) ** 2) / (2 * width ** 2))).ravel()
    n_dir = min(64, d)
    q = _random_orthogonal(d, rng)[:, :n_dir]
    sig2 = np.concatenate([
        strong * np.arange(1, n_strong + 1) ** -0.3,
        weak * np.arange(1, n_dir - n_strong + 1) ** -0.3,
    ])
    z = rng.standard_normal((n_img, n_dir))
    x = mean[None, :] + (z * np.sqrt(sig2)) @ q.T
    return np.rint(np.clip(x, 0.0, 1.0) * 255).astype(np.uint8)


def write_idx_images(path, pixels):
    """IDX rank-3 unsigned-byte image file: big-endian header, then row-major bytes."""
    n = pixels.shape[0]
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, IMAGE_SIDE, IMAGE_SIDE))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def write_matrix_cache(path, matrix):
    """Matrix cache: (rows, cols) uint32-LE header, then row-major float64-LE values."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def file_record(path, seed):
    raw = Path(path).read_bytes()
    return {"file": Path(path).name, "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(), "seed": seed}


def make_images(directory, seed):
    """Write the IDX fixture; returns (path, pixels scaled to [0, 1], record)."""
    pixels = imagelike_pixels(IMAGE_COUNT, seed)
    path = Path(directory) / "train-images-idx3-ubyte"
    write_idx_images(path, pixels)
    return path, pixels / 255.0, file_record(path, seed)


def make_synthetic_cache(directory, seed):
    """Write the N=2000, D=128 cache drawn by the package's synthetic_dataset."""
    from daedyn.data import synthetic_dataset

    samples = synthetic_dataset(SYNTH_EIGENVALUES, SYNTH_N, seed).samples
    path = Path(directory) / "synthetic.cache"
    write_matrix_cache(path, samples)
    return path, samples, file_record(path, seed)
