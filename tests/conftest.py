"""Shared fixtures: deterministic image-like binary datasets and the acceptance report.

Real MNIST/CIFAR files are used when DAEDYN_MNIST_IMAGES / DAEDYN_CIFAR_BATCH
point at them; otherwise the suite generates image-like binary fixtures with a
controlled covariance spectrum and exercises the identical ingestion pipeline.
"""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from oracles import write_cifar10, write_idx

from daedyn import data, spectrum


def imagelike_pixels(n_img, d, seed, n_strong=24, strong=2.0, weak=0.025):
    """Image-shaped samples: smooth mean plus planted spectral directions.

    The strong block keeps the learnable modes comfortably inside a hidden
    width of 32 while the weak tail stays dormant on desk-scale runs.
    """
    rng = np.random.default_rng(seed)
    side = int(round(np.sqrt(d)))
    if side * side == d:
        yy, xx = np.mgrid[0:side, 0:side]
        mean = 0.3 * np.exp(-(((xx - side / 2) ** 2 + (yy - side / 2) ** 2)
                              / (2 * (side / 3) ** 2))).ravel()
    else:
        mean = np.full(d, 0.3)
    n_dir = min(64, d)
    q = spectrum.random_orthogonal(d, rng)[:, :n_dir]
    sig2 = np.concatenate([
        strong * np.arange(1, n_strong + 1) ** -0.3,
        weak * np.arange(1, n_dir - n_strong + 1) ** -0.3,
    ])
    z = rng.standard_normal((n_img, n_dir))
    x = mean[None, :] + (z * np.sqrt(sig2)) @ q.T
    return np.rint(np.clip(x, 0.0, 1.0) * 255).astype(np.uint8)


def write_imagelike_idx(path, count, seed, chunk=5000):
    """An IDX file of `count` 28 x 28 image-like images, written `chunk` at a time.

    Chunk k holds imagelike_pixels(chunk, 784, seed + k), each with its own planted
    directions, so no more than one chunk of float pixels is held at once.
    """
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, 28, 28))
        for k, start in enumerate(range(0, count, chunk)):
            fh.write(imagelike_pixels(min(chunk, count - start), 784, seed + k).tobytes())


@pytest.fixture(scope="session")
def mnist_like_paths(tmp_path_factory):
    """IDX images path: real MNIST when configured, else the fixture."""
    env = os.environ.get("DAEDYN_MNIST_IMAGES")
    if env and Path(env).is_file():
        return Path(env)
    root = tmp_path_factory.mktemp("mnist_like")
    pixels = imagelike_pixels(1200, 784, seed=20)
    batch = data.RawImageBatch(pixels=pixels, labels=None, source="mnist", image_shape=(28, 28))
    images = root / "train-images-idx3-ubyte"
    write_idx(batch, images)
    return images


@pytest.fixture(scope="session")
def cifar_like_path(tmp_path_factory):
    """CIFAR-10 binary batch path: real file when configured, else the fixture."""
    env = os.environ.get("DAEDYN_CIFAR_BATCH")
    if env and Path(env).is_file():
        return Path(env)
    root = tmp_path_factory.mktemp("cifar_like")
    pixels = imagelike_pixels(700, 3072, seed=33)
    rng = np.random.default_rng(44)
    batch = data.RawImageBatch(pixels=pixels, labels=rng.integers(0, 10, size=700),
                               source="cifar10")
    path = root / "data_batch_1.bin"
    write_cifar10(batch, path)
    return path


@pytest.fixture(scope="session")
def mnist_like_dataset(mnist_like_paths):
    """Parsed 1000-sample dataset plus its spectrum (the criterion-7 setup)."""
    images = mnist_like_paths
    batch = data.load_idx(images, count_limit=1000)
    dataset = data.preprocess(batch)
    spec = spectrum.eigendecompose(spectrum.covariance(dataset))
    return dataset, spec


@pytest.fixture(scope="session")
def d16_cache(tmp_path_factory):
    """Matrix-cache path of a 64 x 16 synthetic dataset with a known spectrum."""
    path = tmp_path_factory.mktemp("d16") / "d16.cache"
    data.save_matrix(path, data.synthetic_dataset(np.linspace(2.0, 0.1, 16), 64, seed=1).samples)
    return path


_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::test_criterion_", 1)[1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[name] = "ERROR"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        verdict = _ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"criterion {name}: {verdict}")
