"""Input covariance spectra: construction, symmetric eigendecomposition, rotations.

Everything downstream works in the eigenbasis of the unnormalised input
covariance sum(x_i x_i^T); the 1/N factor is deliberately absorbed by the
time constant tau = N / alpha rather than the covariance itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import write_columns
from .errors import NotSymmetricError

log = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-8
CLAMP_TOL = 1e-10      # eigenvalues in (-CLAMP_TOL, 0) are round-off and clamp to 0
PIXEL_LEVELS = 255     # an image file's uint8 count P stands for the value P / 255
GRAM_BLOCK_ROWS = 256  # rows of counts per block: 256 * 255^2 < 2^24, so float32 sums them

# The benchmark tracer (bench/spans.py) counts calls to a Jacobi solver under
# this name. No product code path has one, so the name is bound to nothing and
# its count reads 0; the reference solver lives in tests/oracles.py.
_jacobi = None


def _standardised(x, center, scale):
    # in place on a float X: the per-feature mean removed, then division by the largest
    # |entry| unless that is 0
    if center:
        x -= x.mean(axis=0)
    if scale:
        peak = max(x.max(), -x.min())
        if peak > 0.0:
            x /= peak
    return x


@dataclass(frozen=True, init=False)
class Dataset:
    """N samples of dimension D; rows are samples. Immutable after construction.

    `stored` is a float64 X, or an image file's uint8 counts P, which stand
    for X = P / 255. `center` removes the per-feature mean and `scale` then
    divides by the largest |entry|: a float X is copied and standardised
    when built, counts where they are read. `covariance` and `gram_product`
    read counts in row blocks; `samples` forms their X only when first read,
    and keeps it.
    """

    stored: np.ndarray
    source: str
    center: bool
    scale: bool

    def __init__(self, samples, source="synthetic", center=False, scale=False):
        samples = np.asarray(samples)
        if samples.dtype != np.uint8:
            samples = np.ascontiguousarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 1:
            raise ValueError(f"samples must be a non-empty N x D matrix, got shape {samples.shape}")
        if samples.dtype != np.uint8:
            finite_rows = np.isfinite(samples).all(axis=1)
            if not finite_rows.all():
                bad = int(np.flatnonzero(~finite_rows)[0])
                raise ValueError(f"non-finite entry in sample {bad}")
            if center or scale:
                samples = _standardised(samples.copy(), center, scale)
        if source not in ("synthetic", "mnist", "cifar10"):
            raise ValueError(f"unknown source tag {source!r}")
        for name, value in (("stored", samples), ("source", source),
                            ("center", bool(center)), ("scale", bool(scale))):
            object.__setattr__(self, name, value)

    @property
    def holds_counts(self) -> bool:
        return self.stored.dtype == np.uint8

    @cached_property
    def samples(self) -> np.ndarray:
        """X as float64: the stored X, or P / 255 standardised like a float X."""
        if not self.holds_counts:
            return self.stored
        x = self.stored.astype(np.float64)
        x /= PIXEL_LEVELS
        return _standardised(x, self.center, self.scale)

    def blocks(self):
        """The stored array in row blocks: a float X whole, or GRAM_BLOCK_ROWS rows of
        counts at a time, cast into one buffer (use a block before the next) of float32,
        whose integers are exact below 2^24, as a block's sums are (GRAM_BLOCK_ROWS)."""
        if not self.holds_counts:
            yield self.stored
            return
        buf = np.empty((min(self.n, GRAM_BLOCK_ROWS), self.d), dtype=np.float32)
        for start in range(0, self.n, GRAM_BLOCK_ROWS):
            counts = self.stored[start:start + GRAM_BLOCK_ROWS]
            block = buf[:counts.shape[0]]
            np.copyto(block, counts)
            yield block

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    @property
    def d(self) -> int:
        return self.stored.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Orthogonal eigenbasis (columns) and non-increasing eigenvalues of a covariance."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.eigenvectors, dtype=np.float64)
        lams = np.asarray(self.eigenvalues, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"eigenvectors must be square, got shape {v.shape}")
        if lams.shape != (v.shape[0],):
            raise ValueError("eigenvalue count must match basis dimension")
        gram = v.T @ v      # |V^T V - I| in place: no identity or difference array
        gram[np.diag_indices_from(gram)] -= 1.0
        ortho_err = float(np.max(np.abs(gram, out=gram)))
        if ortho_err > ORTHOGONALITY_TOL:
            raise ValueError(f"eigenbasis not orthogonal: max |V^T V - I| = {ortho_err:.3e}")
        if np.any(np.diff(lams) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[0]


def _doubles(s):
    # whether S + S^T stays finite: no |entry| above half the largest double (NaN fails too)
    half = np.finfo(np.float64).max / 2.0
    return bool(s.max(initial=0.0) <= half and s.min(initial=0.0) >= -half)


def _as_dataset(data):
    return data if isinstance(data, Dataset) else Dataset(np.asarray(data, dtype=np.float64))


def exact_centring(n):
    """Whether N P^T P and s s^T of N images of 8-bit counts are integers below 2^53.

    Their entries are at most N^2 255^2, so this holds up to N = 372 181; past it, the
    centred covariance takes the float formula, and one line is logged.
    """
    exact = n * n * PIXEL_LEVELS ** 2 < 2 ** 53
    if not exact:
        log.info("%d images: N P^T P passes 2^53, so the centred covariance is formed "
                 "in float arithmetic", n)
    return exact


def _gram(dataset: Dataset, u=None):
    # X^T X (u None) or X^T X u, summed over the stored array's row blocks; a float X is one
    # block. Counts give exact integers: a block's partial sums are exact in its dtype (see
    # Dataset.blocks), and the float64 total stays below N 255^2 < 2^53, whatever the block
    # size, BLAS build or thread count. They are then taken to X's scale: centred as
    # (N P^T P - s s^T) / (N 255^2), with s the column sums, one rounding while
    # exact_centring holds, and divided by the squared largest |X| if scaled
    blocks = dataset.blocks()
    first = next(blocks)
    total = first.T @ first if u is None else first.T @ (first @ u)
    total = total.astype(np.float64, copy=False)    # a float32 block's Gram is summed in float64
    part = None
    for block in blocks:    # one D x D buffer serves every later block
        part = np.matmul(block.T, block, out=part) if u is None else block.T @ (block @ u)
        total += part
    if not dataset.holds_counts:
        return total
    n, p, divisor = dataset.n, dataset.stored, float(PIXEL_LEVELS ** 2)
    if dataset.center:
        s = p.sum(axis=0, dtype=np.float64)
        if u is not None:
            total -= s * (s @ u / n)
        elif exact_centring(n):
            total *= n
            total -= np.multiply.outer(s, s)
            divisor *= n
        else:
            total -= np.multiply.outer(s, s / n)
    total /= divisor
    if dataset.scale:
        if dataset.center:  # |N P - s| / (255 N) peaks at a column's largest or smallest count
            top, bottom = (c.astype(np.float64) * n for c in (p.max(axis=0), p.min(axis=0)))
            peak = max(np.max(top - s), np.max(s - bottom))
            peak /= PIXEL_LEVELS * n
        else:
            peak = float(p.max()) / PIXEL_LEVELS
        if peak > 0.0:
            total /= peak * peak
    return total


def covariance(dataset):
    """Sum of outer products of the samples, S = X^T X, exactly symmetric.

    Summed over row blocks of the dataset's stored array (Dataset.blocks). A
    float X is one block, so S is numpy's X^T X, which is symmetric bit for
    bit, and (S + S^T) / 2 of an exactly symmetric S is S, so S is returned
    as formed; only an S that is not exactly symmetric is symmetrised as
    (S + S^T) / 2. An S that cannot be doubled in float64 raises
    OverflowError. An image file's uint8 counts P give the exact integer
    P^T P, whose bits do not depend on the block size, the BLAS build or the
    thread count, divided once by 255^2; under `center`,
    (N P^T P - s s^T) / (N 255^2) with s the integer column sums (see
    exact_centring), and under `scale`, divided by the squared largest |X|.
    Unnormalised, and centred or scaled only as the dataset says (see
    `data.preprocess`). Accepts a Dataset or a plain N x D array.
    """
    dataset = _as_dataset(dataset)
    with np.errstate(over="ignore", invalid="ignore"):     # refused just below, by name
        s = _gram(dataset)
    if not _doubles(s):
        raise OverflowError(f"X^T X overflows float64 once symmetrised: its entries reach "
                            f"{max(-s.min(), s.max()):.3e}")
    return s if np.array_equal(s, s.T) else 0.5 * (s + s.T)


def gram_product(dataset, u):
    """X^T (X u) for a D-vector u, over the same row blocks as covariance: a float X whole,
    counts a block at a time, so no float64 X is formed. Accepts a Dataset or an N x D array."""
    return _gram(_as_dataset(dataset), np.asarray(u, dtype=np.float64))


def eigendecompose(s) -> Spectrum:
    """Symmetric eigendecomposition by LAPACK (numpy.linalg.eigh), fixed ordering and signs.

    Output conventions: eigenvalues sorted non-increasing with a stable sort,
    each eigenvector's largest-magnitude component made positive, round-off
    negative eigenvalues clamped to zero (and logged). Eigenvectors inside a
    degenerate eigenvalue block are basis-dependent; compare subspace
    projectors, not individual vectors. eigh gets S itself when S is exactly
    symmetric (and can be doubled), else (S + S^T) / 2, so no copy of S sits
    beside eigh's own arrays; the asymmetry check holds one temporary.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    gap = s - s.T
    asym = float(np.max(np.abs(gap, out=gap))) if s.size else 0.0
    del gap
    if asym > SYMMETRY_TOL:
        raise NotSymmetricError(f"input not symmetric: max |S - S^T| = {asym:.3e}")
    # (S + S^T) / 2 is S itself when S is exactly symmetric and doubles finitely
    lams, v = np.linalg.eigh(s if asym == 0.0 and _doubles(s) else 0.5 * (s + s.T))
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    v = v[:, order]
    peak = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    roundoff = (lams > -CLAMP_TOL) & (lams < 0.0)
    if roundoff.any():
        log.warning("clamped %d round-off negative eigenvalues to 0", int(roundoff.sum()))
        lams = np.where(roundoff, 0.0, lams)
    return Spectrum(eigenvectors=v, eigenvalues=lams)


def rotate_weights(w1, w2, spectrum):
    """Align weights with the covariance eigenbasis: returns (W1 V, V^T W2)."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    d = spectrum.d
    if w1.ndim != 2 or w1.shape[1] != d:
        raise ValueError(f"w1 must be H x {d}, got shape {w1.shape}")
    if w2.ndim != 2 or w2.shape != (d, w1.shape[0]):
        raise ValueError(f"w2 must be {d} x {w1.shape[0]}, got shape {w2.shape}")
    v = spectrum.eigenvectors
    return w1 @ v, v.T @ w2


def random_orthogonal(dim, rng):
    """Orthogonal matrix from QR of a standard normal draw, sign-fixed via diag(R) >= 0."""
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def write_spectrum_csv(spectrum, path, eigenvectors_path=None):
    """CSV rows (index, eigenvalue) with a header; index is the 1-based rank.

    Eigenvectors go to a separate headerless D x D CSV when a path is given
    (column j of the file is eigenvector j).
    """
    write_columns(path, ["index", "eigenvalue"],
                  [[np.arange(1, spectrum.eigenvalues.size + 1), spectrum.eigenvalues]])
    if eigenvectors_path is not None:
        write_columns(eigenvectors_path, None, [list(spectrum.eigenvectors.T)])
