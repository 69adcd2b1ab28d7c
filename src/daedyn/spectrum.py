"""Input covariance spectra: construction, symmetric eigendecomposition, rotations.

Everything downstream works in the eigenbasis of the unnormalised input
covariance sum(x_i x_i^T); the 1/N factor is deliberately absorbed by the
time constant tau = N / alpha rather than the covariance itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytic import write_columns
from .errors import NotSymmetricError

log = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-8
CLAMP_TOL = 1e-10      # eigenvalues in (-CLAMP_TOL, 0) are round-off and clamp to 0

# The benchmark tracer (bench/spans.py) counts calls to a Jacobi solver under
# this name. No product code path has one, so the name is bound to nothing and
# its count reads 0; the reference solver lives in tests/oracles.py.
_jacobi = None


@dataclass(frozen=True)
class Dataset:
    """N samples of dimension D; rows are samples. Immutable after construction."""

    samples: np.ndarray
    source: str = "synthetic"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 1:
            raise ValueError(f"samples must be a non-empty N x D matrix, got shape {samples.shape}")
        finite_rows = np.isfinite(samples).all(axis=1)
        if not finite_rows.all():
            bad = int(np.flatnonzero(~finite_rows)[0])
            raise ValueError(f"non-finite entry in sample {bad}")
        if self.source not in ("synthetic", "mnist", "cifar10"):
            raise ValueError(f"unknown source tag {self.source!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


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
        gram = v.T @ v
        ortho_err = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if ortho_err > ORTHOGONALITY_TOL:
            raise ValueError(f"eigenbasis not orthogonal: max |V^T V - I| = {ortho_err:.3e}")
        if np.any(np.diff(lams) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[0]


def covariance(dataset):
    """Sum of outer products of the samples, symmetrized as (S + S^T) / 2.

    Unnormalised and uncentred (centring belongs to `data.preprocess`).
    Accepts a Dataset or a plain N x D array.
    """
    x = dataset.samples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected an N x D matrix, got shape {x.shape}")
    finite_rows = np.isfinite(x).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise ValueError(f"non-finite entry in sample {bad}")
    s = x.T @ x
    return 0.5 * (s + s.T)


def eigendecompose(s) -> Spectrum:
    """Symmetric eigendecomposition by LAPACK (numpy.linalg.eigh), fixed ordering and signs.

    Output conventions: eigenvalues sorted non-increasing with a stable sort,
    each eigenvector's largest-magnitude component made positive, round-off
    negative eigenvalues clamped to zero (and logged). Eigenvectors inside a
    degenerate eigenvalue block are basis-dependent; compare subspace
    projectors, not individual vectors.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    asym = float(np.max(np.abs(s - s.T))) if s.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetricError(f"input not symmetric: max |S - S^T| = {asym:.3e}")
    lams, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    v = v[:, order]
    peak = np.argmax(np.abs(v), axis=0)
    signs = np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    v = v * signs
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
