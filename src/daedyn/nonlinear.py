"""Nonlinear autoencoder training and the eigenmode-mapping estimator.

Nonlinear training has no closed-form noise marginalisation, so corruption is
sampled fresh every epoch. The estimator projects the clean-input
reconstruction cross-covariance onto the input eigenbasis to read off how
much of each eigen-direction the network currently reconstructs; it works
in that basis, where the weights (W1 V, V^T W2) map XV to X_hat V.
"""

from __future__ import annotations

import numpy as np

# _draw_noise is not called here; it stays bound in this module because the benchmark
# tracer (bench/spans.py) wraps it by name
from .simulate import (  # noqa: F401
    ACTIVATIONS, Autoencoder, Run, TrainingConfig, _draw_noise, descend)
from .spectrum import Dataset, Spectrum

LAMBDA_FLOOR_FACTOR = 1e-8  # modes below this fraction of the top eigenvalue are absent

# The benchmark tracer (bench/spans.py) wraps this name. Every backprop step runs in
# simulate._sampled_grads, so it is bound to nothing and its count reads 0.
backprop_grads = None


def _estimate(xv, xw1, w2r, activation, lams):
    # diag(V^T X^T X_hat V) / lam as colsum(XV * X_hat V) / lam, where X_hat V =
    # phi(X W1^T) (V^T W2)^T: the hidden layer needs no rotation of W1. xv may hold only the
    # r <= D leading columns of XV, the rest being zero; the cost is then O(N H r), and the
    # modes past r read NaN
    phi, _ = ACTIVATIONS[activation]
    r = xv.shape[1]
    diag = np.sum(xv * (phi(xw1) @ w2r[:r].T), axis=0)
    retained = lams[:r] > LAMBDA_FLOOR_FACTOR * (lams[0] if lams.size else 0.0)
    ratios = np.full(lams.shape, np.nan)
    ratios[:r][retained] = diag[retained] / lams[:r][retained]
    return ratios


def estimate_identity_map(dataset: Dataset, model: Autoencoder, spectrum: Spectrum):
    """Per-mode identity-mapping ratios: the reconstructed fraction of each eigen-direction.

    Returns diag(V^T X^T X_hat V) / lam, with X_hat the model's reconstruction
    of the clean input, computed in the eigenbasis from XV, the clean
    pre-activation X W1^T and V^T W2; modes below the eigenvalue floor are
    absent and read NaN. Estimation never consumes corrupted data.
    """
    if spectrum.d != dataset.d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match dataset dim {dataset.d}")
    x, v = dataset.samples, spectrum.eigenvectors
    return _estimate(x @ v, x @ model.w1.T, v.T @ model.w2, model.activation,
                     spectrum.eigenvalues)


def train_nonlinear(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig,
                    activation: str, xv=None) -> Run:
    """Full-batch backprop with fresh per-epoch corruption; the run's modes are estimated ratios.

    Corruption is always sampled, whatever config.loss_mode says. A noise-free
    or Gaussian leg trains in the covariance eigenbasis on the data's range
    XV_r (see descend); a Laplace leg trains in pixel space. Each record
    estimates the ratios from XV (XV_r on an eigenbasis leg), the caller's xv
    or one formed once per run, the clean pre-activation X W1^T, which an
    eigenbasis leg's step has already formed, and V^T W2; modes below the
    eigenvalue floor read NaN. The run is deterministic per seed. epochs=0 is
    allowed and records the initial model only.
    """
    lams = spectrum.eigenvalues
    return descend(dataset, spectrum, config,
                   lambda xv, xw1, w2r: _estimate(xv, xw1, w2r, activation, lams),
                   activation=activation, pre_activation=True, xv=xv)
