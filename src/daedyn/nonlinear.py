"""Nonlinear autoencoder training and the eigenmode-mapping estimator.

Nonlinear training has no closed-form noise marginalisation, so corruption is
sampled fresh every epoch. The estimator projects the clean-input
reconstruction cross-covariance onto the input eigenbasis to read off how
much of each eigen-direction the network currently reconstructs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _draw_noise and backprop_grads are not called here; they stay bound in this
# module because the benchmark tracer (bench/spans.py) wraps them by name
from .simulate import (  # noqa: F401
    ACTIVATIONS, Autoencoder, TrainingConfig, _draw_noise, backprop_grads, descend)
from .spectrum import Dataset, Spectrum

LAMBDA_FLOOR_FACTOR = 1e-8  # modes below this fraction of the top eigenvalue are absent


@dataclass(frozen=True)
class ModeEstimate:
    """Estimated per-mode identity-mapping ratios at one epoch.

    ratios[j] is the reconstructed fraction of eigen-direction j; entries for
    modes below the eigenvalue floor are NaN and flagged False in retained.
    """

    epoch: float
    ratios: np.ndarray
    retained: np.ndarray

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=np.float64)
        retained = np.asarray(self.retained, dtype=bool)
        if ratios.shape != retained.shape or ratios.ndim != 1:
            raise ValueError("ratios and retained must be 1-d arrays of equal length")
        if not np.isfinite(ratios[retained]).all():
            raise ValueError("retained ratios must be finite")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "retained", retained)


def reconstruct(model: Autoencoder, x):
    """Clean-input reconstruction W2 phi(W1 x), rows are samples."""
    phi, _ = ACTIVATIONS[model.activation]
    return phi(x @ model.w1.T) @ model.w2.T


def estimate_identity_map(dataset: Dataset, model: Autoencoder, spectrum: Spectrum,
                          epoch=0.0) -> ModeEstimate:
    """Project the clean-reconstruction cross-covariance onto the input eigenbasis.

    Computes sum_i x_i xhat_i^T with xhat the model's reconstruction of the
    clean input, rotates it into the eigenbasis and divides the diagonal by
    the eigenvalues. Estimation never consumes corrupted data.
    """
    x = dataset.samples
    if spectrum.d != dataset.d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match dataset dim {dataset.d}")
    xhat = reconstruct(model, x)
    sigma_hat = x.T @ xhat
    v = spectrum.eigenvectors
    diag = np.sum(v * (sigma_hat @ v), axis=0)
    lams = spectrum.eigenvalues
    floor = LAMBDA_FLOOR_FACTOR * (lams[0] if lams.size else 0.0)
    retained = lams > floor
    ratios = np.full(lams.shape, np.nan)
    ratios[retained] = diag[retained] / lams[retained]
    return ModeEstimate(epoch=float(epoch), ratios=ratios, retained=retained)


def train_nonlinear(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig,
                    activation: str):
    """Full-batch backprop with fresh per-epoch corruption; returns ModeEstimate series.

    Corruption is always sampled, whatever config.loss_mode says. Estimates
    are recorded at epoch 0, every record_every epochs, and at the final
    epoch; the run is deterministic per seed. epochs=0 is allowed and returns
    the initial-model estimate only.
    """
    estimates = []

    def record(epoch, _loss, w1, w2):
        estimates.append(estimate_identity_map(
            dataset, Autoencoder(w1, w2, activation), spectrum, float(epoch)))

    descend(dataset, spectrum, config, record, activation=activation)
    return estimates
