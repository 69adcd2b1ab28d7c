"""Nonlinear autoencoder training and the eigenmode-mapping estimator.

Nonlinear training has no closed-form noise marginalisation, so corruption is
sampled fresh every epoch. The estimator projects the clean-input
reconstruction cross-covariance onto the input eigenbasis to read off how
much of each eigen-direction the network currently reconstructs; it works
in that basis, where the weights (W1 V, V^T W2) map XV to X_hat V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _draw_noise and backprop_grads are not called here; they stay bound in this
# module because the benchmark tracer (bench/spans.py) wraps them by name
from .simulate import (  # noqa: F401
    ACTIVATIONS, Autoencoder, TrainingConfig, _draw_noise, backprop_grads, descend)
from .spectrum import Dataset, Spectrum, rotate_weights

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


def _estimate(xv, rotated: Autoencoder, lams, epoch) -> ModeEstimate:
    # diag(V^T X^T X_hat V) / lam as colsum(XV * X_hat V) / lam, O(N H D): a hidden
    # nonlinearity commutes with the rotation, so X_hat V = reconstruct(rotated, XV)
    diag = np.sum(xv * reconstruct(rotated, xv), axis=0)
    floor = LAMBDA_FLOOR_FACTOR * (lams[0] if lams.size else 0.0)
    retained = lams > floor
    ratios = np.full(lams.shape, np.nan)
    ratios[retained] = diag[retained] / lams[retained]
    return ModeEstimate(epoch=float(epoch), ratios=ratios, retained=retained)


def estimate_identity_map(dataset: Dataset, model: Autoencoder, spectrum: Spectrum,
                          epoch=0.0) -> ModeEstimate:
    """Project the clean-reconstruction cross-covariance onto the input eigenbasis.

    Returns diag(V^T X^T X_hat V) / lam, with X_hat the model's reconstruction
    of the clean input, computed in the eigenbasis from XV and the rotated
    weights. Estimation never consumes corrupted data.
    """
    if spectrum.d != dataset.d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match dataset dim {dataset.d}")
    rotated = Autoencoder(*rotate_weights(model.w1, model.w2, spectrum), model.activation)
    return _estimate(dataset.samples @ spectrum.eigenvectors, rotated, spectrum.eigenvalues, epoch)


def train_nonlinear(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig,
                    activation: str):
    """Full-batch backprop with fresh per-epoch corruption; returns ModeEstimate series.

    Corruption is always sampled, whatever config.loss_mode says. Estimates
    are recorded at epoch 0, every record_every epochs, and at the final
    epoch, from XV and the eigenbasis weights; the run is deterministic per
    seed. epochs=0 is allowed and returns the initial-model estimate only.
    """
    xv = dataset.samples @ spectrum.eigenvectors
    estimates = []

    def record(epoch, _loss, w1r, w2r):
        estimates.append(_estimate(xv, Autoencoder(w1r, w2r, activation),
                                   spectrum.eigenvalues, epoch))

    descend(dataset, spectrum, config, record, activation=activation)
    return estimates
