"""Learning-dynamics toolkit for linear denoising and weight-decayed autoencoders.

Closed-form trajectory predictions, gradient-descent simulators, covariance
spectrum machinery, binary dataset ingestion, and a CSV-emitting experiment
CLI. See the README for the CSV schemas and the cache file format.
"""

from .analytic import (
    NoiseModel,
    ScalarMode,
    Trajectory,
    dae_fixed_point,
    dae_trajectory,
    epsilon_from_noise,
    equivalent_decay,
    optimal_rates,
    scalar_loss_and_grad,
    wdae_fixed_point,
    wdae_trajectory,
)
from .data import RawImageBatch, load_cifar10, load_idx, preprocess, synthetic_dataset
from .errors import (
    ConfigError,
    DegenerateTrajectoryError,
    DivergenceError,
    NotSymmetricError,
    ParseError,
    UnsupportedModeError,
)
from .nonlinear import ModeEstimate, estimate_identity_map, train_nonlinear
from .simulate import (
    Autoencoder,
    TrainingConfig,
    backprop_grads,
    init_orthogonal,
    init_small_random,
    marginalized_loss_and_grads,
    run_linear_ae,
    run_scalar_gd,
    sampled_loss,
)
from .spectrum import Dataset, Spectrum, covariance, eigendecompose, projected_diagonal, rotate_weights

__version__ = "0.1.0"

__all__ = [
    "Autoencoder",
    "ConfigError",
    "Dataset",
    "DegenerateTrajectoryError",
    "DivergenceError",
    "ModeEstimate",
    "NoiseModel",
    "NotSymmetricError",
    "ParseError",
    "RawImageBatch",
    "ScalarMode",
    "Spectrum",
    "Trajectory",
    "TrainingConfig",
    "UnsupportedModeError",
    "backprop_grads",
    "covariance",
    "dae_fixed_point",
    "dae_trajectory",
    "eigendecompose",
    "epsilon_from_noise",
    "equivalent_decay",
    "estimate_identity_map",
    "init_orthogonal",
    "init_small_random",
    "load_cifar10",
    "load_idx",
    "marginalized_loss_and_grads",
    "optimal_rates",
    "preprocess",
    "projected_diagonal",
    "rotate_weights",
    "run_linear_ae",
    "run_scalar_gd",
    "sampled_loss",
    "scalar_loss_and_grad",
    "synthetic_dataset",
    "train_nonlinear",
    "wdae_fixed_point",
    "wdae_trajectory",
]
