"""Nonlinear autoencoder training and the eigenmode-mapping estimator."""

import numpy as np
import pytest

from oracles import central_difference_grad, cross_covariance_mode_ratios

from daedyn.analytic import NoiseModel
from daedyn.data import synthetic_dataset
from daedyn.nonlinear import ModeEstimate, estimate_identity_map, reconstruct, train_nonlinear
from daedyn.simulate import (
    ACTIVATIONS,
    Autoencoder,
    TrainingConfig,
    backprop_grads,
    descend,
    init_small_random,
    run_linear_ae,
)
from daedyn.spectrum import Dataset, covariance, eigendecompose, random_orthogonal


@pytest.fixture(scope="module")
def toy_dataset():
    ds = synthetic_dataset([2.0, 1.0, 0.5, 0.25, 0.1], 300, seed=14)
    return ds, eigendecompose(covariance(ds))


def test_estimator_on_exact_identity(toy_dataset):
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.eye(5), w2=np.eye(5), activation="identity")
    est = estimate_identity_map(ds, model, spec)
    assert est.retained.all()
    assert np.max(np.abs(est.ratios - 1.0)) <= 1e-10


def test_estimator_on_zero_model(toy_dataset):
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.zeros((3, 5)), w2=np.zeros((5, 3)), activation="relu")
    est = estimate_identity_map(ds, model, spec)
    assert np.max(np.abs(est.ratios[est.retained])) == 0.0


def test_estimator_reads_off_planted_diagonal(toy_dataset):
    # linear model W2 W1 = V diag(c) V^T must estimate exactly c
    ds, spec = toy_dataset
    c = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    v = spec.eigenvectors
    half = v @ np.diag(np.sqrt(c))
    model = Autoencoder(w1=half.T, w2=half, activation="identity")
    est = estimate_identity_map(ds, model, spec)
    assert np.max(np.abs(est.ratios - c)) <= 1e-10


def test_estimator_matches_projected_diagonal_for_linear_models(toy_dataset):
    from daedyn.spectrum import projected_diagonal

    ds, spec = toy_dataset
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((3, 5)) * 0.3
    w2 = rng.standard_normal((5, 3)) * 0.3
    est = estimate_identity_map(ds, Autoencoder(w1=w1, w2=w2, activation="identity"), spec)
    diag, _ = projected_diagonal(w1, w2, spec)
    assert np.max(np.abs(est.ratios - diag)) <= 1e-10


def _oracle_ratios(ds, spec, w1, w2, activation):
    phi, _ = ACTIVATIONS[activation]
    return cross_covariance_mode_ratios(ds.samples, w1, w2, phi, spec.eigenvectors,
                                        spec.eigenvalues)


def _assert_matches_oracle(ratios, want):
    # the same retained modes, and equal ratios to within 1e-10 of the largest one
    assert np.array_equal(np.isnan(ratios), np.isnan(want))
    kept = ~np.isnan(want)
    assert np.max(np.abs(ratios[kept] - want[kept])) <= 1e-10 * np.max(np.abs(want[kept]))


@pytest.fixture(scope="module")
def rank_deficient_dataset():
    # D=12 data spanning 9 directions, so three modes sit below the eigenvalue floor
    rng = np.random.default_rng(8)
    v = random_orthogonal(12, rng)
    x = rng.standard_normal((250, 9)) @ (v[:, :9] * np.sqrt(np.geomspace(3.0, 0.05, 9))).T
    ds = Dataset(x)
    return ds, eigendecompose(covariance(ds))


@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_estimator_matches_cross_covariance_oracle(activation, rank_deficient_dataset):
    ds, spec = rank_deficient_dataset
    rng = np.random.default_rng(9)
    w1 = rng.standard_normal((5, 12)) * 0.8
    w2 = rng.standard_normal((12, 5)) * 0.8
    est = estimate_identity_map(ds, Autoencoder(w1=w1, w2=w2, activation=activation), spec)
    assert est.retained.sum() == 9
    _assert_matches_oracle(est.ratios, _oracle_ratios(ds, spec, w1, w2, activation))


@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_train_estimates_match_cross_covariance_oracle(activation, rank_deficient_dataset):
    # every recorded estimate equals the oracle on that epoch's pixel-space weights
    ds, spec = rank_deficient_dataset
    cfg = TrainingConfig(learning_rate=0.2, epochs=45, noise=NoiseModel.gaussian(0.05),
                         init="small_random", init_scale=0.3, seed=6, hidden_dim=5,
                         record_every=15)
    estimates = train_nonlinear(ds, spec, cfg, activation)
    v = spec.eigenvectors
    pairs = []
    descend(ds, spec, cfg, lambda epoch, loss, w1r, w2r: pairs.append(
        (epoch, w1r @ v.T, v @ w2r)), activation=activation)
    assert [e.epoch for e in estimates] == [p[0] for p in pairs] == [0, 15, 30, 45]
    for est, (_, w1, w2) in zip(estimates, pairs):
        _assert_matches_oracle(est.ratios, _oracle_ratios(ds, spec, w1, w2, activation))


def test_estimator_reports_tiny_eigenvalues_absent():
    rng = np.random.default_rng(3)
    v = random_orthogonal(4, rng)
    x = rng.standard_normal((200, 3)) @ (v[:, :3] * np.sqrt([2.0, 1.0, 0.5])).T
    ds = Dataset(x)
    spec = eigendecompose(covariance(ds))
    model = Autoencoder(w1=np.eye(4) * 0.1, w2=np.eye(4) * 0.1, activation="identity")
    est = estimate_identity_map(ds, model, spec)
    assert not est.retained[-1]
    assert np.isnan(est.ratios[-1])


def test_estimator_never_sees_corrupted_inputs(toy_dataset):
    # reconstruction is computed on clean inputs; corrupting a copy of the
    # dataset must not change what the estimator reports for a fixed model
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.eye(5) * 0.5, w2=np.eye(5) * 0.5, activation="identity")
    est = estimate_identity_map(ds, model, spec)
    assert np.allclose(est.ratios, 0.25, atol=1e-10)


def test_backprop_identity_matches_linear_formula(toy_dataset):
    ds, _ = toy_dataset
    rng = np.random.default_rng(2)
    lin = init_small_random(5, 3, 0.3, seed=2)
    x = ds.samples
    x_tilde = x + rng.normal(0.0, 0.1, size=x.shape)
    loss, g1, g2 = backprop_grads(Autoencoder(lin.w1, lin.w2, "identity"), x, x_tilde)
    n = x.shape[0]
    res = x_tilde @ lin.w1.T @ lin.w2.T - x
    assert loss == pytest.approx(0.5 / n * np.sum(res * res), rel=1e-12)
    assert np.allclose(g2, res.T @ (x_tilde @ lin.w1.T) / n, atol=1e-12)
    assert np.allclose(g1, (res @ lin.w2).T @ x_tilde / n, atol=1e-12)


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_backprop_matches_finite_differences(activation, toy_dataset):
    ds, _ = toy_dataset
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((3, 5)) * 0.5
    w2 = rng.standard_normal((5, 3)) * 0.5
    x = ds.samples[:40]
    x_tilde = x + rng.normal(0.0, 0.2, size=x.shape)

    def loss_of(w1v, w2v):
        model = Autoencoder(w1=w1v, w2=w2v, activation=activation)
        r = reconstruct(model, x_tilde) - x
        return 0.5 / x.shape[0] * float(np.sum(r * r))

    _, g1, g2 = backprop_grads(Autoencoder(w1, w2, activation), x, x_tilde)
    n1 = central_difference_grad(lambda v: loss_of(v, w2), w1.copy())
    n2 = central_difference_grad(lambda v: loss_of(w1, v), w2.copy())
    scale = max(np.max(np.abs(n1)), np.max(np.abs(n2)))
    assert np.max(np.abs(g1 - n1)) <= 1e-5 * scale
    assert np.max(np.abs(g2 - n2)) <= 1e-5 * scale


def test_backprop_relu_matches_finite_differences_away_from_kink():
    rng = np.random.default_rng(7)
    w1 = rng.uniform(0.5, 1.0, size=(2, 3))
    w2 = rng.uniform(0.5, 1.0, size=(3, 2))
    x = rng.uniform(0.5, 1.0, size=(20, 3))  # all pre-activations well above 0
    assert np.min(np.abs(x @ w1.T)) > 1e-3

    def loss_of(w1v, w2v):
        model = Autoencoder(w1=w1v, w2=w2v, activation="relu")
        r = reconstruct(model, x) - x
        return 0.5 / x.shape[0] * float(np.sum(r * r))

    _, g1, g2 = backprop_grads(Autoencoder(w1, w2, "relu"), x, x)
    n1 = central_difference_grad(lambda v: loss_of(v, w2), w1.copy())
    n2 = central_difference_grad(lambda v: loss_of(w1, v), w2.copy())
    scale = max(np.max(np.abs(n1)), np.max(np.abs(n2)))
    assert np.max(np.abs(g1 - n1)) <= 1e-5 * scale
    assert np.max(np.abs(g2 - n2)) <= 1e-5 * scale


def test_relu_derivative_at_zero_is_zero():
    from daedyn.simulate import ACTIVATIONS

    _, dphi = ACTIVATIONS["relu"]
    assert dphi(np.array([0.0]))[0] == 0.0


def test_train_identity_no_noise_equals_linear_run(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=400, noise=NoiseModel.none(),
                         init="small_random", init_scale=1e-2, seed=3, hidden_dim=3,
                         record_every=20)
    estimates = train_nonlinear(ds, spec, cfg, "identity")
    run = run_linear_ae(ds, spec, cfg)
    est_times = np.array([e.epoch for e in estimates])
    assert np.array_equal(est_times, run.norms.times)
    for j in range(5):
        series = np.array([e.ratios[j] for e in estimates])
        assert np.max(np.abs(series - run.trajectories[j].values)) <= 1e-6


def test_train_zero_epochs_returns_initial_estimate_only(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=0, noise=NoiseModel.none(),
                         init="small_random", init_scale=1e-2, seed=3, hidden_dim=3,
                         record_every=20)
    estimates = train_nonlinear(ds, spec, cfg, "relu")
    assert len(estimates) == 1
    assert estimates[0].epoch == 0.0


def test_train_is_deterministic_per_seed(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=60, noise=NoiseModel.gaussian(0.1),
                         init="small_random", init_scale=1e-2, seed=5, hidden_dim=3,
                         record_every=30)
    a = train_nonlinear(ds, spec, cfg, "tanh")
    b = train_nonlinear(ds, spec, cfg, "tanh")
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.ratios[ea.retained], eb.ratios[eb.retained])


def test_train_relu_always_samples_corruption(toy_dataset):
    # nonlinear corruption has no marginalised form, so loss_mode must not matter
    ds, spec = toy_dataset
    base = dict(learning_rate=0.3, epochs=80, noise=NoiseModel.gaussian(0.1),
                init="small_random", init_scale=1e-2, seed=5, hidden_dim=3, record_every=20)
    marg = train_nonlinear(ds, spec, TrainingConfig(loss_mode="marginalized", **base), "relu")
    samp = train_nonlinear(ds, spec, TrainingConfig(loss_mode="sampled", **base), "relu")
    clean = train_nonlinear(ds, spec, TrainingConfig(**{**base, "noise": NoiseModel.none()}),
                            "relu")
    assert len(marg) == len(samp) == 5
    for a, b in zip(marg, samp):
        assert a.epoch == b.epoch
        assert np.array_equal(a.ratios, b.ratios, equal_nan=True)
    # and the corruption was really drawn: the noise-free run ends elsewhere
    assert not np.array_equal(marg[-1].ratios, clean[-1].ratios, equal_nan=True)


def test_train_estimates_monotone_up_to_tolerance(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=1500, noise=NoiseModel.gaussian(0.2 / ds.n),
                         init="small_random", init_scale=1e-3, seed=4, hidden_dim=5,
                         record_every=25)
    estimates = train_nonlinear(ds, spec, cfg, "identity")
    for j in range(5):
        series = np.array([e.ratios[j] for e in estimates[1:]])
        assert np.all(np.diff(series) >= -1e-3)


def test_mode_estimate_validation():
    with pytest.raises(ValueError, match="finite"):
        ModeEstimate(epoch=0.0, ratios=np.array([np.nan]), retained=np.array([True]))
    ModeEstimate(epoch=0.0, ratios=np.array([np.nan]), retained=np.array([False]))
