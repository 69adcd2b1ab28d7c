"""Nonlinear autoencoder training and the eigenmode-mapping estimator."""

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from oracles import (
    backprop_residual,
    central_difference_grad,
    cross_covariance_mode_ratios,
    lowrank_corrupted_batch,
    marginalized_pixel_space,
    projected_diagonal,
)

from daedyn import simulate
from daedyn.analytic import NoiseModel
from daedyn.data import synthetic_dataset
from daedyn.nonlinear import estimate_identity_map, train_nonlinear
from daedyn.simulate import (
    ACTIVATIONS,
    Autoencoder,
    TrainingConfig,
    init_small_random,
    run_linear_ae,
)
from daedyn.spectrum import Dataset, covariance, eigendecompose, random_orthogonal, rotate_weights


@pytest.fixture(scope="module")
def toy_dataset():
    ds = synthetic_dataset([2.0, 1.0, 0.5, 0.25, 0.1], 300, seed=14)
    return ds, eigendecompose(covariance(ds))


def test_estimator_on_exact_identity(toy_dataset):
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.eye(5), w2=np.eye(5), activation="identity")
    ratios = estimate_identity_map(ds, model, spec)
    assert not np.isnan(ratios).any()
    assert np.max(np.abs(ratios - 1.0)) <= 1e-10


def test_estimator_on_zero_model(toy_dataset):
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.zeros((3, 5)), w2=np.zeros((5, 3)), activation="relu")
    ratios = estimate_identity_map(ds, model, spec)
    assert np.max(np.abs(ratios[~np.isnan(ratios)])) == 0.0


def test_estimator_reads_off_planted_diagonal(toy_dataset):
    # linear model W2 W1 = V diag(c) V^T must estimate exactly c
    ds, spec = toy_dataset
    c = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    v = spec.eigenvectors
    half = v @ np.diag(np.sqrt(c))
    model = Autoencoder(w1=half.T, w2=half, activation="identity")
    ratios = estimate_identity_map(ds, model, spec)
    assert np.max(np.abs(ratios - c)) <= 1e-10


def test_estimator_matches_projected_diagonal_for_linear_models(toy_dataset):
    ds, spec = toy_dataset
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((3, 5)) * 0.3
    w2 = rng.standard_normal((5, 3)) * 0.3
    ratios = estimate_identity_map(ds, Autoencoder(w1=w1, w2=w2, activation="identity"), spec)
    diag, _ = projected_diagonal(w1, w2, spec)
    assert np.max(np.abs(ratios - diag)) <= 1e-10


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
    ratios = estimate_identity_map(ds, Autoencoder(w1=w1, w2=w2, activation=activation), spec)
    assert np.sum(~np.isnan(ratios)) == 9
    _assert_matches_oracle(ratios, _oracle_ratios(ds, spec, w1, w2, activation))


@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_train_estimates_match_cross_covariance_oracle(activation, rank_deficient_dataset):
    # every recorded estimate equals the oracle on that epoch's pixel-space weights, on a
    # Gaussian leg (eigenbasis, on the data's range) and a Laplace one (pixel space)
    ds, spec = rank_deficient_dataset
    for noise in (NoiseModel.gaussian(0.05), NoiseModel.laplace(0.15)):
        cfg = TrainingConfig(learning_rate=0.2, epochs=45, noise=noise, init="small_random",
                             init_scale=0.3, seed=6, hidden_dim=5, record_every=15)
        run = train_nonlinear(ds, spec, cfg, activation)
        assert run.times.tolist() == [0, 15, 30, 45]
        # a run is deterministic per seed, so one cut short at a recorded epoch ends on that
        # epoch's weights, rotated back to pixel space
        models = [run.init_model] + [train_nonlinear(ds, spec, replace(cfg, epochs=t),
                                                     activation).model for t in (15, 30, 45)]
        for ratios, model in zip(run.modes, models):
            _assert_matches_oracle(ratios, _oracle_ratios(ds, spec, model.w1, model.w2,
                                                          activation))


def test_estimator_reports_tiny_eigenvalues_absent():
    rng = np.random.default_rng(3)
    v = random_orthogonal(4, rng)
    x = rng.standard_normal((200, 3)) @ (v[:, :3] * np.sqrt([2.0, 1.0, 0.5])).T
    ds = Dataset(x)
    spec = eigendecompose(covariance(ds))
    model = Autoencoder(w1=np.eye(4) * 0.1, w2=np.eye(4) * 0.1, activation="identity")
    ratios = estimate_identity_map(ds, model, spec)
    assert np.isnan(ratios[-1])
    assert not np.isnan(ratios[:-1]).any()


def test_estimator_never_sees_corrupted_inputs(toy_dataset):
    # reconstruction is computed on clean inputs; corrupting a copy of the
    # dataset must not change what the estimator reports for a fixed model
    ds, spec = toy_dataset
    model = Autoencoder(w1=np.eye(5) * 0.5, w2=np.eye(5) * 0.5, activation="identity")
    ratios = estimate_identity_map(ds, model, spec)
    assert np.allclose(ratios, 0.25, atol=1e-10)


def _clean_step(model, x):
    # the backprop step on the clean batch: a noise-free step draws nothing
    return simulate._sampled_grads(model, x, NoiseModel.none(), np.random.default_rng(0))


def _step_on(model, x, e, monkeypatch, with_loss=True):
    # the backprop step on the corrupted batch x + e: a Laplace step whose draw of each row
    # block returns a copy of the next rows of e, to which the step adds x in place
    rows = iter(e)
    monkeypatch.setattr(simulate, "_draw_noise",
                        lambda rng, noise, shape, *args: np.array(list(islice(rows, shape[0]))))
    got = simulate._sampled_grads(model, x, NoiseModel.laplace(1.0), np.random.default_rng(0),
                                  with_loss=with_loss)
    assert next(rows, None) is None         # the step took all of e
    return got


def test_backprop_identity_matches_linear_formula(toy_dataset, monkeypatch):
    ds, _ = toy_dataset
    rng = np.random.default_rng(2)
    lin = init_small_random(5, 3, 0.3, seed=2)
    x = ds.samples
    e = rng.normal(0.0, 0.1, size=x.shape)
    x_tilde = x + e
    loss, g1, g2 = _step_on(Autoencoder(lin.w1, lin.w2, "identity"), x, e, monkeypatch)
    n = x.shape[0]
    res = x_tilde @ lin.w1.T @ lin.w2.T - x
    assert loss == pytest.approx(0.5 / n * np.sum(res * res), rel=1e-12)
    assert np.allclose(g2, res.T @ (x_tilde @ lin.w1.T) / n, atol=1e-12)
    assert np.allclose(g1, (res @ lin.w2).T @ x_tilde / n, atol=1e-12)


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_backprop_matches_finite_differences(activation, toy_dataset, monkeypatch):
    ds, _ = toy_dataset
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((3, 5)) * 0.5
    w2 = rng.standard_normal((5, 3)) * 0.5
    x = ds.samples[:40]
    e = rng.normal(0.0, 0.2, size=x.shape)
    x_tilde = x + e

    def loss_of(w1v, w2v):
        return backprop_residual(Autoencoder(w1v, w2v, activation), x, x_tilde)[0]

    _, g1, g2 = _step_on(Autoencoder(w1, w2, activation), x, e, monkeypatch)
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
        return backprop_residual(Autoencoder(w1v, w2v, "relu"), x, x)[0]

    _, g1, g2 = _clean_step(Autoencoder(w1, w2, "relu"), x)
    n1 = central_difference_grad(lambda v: loss_of(v, w2), w1.copy())
    n2 = central_difference_grad(lambda v: loss_of(w1, v), w2.copy())
    scale = max(np.max(np.abs(n1)), np.max(np.abs(n2)))
    assert np.max(np.abs(g1 - n1)) <= 1e-5 * scale
    assert np.max(np.abs(g2 - n2)) <= 1e-5 * scale


def _agree(got, want, rel=1e-12):
    loss, g1, g2 = got
    want_loss, want1, want2 = want
    assert loss == pytest.approx(want_loss, rel=rel)
    assert np.max(np.abs(g1 - want1)) <= rel * np.max(np.abs(want1))
    assert np.max(np.abs(g2 - want2)) <= rel * np.max(np.abs(want2))


@pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_gram_form_backprop_matches_the_residual_oracle(activation, corrupted, toy_dataset,
                                                       monkeypatch):
    ds, _ = toy_dataset
    rng = np.random.default_rng(21)
    model = Autoencoder(rng.standard_normal((3, 5)) * 0.5, rng.standard_normal((5, 3)) * 0.5,
                        activation)
    x = ds.samples
    if corrupted:
        e = rng.normal(0.0, 0.3, size=x.shape)
        _agree(_step_on(model, x, e, monkeypatch), backprop_residual(model, x, x + e))
    else:
        _agree(_clean_step(model, x), backprop_residual(model, x, x))


@pytest.mark.parametrize("n, r", [(512, 7), (600, 7), (100, 7), (600, 4)], ids=[
    "block-multiple", "ragged-last-block", "below-one-block", "r-below-d"])
@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_blocked_laplace_step_matches_the_residual_oracle(activation, n, r, monkeypatch):
    # A Laplace step walks the batch in STEP_BLOCK_ROWS-row blocks and sums A^T A, X^T A and
    # delta^T X_tilde over them; on the same corruption it is backprop through the N x D
    # residual, with and without its loss. Its r <= D leading columns hold the data; the
    # oracle sees the other columns as zeros, in the data and in the corruption.
    rng = np.random.default_rng(23)
    x = np.zeros((n, 7))
    x[:, :r] = rng.uniform(0.0, 1.0, size=(n, r))
    e = np.zeros((n, 7))
    e[:, :r] = rng.laplace(0.0, 0.3, size=(n, r))
    model = Autoencoder(rng.standard_normal((3, 7)) * 0.5, rng.standard_normal((7, 3)) * 0.5,
                        activation)
    want = backprop_residual(model, x, x + e)
    got = _step_on(model, np.ascontiguousarray(x[:, :r]), e[:, :r], monkeypatch)
    _agree(got, want)
    assert not got[1][:, r:].any()
    loss, g1, g2 = _step_on(model, np.ascontiguousarray(x[:, :r]), e[:, :r], monkeypatch,
                            with_loss=False)
    assert loss is None
    assert np.array_equal(g1.view(np.int64), got[1].view(np.int64))
    assert np.array_equal(g2.view(np.int64), got[2].view(np.int64))


def _spy_draws(monkeypatch):
    # a copy of every value the sampled step draws, one array per _draw_noise call
    draws, draw = [], simulate._draw_noise

    def spy(*args):
        values = draw(*args)
        draws.append(values.copy())
        return values

    monkeypatch.setattr(simulate, "_draw_noise", spy)
    return draws


@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
def test_sampled_step_over_three_draws_matches_the_residual_oracle(activation, toy_dataset,
                                                                   monkeypatch):
    ds, _ = toy_dataset
    rng = np.random.default_rng(22)
    model = Autoencoder(rng.standard_normal((3, 5)) * 0.5, rng.standard_normal((5, 3)) * 0.5,
                        activation)
    x, noise = ds.samples, NoiseModel.gaussian(0.09)
    # three steps on one generator, each one low-rank draw against one residual
    # backprop on the full corruption rebuilt from that draw
    draws = _spy_draws(monkeypatch)
    rng = np.random.default_rng(5)
    ws = simulate.Workspace()
    for step in range(3):
        got = simulate._sampled_grads(model, x, noise, rng, ws)
        assert len(draws) == step + 1
        want = backprop_residual(model, x, x + lowrank_corrupted_batch(model, x, draws[-1]))
        # every step in the same workspace overwrites the buffers, not adds to them
        _agree(got, want)


@pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
@pytest.mark.parametrize("n, d, h, unit", [
    (40, 12, 4, None), (40, 6, 8, None), (40, 6, 6, None), (3, 12, 5, None),
    (40, 12, 4, "dead"), (40, 12, 4, "twin")],
    ids=["h-below-d", "h-above-d", "h-equals-d", "n-below-h", "dead-unit", "twin-rows"])
def test_lowrank_step_is_backprop_on_its_rebuilt_corruption(activation, n, d, h, unit,
                                                            monkeypatch):
    # N < H gives R_d N rows; a hidden unit that never fires (relu) puts a zero column in
    # delta. Where W1 has no R^-1, at H >= D or with two equal rows of W1 (H < D), Q = I:
    # the step draws the whole N x D corruption, which is E itself; elsewhere it applies Q
    # as W1^T R^-1
    rng = np.random.default_rng(31)
    x = rng.uniform(0.1, 1.0, size=(n, d))
    w1 = rng.standard_normal((h, d)) * 0.5
    if unit == "dead":
        w1[1] = -5.0
    if unit == "twin":
        w1[2] = w1[0]
    rq, rinv = simulate._w1_qr(w1)
    whole = h >= d or unit == "twin"
    assert (rinv is None) == whole
    if whole:
        assert np.array_equal(rq, w1.T)
    model = Autoencoder(w1, rng.standard_normal((d, h)) * 0.5, activation)
    draws = _spy_draws(monkeypatch)
    got = simulate._sampled_grads(model, x, NoiseModel.gaussian(0.09), np.random.default_rng(3))
    assert len(draws) == 1
    if whole:
        assert draws[0].shape == (n * d,)
        e = draws[0].reshape(n, d)
    else:
        assert draws[0].shape == (n * h + min(n, h) * d,)
        e = lowrank_corrupted_batch(model, x, draws[0])
    if unit == "dead" and activation == "relu":
        assert not np.any(x @ w1[1] + (e @ w1[1]) > 0.0)
    _agree(got, backprop_residual(model, x, x + e))


def test_lowrank_step_has_the_full_draws_mean_and_variance(toy_dataset):
    # identity activation: the sampled gradient's expectation is the gradient of the
    # noise-marginalised objective (eps_eff = N sigma^2). Over S seeds each entry's mean
    # is within 5 standard errors of it, and each entry's variance is within 5 standard
    # errors of the full N x D draw's, the error of a variance estimate being
    # sqrt((m4 - s^4) / S) from the sample fourth central moment m4.
    ds, _ = toy_dataset
    x = ds.samples[:60]
    n = x.shape[0]
    rng = np.random.default_rng(12)
    model = Autoencoder(rng.standard_normal((3, 5)) * 0.5, rng.standard_normal((5, 3)) * 0.5)
    noise, seeds = NoiseModel.gaussian(0.25), 4000
    sigma = np.sqrt(noise.variance)

    def flat(grads):
        return np.concatenate([grads[1].ravel(), grads[2].ravel()])

    lowrank = np.array([flat(simulate._sampled_grads(model, x, noise, np.random.default_rng(s)))
                        for s in range(seeds)])
    full = np.array([flat(backprop_residual(model, x, x + np.random.default_rng(s).normal(
        0.0, sigma, size=x.shape))) for s in range(seeds, 2 * seeds)])
    _, g1, g2 = marginalized_pixel_space(x, model.w1, model.w2, n * noise.variance)
    exact = np.concatenate([g1.ravel(), g2.ravel()])
    mean_se = lowrank.std(axis=0, ddof=1) / np.sqrt(seeds)
    assert np.all(np.abs(lowrank.mean(axis=0) - exact) <= 5.0 * mean_se)

    def var_and_se(sample):
        dev = sample - sample.mean(axis=0)
        var = np.mean(dev ** 2, axis=0)
        return var, np.sqrt((np.mean(dev ** 4, axis=0) - var ** 2) / seeds)

    (var_low, se_low), (var_full, se_full) = var_and_se(lowrank), var_and_se(full)
    assert np.all(np.abs(var_low - var_full) <= 5.0 * np.hypot(se_low, se_full))
    # the noise reaches every entry: no variance is round-off
    assert np.min(var_low) > 1e-6 * np.max(var_low)


@pytest.mark.parametrize("activation, n, d, rank, h, dead", [
    ("identity", 40, 8, 5, 3, False), ("relu", 40, 6, 4, 8, False), ("relu", 40, 8, 5, 4, True)],
    ids=["rank-deficient", "h-above-d", "dead-unit"])
def test_eigenbasis_step_has_the_pixel_space_full_draws_mean_and_variance(activation, n, d, rank,
                                                                          h, dead):
    # A Gaussian leg steps on (W1 V, V^T W2) against the r = rank columns of XV that hold
    # data. E V is again i.i.d., so its gradients rotated back to pixel space, (g1 V^T,
    # V g2), are distributed as backprop on X + E with a full N x D draw E. Over S seeds
    # each entry's mean and variance agree within 5 standard errors of their difference.
    # H > D makes Q square; a unit that never fires puts a zero column in delta.
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 1.0, size=(n, rank)) @ rng.uniform(0.0, 1.0, size=(rank, d))
    spec = eigendecompose(covariance(x))
    v = spec.eigenvectors
    x_range = simulate._data_range(x @ v)
    assert x_range.shape == (n, rank)
    w1 = rng.standard_normal((h, d)) * 0.5
    if dead:
        w1[1] = -5.0
    model = Autoencoder(w1, rng.standard_normal((d, h)) * 0.5, activation)
    rotated = Autoencoder(*rotate_weights(model.w1, model.w2, spec), activation)
    noise, seeds = NoiseModel.gaussian(0.04), 4000
    sigma = np.sqrt(noise.variance)

    def eigenbasis_step(seed):
        _, g1, g2 = simulate._sampled_grads(rotated, x_range, noise, np.random.default_rng(seed))
        return np.concatenate([(g1 @ v.T).ravel(), (v @ g2).ravel()])

    def full_step(seed):
        e = np.random.default_rng(seed).normal(0.0, sigma, size=x.shape)
        if dead:
            assert not np.any((x + e) @ w1[1] > 0.0)
        _, g1, g2 = backprop_residual(model, x, x + e)
        return np.concatenate([g1.ravel(), g2.ravel()])

    eigen = np.array([eigenbasis_step(s) for s in range(seeds)])
    full = np.array([full_step(s) for s in range(seeds, 2 * seeds)])

    def moments(sample):
        # mean, variance and the standard error of each, the variance's from the
        # sample fourth central moment m4 as sqrt((m4 - s^4) / S)
        mean = sample.mean(axis=0)
        dev = sample - mean
        var = np.mean(dev ** 2, axis=0)
        return (mean, np.sqrt(var / seeds)), (var, np.sqrt((np.mean(dev ** 4, axis=0)
                                                            - var ** 2) / seeds))

    for (got, se_got), (want, se_want) in zip(moments(eigen), moments(full)):
        assert np.all(np.abs(got - want) <= 5.0 * np.hypot(se_got, se_want))
    if activation == "identity":    # the noise reaches every entry, past r too
        assert np.min(eigen.var(axis=0)) > 1e-6 * np.max(eigen.var(axis=0))


def test_relu_derivative_at_zero_is_zero():
    from daedyn.simulate import ACTIVATIONS

    _, dphi = ACTIVATIONS["relu"]
    assert dphi(np.array([0.0]))[0] == 0.0


def test_train_identity_no_noise_equals_linear_run(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=400, noise=NoiseModel.none(),
                         init="small_random", init_scale=1e-2, seed=3, hidden_dim=3,
                         record_every=20)
    estimated = train_nonlinear(ds, spec, cfg, "identity")
    run = run_linear_ae(ds, spec, cfg)
    assert np.array_equal(estimated.times, run.times)
    assert np.max(np.abs(estimated.modes - run.modes)) <= 1e-6


def test_train_zero_epochs_returns_initial_estimate_only(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=0, noise=NoiseModel.none(),
                         init="small_random", init_scale=1e-2, seed=3, hidden_dim=3,
                         record_every=20)
    run = train_nonlinear(ds, spec, cfg, "relu")
    assert run.times.tolist() == [0.0]
    assert run.modes.shape == (1, ds.d)


def test_train_is_deterministic_per_seed(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=60, noise=NoiseModel.gaussian(0.1),
                         init="small_random", init_scale=1e-2, seed=5, hidden_dim=3,
                         record_every=30)
    a = train_nonlinear(ds, spec, cfg, "tanh")
    b = train_nonlinear(ds, spec, cfg, "tanh")
    assert np.array_equal(a.modes, b.modes, equal_nan=True)


@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian(0.1),
                                   NoiseModel.laplace(0.2)], ids=lambda noise: noise.kind)
def test_train_with_a_handed_over_xv_changes_no_bit(noise, toy_dataset):
    # `nonlinear` forms XV once for its three legs; a leg handed it must train as one that
    # forms its own, and an XV of other data, or of the wrong shape, is refused
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=40, noise=noise, init_scale=1e-2, seed=5,
                         hidden_dim=3, record_every=10, weight_decay=1e-3)
    xv = ds.samples @ spec.eigenvectors
    own = train_nonlinear(ds, spec, cfg, "relu")
    handed = train_nonlinear(ds, spec, cfg, "relu", xv)
    assert np.array_equal(own.modes, handed.modes, equal_nan=True)
    assert np.array_equal(own.losses, handed.losses)
    assert np.array_equal(own.model.w1, handed.model.w1)
    assert np.array_equal(own.model.w2, handed.model.w2)
    other = synthetic_dataset([2.0, 1.0, 0.5, 0.25, 0.1], 300, seed=15).samples
    for wrong in (other @ spec.eigenvectors, xv[:, :4], xv * (1.0 + 1e-6)):
        with pytest.raises(ValueError, match="not X V of the dataset"):
            train_nonlinear(ds, spec, cfg, "relu", wrong)


def test_train_relu_always_samples_corruption(toy_dataset):
    # nonlinear corruption has no marginalised form, so loss_mode must not matter
    ds, spec = toy_dataset
    base = dict(learning_rate=0.3, epochs=80, noise=NoiseModel.gaussian(0.1),
                init="small_random", init_scale=1e-2, seed=5, hidden_dim=3, record_every=20)
    marg = train_nonlinear(ds, spec, TrainingConfig(loss_mode="marginalized", **base), "relu")
    samp = train_nonlinear(ds, spec, TrainingConfig(loss_mode="sampled", **base), "relu")
    clean = train_nonlinear(ds, spec, TrainingConfig(**{**base, "noise": NoiseModel.none()}),
                            "relu")
    assert len(marg.times) == len(samp.times) == 5
    assert np.array_equal(marg.times, samp.times)
    assert np.array_equal(marg.modes, samp.modes, equal_nan=True)
    # and the corruption was really drawn: the noise-free run ends elsewhere
    assert not np.array_equal(marg.modes[-1], clean.modes[-1], equal_nan=True)


def test_train_estimates_monotone_up_to_tolerance(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=1500, noise=NoiseModel.gaussian(0.2 / ds.n),
                         init="small_random", init_scale=1e-3, seed=4, hidden_dim=5,
                         record_every=25)
    run = train_nonlinear(ds, spec, cfg, "identity")
    assert np.all(np.diff(run.modes[1:], axis=0) >= -1e-3)



def test_train_relu_norms_read_the_final_model(toy_dataset):
    ds, spec = toy_dataset
    cfg = TrainingConfig(learning_rate=0.3, epochs=50, noise=NoiseModel.gaussian(0.1),
                         init="small_random", init_scale=0.1, seed=5, hidden_dim=3,
                         record_every=20)
    run = train_nonlinear(ds, spec, cfg, "relu")
    assert run.norms.mode_index == -1
    assert run.norms.times.tolist() == [0.0, 20.0, 40.0, 50.0]
    w1, w2 = run.model.w1, run.model.w2
    assert run.norms.values[-1] == pytest.approx(np.sum(w1 * w1) + np.sum(w2 * w2), rel=1e-12)
    assert len(run.losses) == 4 and np.isfinite(run.losses).all()
