"""Scalar and full-matrix gradient descent against the analytic machinery."""

import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    backprop_descent_pixel_space,
    central_difference_grad,
    cross_covariance_mode_ratios,
    marginalized_descent_pixel_space,
    marginalized_pixel_space,
    projected_diagonal,
    sampled_loss,
)

from daedyn import analytic, simulate
from daedyn.analytic import NoiseModel, ScalarMode, dae_fixed_point, dae_trajectory
from daedyn.data import load_idx, preprocess, synthetic_dataset
from daedyn.errors import DivergenceError
from daedyn.nonlinear import train_nonlinear
from daedyn.simulate import (
    Autoencoder,
    TrainingConfig,
    init_orthogonal,
    init_small_random,
    marginalized_loss_and_grads,
    modes_from_linear_ae,
    run_linear_ae,
    descend,
    run_scalar_gd,
)
from daedyn.spectrum import Dataset, Spectrum, covariance, eigendecompose, rotate_weights

SPECTRUM_8 = [2.5, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01]


@pytest.fixture(scope="module")
def small_dataset():
    ds = synthetic_dataset(SPECTRUM_8, 400, seed=3)
    return ds, eigendecompose(covariance(ds))


# --- scalar runs -------------------------------------------------------------

def test_scalar_gd_stays_on_noise_free_fixed_point():
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=100.0, w1_0=1.0, w2_0=1.0)
    run = run_scalar_gd(mode, 1.0, 200, 10)
    assert np.array_equal(run.trajectory.values, np.ones(21))


def test_scalar_gd_converges_to_half_from_small_random_start():
    rng = np.random.default_rng(0)
    w1_0, w2_0 = rng.uniform(0.0, 0.1, size=2)
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=200.0, w1_0=w1_0, w2_0=w2_0)
    run = run_scalar_gd(mode, 0.5, 5000, 50)
    assert abs(run.trajectory.values[-1] - 0.5) <= 1e-3


def test_scalar_gd_tracks_analytic_curve_and_improves_with_smaller_steps():
    # halving alpha at fixed N doubles tau; the Euler error should shrink
    def max_gap(tau):
        mode = ScalarMode(lam=1.0, epsilon=0.3, tau=tau, w1_0=0.3, w2_0=0.5)
        steps = int(8 * tau)
        run = run_scalar_gd(mode, 100.0 / tau, steps, max(1, steps // 100))
        return np.max(np.abs(run.trajectory.values
                             - dae_trajectory(mode, run.trajectory.times)))

    gap_coarse = max_gap(100.0)
    gap_fine = max_gap(200.0)
    assert gap_coarse <= 1e-2
    assert gap_fine < gap_coarse


def test_scalar_gd_discrete_conservation_drift_halves_with_alpha():
    # w2^2 - w1^2 is conserved exactly by the flow; the discrete drift is O(alpha)
    def drift(tau):
        mode = ScalarMode(lam=1.0, epsilon=0.5, tau=tau, w1_0=0.2, w2_0=0.6)
        run = run_scalar_gd(mode, 100.0 / tau, int(6 * tau), int(tau) // 10)
        c = run.w2 ** 2 - run.w1 ** 2
        return np.max(np.abs(c - c[0]))

    d1 = drift(100.0)
    d2 = drift(200.0)
    assert d2 <= 0.5 * d1 * 1.05  # tiny slack for rounding


def test_scalar_gd_records_on_the_cadence_and_the_last_step():
    mode = ScalarMode(lam=1.0, epsilon=0.5, tau=50.0, w1_0=0.2, w2_0=0.3)
    run = run_scalar_gd(mode, 1.0, 25, 10)
    assert run.trajectory.times.tolist() == [0.0, 10.0, 20.0, 25.0]
    assert run.trajectory.values.tolist() == [w2 * w1 for w1, w2 in zip(run.w1.tolist(),
                                                                          run.w2.tolist())]
    assert run.trajectory.values[0] == 0.3 * 0.2
    assert run_scalar_gd(mode, 1.0, 0, 10).trajectory.times.tolist() == [0.0]
    assert run_scalar_gd(mode, 1.0, 30, 10).trajectory.times.tolist() == [0.0, 10.0, 20.0, 30.0]


def test_scalar_gd_divergence_reports_step_index():
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=1e-4, w1_0=1.0, w2_0=3.0)
    with pytest.raises(DivergenceError) as info:
        run_scalar_gd(mode, 1.0, 10_000, 100)
    assert info.value.step is not None


def test_scalar_gd_warns_above_optimal_rate(caplog):
    # the step 1/tau = 1/4 is above the optimum 1/(2 lam + 3 eps) = 1/5
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=4.0, w1_0=0.1, w2_0=0.2)
    with caplog.at_level(logging.WARNING):
        run_scalar_gd(mode, 5.0, 10, 1)
    assert any("optimal" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_scalar_gd_optimal_rate_warning_follows_the_step_not_alpha(alpha, caplog):
    # the step 1/tau = 1/10 is half the optimum whatever alpha the run quotes
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=10.0, w1_0=0.1, w2_0=0.2)
    with caplog.at_level(logging.WARNING):
        run_scalar_gd(mode, alpha, 10, 1)
    assert not any("optimal" in rec.message for rec in caplog.records)


def test_scalar_gd_weight_decay_settles_on_decayed_fixed_point():
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=200.0, w1_0=0.05, w2_0=0.04, gamma_eff=0.091)
    run = run_scalar_gd(mode, 0.5, 20_000, 200)
    assert abs(run.trajectory.values[-1] - 0.909) <= 1e-3


# --- initialisers -------------------------------------------------------------

def test_init_orthogonal_zero_scale_is_saddle(small_dataset):
    _, spec = small_dataset
    model = init_orthogonal(8, 4, spec, 0.0, seed=2)
    assert not model.w1.any() and not model.w2.any()


def test_init_orthogonal_diagonalizes_rotated_product(small_dataset):
    _, spec = small_dataset
    model = init_orthogonal(8, 4, spec, 0.1, seed=2)
    diag, off = projected_diagonal(model.w1, model.w2, spec)
    assert off <= 1e-12
    assert np.sum(np.abs(diag) > 1e-12) == 4
    assert np.allclose(diag[:4], 0.01, atol=1e-12)


def test_init_orthogonal_rejects_overcomplete(small_dataset):
    _, spec = small_dataset
    with pytest.raises(ValueError, match="undercomplete"):
        init_orthogonal(8, 9, spec, 0.1, seed=0)


def test_init_small_random_deterministic_and_bounded():
    a = init_small_random(20, 10, 1e-3, seed=5)
    b = init_small_random(20, 10, 1e-3, seed=5)
    c = init_small_random(20, 10, 1e-3, seed=6)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert np.max(np.abs(a.w1)) <= 1e-3 and np.max(np.abs(a.w2)) <= 1e-3
    assert np.max(np.abs(a.w1 - c.w1)) > 0.0


def test_init_small_random_requires_positive_scale():
    with pytest.raises(ValueError):
        init_small_random(4, 2, 0.0, seed=0)


# --- losses -------------------------------------------------------------------

def marginalized_at_pixel_weights(model, x, spec, eps_eff):
    """The eigenbasis objective at the rotated weights of a pixel-space model.

    Returns the loss and the gradients rotated back to pixel space,
    (g1 V^T, V g2).
    """
    v = spec.eigenvectors
    w1r, w2r = rotate_weights(model.w1, model.w2, spec)
    loss, g1, g2 = marginalized_loss_and_grads(Autoencoder(w1=w1r, w2=w2r), spec.eigenvalues,
                                               x.shape[0], eps_eff)
    return loss, g1 @ v.T, v @ g2


def test_marginalized_loss_zero_for_perfect_reconstruction(small_dataset):
    ds, spec = small_dataset
    model = Autoencoder(w1=np.eye(8), w2=np.eye(8))
    loss, g1, g2 = marginalized_at_pixel_weights(model, ds.samples, spec, 0.0)
    assert abs(loss) <= 1e-12
    assert np.max(np.abs(g1)) <= 1e-12 and np.max(np.abs(g2)) <= 1e-12


def test_marginalized_loss_at_zero_weights_is_energy(small_dataset):
    ds, spec = small_dataset
    model = Autoencoder(w1=np.zeros((4, 8)), w2=np.zeros((8, 4)))
    loss, g1, g2 = marginalized_at_pixel_weights(model, ds.samples, spec, 1.0)
    expected = 0.5 / ds.n * np.sum(ds.samples ** 2)
    assert loss == pytest.approx(expected, rel=1e-12)
    assert not g1.any() and not g2.any()


def test_marginalized_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 5))
    spec = eigendecompose(covariance(x))
    eps_eff = 3.0
    w1 = rng.standard_normal((3, 5)) * 0.4
    w2 = rng.standard_normal((5, 3)) * 0.4

    def loss_of(w1v, w2v):
        return marginalized_at_pixel_weights(Autoencoder(w1=w1v, w2=w2v), x, spec, eps_eff)[0]

    _, g1, g2 = marginalized_at_pixel_weights(Autoencoder(w1=w1, w2=w2), x, spec, eps_eff)
    n1 = central_difference_grad(lambda v: loss_of(v, w2), w1.copy())
    n2 = central_difference_grad(lambda v: loss_of(w1, v), w2.copy())
    scale = max(np.max(np.abs(n1)), np.max(np.abs(n2)))
    assert np.max(np.abs(g1 - n1)) <= 1e-5 * scale
    assert np.max(np.abs(g2 - n2)) <= 1e-5 * scale


def test_marginalized_diagonal_form_matches_pixel_space_on_rotated_weights(small_dataset):
    ds, spec = small_dataset
    v = spec.eigenvectors
    model = init_small_random(8, 4, 0.5, seed=6)
    rotated = Autoencoder(w1=model.w1 @ v, w2=v.T @ model.w2)
    loss, g1, g2 = marginalized_pixel_space(ds.samples, model.w1, model.w2, 2.0)
    loss_r, g1_r, g2_r = marginalized_loss_and_grads(rotated, spec.eigenvalues, ds.n, 2.0)
    assert loss_r == pytest.approx(loss, rel=1e-12)
    assert np.max(np.abs(g1_r - g1 @ v)) <= 1e-12 * np.max(np.abs(g1))
    assert np.max(np.abs(g2_r - v.T @ g2)) <= 1e-12 * np.max(np.abs(g2))


def test_marginalized_diagonal_form_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    n = 12                                # only N enters the diagonal form
    lams = np.sort(rng.uniform(0.5, 20.0, size=5))[::-1]
    eps_eff = 3.0
    w1 = rng.standard_normal((3, 5)) * 0.4
    w2 = rng.standard_normal((5, 3)) * 0.4

    def loss_of(w1v, w2v):
        return marginalized_loss_and_grads(Autoencoder(w1=w1v, w2=w2v), lams, n, eps_eff)[0]

    _, g1, g2 = marginalized_loss_and_grads(Autoencoder(w1=w1, w2=w2), lams, n, eps_eff)
    n1 = central_difference_grad(lambda v: loss_of(v, w2), w1.copy())
    n2 = central_difference_grad(lambda v: loss_of(w1, v), w2.copy())
    scale = max(np.max(np.abs(n1)), np.max(np.abs(n2)))
    assert np.max(np.abs(g1 - n1)) <= 1e-5 * scale
    assert np.max(np.abs(g2 - n2)) <= 1e-5 * scale


@pytest.mark.parametrize("h, d", [(3, 8), (32, 784)])
def test_marginalized_step_gives_the_same_bits_for_either_w2_layout_and_without_its_loss(h, d):
    # a run holds V^T W2 column-major; the step must not depend on W2's layout, and skipping
    # the loss must leave the gradients' bits as they are
    rng = np.random.default_rng(11)
    lams = np.sort(rng.uniform(0.0, 50.0, size=d))[::-1]
    w1 = rng.standard_normal((h, d)) * 0.1
    w2 = rng.standard_normal((d, h)) * 0.1
    w2_f = np.asfortranarray(w2)
    assert w2_f.flags.f_contiguous and not w2_f.flags.c_contiguous
    want = marginalized_loss_and_grads(Autoencoder(w1, w2), lams, 1000, 500.0)
    # the column-major grad2 has the bits of the row-major product W2 q
    row_major = w2 @ ((w1 * (lams + 500.0)) @ w1.T)
    row_major -= (w1 * lams).T
    row_major /= 1000
    assert np.array_equal(want[2], row_major)
    for layout in (w2, w2_f):
        for with_loss in (True, False):
            loss, g1, g2 = marginalized_loss_and_grads(Autoencoder(w1, layout), lams, 1000,
                                                       500.0, simulate.Workspace(), with_loss)
            assert (loss == want[0]) if with_loss else loss is None
            assert np.array_equal(g1, want[1]) and np.array_equal(g2, want[2])


@pytest.mark.parametrize("init, gamma", [("small_random", 0.0), ("small_random", 1e-3),
                                         ("orthogonal", 1e-3)])
def test_a_marginalized_run_records_the_same_bits_at_every_cadence(init, gamma, small_dataset):
    # the loss is formed only at recorded epochs, so the cadence must change no bit of what
    # the runs both record: modes, norms, losses and the final weights
    ds, spec = small_dataset
    cfg = TrainingConfig(learning_rate=0.5, epochs=95, noise=NoiseModel.gaussian(0.5 / ds.n),
                         weight_decay=gamma, init=init, init_scale=0.05, seed=4, hidden_dim=4,
                         record_every=1)
    every = run_linear_ae(ds, spec, cfg)
    sparse = run_linear_ae(ds, spec, replace(cfg, record_every=10))
    kept = np.isin(every.times, sparse.times)
    assert np.array_equal(every.times[kept], sparse.times)
    assert np.array_equal(every.modes[kept], sparse.modes)
    assert np.array_equal(every.norms.values[kept], sparse.norms.values)
    assert np.array_equal(every.losses[kept], sparse.losses)
    assert np.array_equal(every.model.w1, sparse.model.w1)
    assert np.array_equal(every.model.w2, sparse.model.w2)


def test_sampled_loss_without_noise_equals_marginalized(small_dataset):
    ds, spec = small_dataset
    model = init_small_random(8, 4, 0.5, seed=1)
    exact, _, _ = marginalized_at_pixel_weights(model, ds.samples, spec, 0.0)
    assert sampled_loss(model, ds, NoiseModel.none(), 5, seed=0) == pytest.approx(exact, rel=1e-12)


def test_sampled_loss_converges_to_marginalized(small_dataset):
    ds, spec = small_dataset
    model = init_small_random(8, 4, 0.5, seed=1)
    sigma2 = 0.25
    exact, _, _ = marginalized_at_pixel_weights(model, ds.samples, spec, ds.n * sigma2)
    estimate = sampled_loss(model, ds, NoiseModel.gaussian(sigma2), 10_000, seed=8)
    assert abs(estimate - exact) / exact <= 0.01


def test_sampled_loss_variance_scales_inversely_with_draws(small_dataset):
    ds, _ = small_dataset
    model = init_small_random(8, 4, 0.5, seed=1)
    noise = NoiseModel.gaussian(0.25)
    singles = [sampled_loss(model, ds, noise, 1, seed=s) for s in range(60)]
    batched = [sampled_loss(model, ds, noise, 100, seed=1000 + s) for s in range(60)]
    ratio = np.var(singles) / np.var(batched)
    assert 40.0 < ratio < 250.0


def test_sampled_loss_laplace_matches_its_effective_strength(small_dataset):
    # the 2Nb^2 conversion is what makes the marginalized penalty match
    ds, spec = small_dataset
    model = init_small_random(8, 4, 0.5, seed=2)
    b = 0.3
    eps_eff = analytic.epsilon_from_noise(NoiseModel.laplace(b), ds.n)
    exact, _, _ = marginalized_at_pixel_weights(model, ds.samples, spec, eps_eff)
    estimate = sampled_loss(model, ds, NoiseModel.laplace(b), 20_000, seed=3)
    assert abs(estimate - exact) / exact <= 0.01


def test_noise_free_sampled_step_backpropagates_once(small_dataset, monkeypatch):
    ds, spec = small_dataset
    calls, draws = [], []
    gram, draw = simulate._gram_form, simulate._draw_noise
    monkeypatch.setattr(simulate, "_gram_form", lambda *a: calls.append(a) or gram(*a))
    monkeypatch.setattr(simulate, "_draw_noise", lambda *a: draws.append(a) or draw(*a))
    model = init_small_random(8, 4, 0.5, seed=1)
    loss, _, _ = simulate._sampled_grads(model, ds.samples, NoiseModel.none(),
                                         np.random.default_rng(0))
    assert len(calls) == 1 and not draws
    exact, _, _ = marginalized_at_pixel_weights(model, ds.samples, spec, 0.0)
    assert loss == pytest.approx(exact, rel=1e-12)


def test_gaussian_draw_into_the_workspace_is_bitwise_rng_normal():
    sigma = math.sqrt(0.7)
    ref, rng = np.random.default_rng(8), np.random.default_rng(8)
    ws = simulate.Workspace()
    got = simulate._draw_noise(rng, NoiseModel.gaussian(0.7), (40, 6), ws)
    assert got is ws["noise"]
    want = ref.normal(0.0, sigma, size=(40, 6))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the generator is left in the same state: the next draws agree too
    assert np.array_equal(rng.normal(0.0, 1.0, size=9), ref.normal(0.0, 1.0, size=9))
    # without a workspace (the sampled-loss oracle's call) a new array comes back
    batch = simulate._draw_noise(rng, NoiseModel.gaussian(0.7), (3, 40, 6))
    assert batch is not ws["noise"]
    want = ref.normal(0.0, sigma, size=(3, 40, 6))
    assert np.array_equal(batch.view(np.int64), want.view(np.int64))


def _inverse_cdf(u, b):
    # the Laplace inverse CDF with libm's log: b log(2U) below 1/2 and -b log(2 - 2U) from
    # 1/2 up (0.0 - 0.0 at U = 1/2 is +0.0), both arguments exact; U = 0 takes the log of
    # the draw's clamp, 2^-53
    u = float(u)
    if u < 0.5:
        return b * math.log(max(u + u, 2.0 ** -53))
    return 0.0 - b * math.log(2.0 - 2.0 * u)


def _assert_within_two_ulp(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # with equal signs, the difference of the bit patterns counts ulps
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2


@pytest.mark.parametrize("shape, with_ws", [((40, 6), True), ((300, 100), True),
                                            ((3, 70, 100), False)],
                         ids=["below-one-block", "not-a-block-multiple", "3d-without-workspace"])
@pytest.mark.parametrize("b", [1e-3, 0.4, 7.3, 1e5])
def test_laplace_draw_is_rng_laplace_within_two_ulp(b, shape, with_ws):
    # the draw is the exact inverse CDF of rng.random's uniforms to the vector log's 2 ulp,
    # and leaves the generator where rng.random(shape) does; below U = 1/2 numpy's laplace
    # takes the same exact b log(U + U), so there the two agree to 2 ulp as well (from 1/2 up
    # numpy rounds 2 - U - U, which can move a value near U = 1 by far more)
    ref, rng = np.random.default_rng(11), np.random.default_rng(11)
    ws = simulate.Workspace() if with_ws else None
    got = simulate._draw_noise(rng, NoiseModel.laplace(b), shape, ws)
    if with_ws:
        assert got is ws["noise"]
    u = ref.random(shape)
    assert u.min() > 0.0
    _assert_within_two_ulp(got, np.reshape([_inverse_cdf(v, b) for v in u.flat], shape))
    assert rng.bit_generator.state == ref.bit_generator.state
    below = u < 0.5
    numpy_laplace = np.random.default_rng(11).laplace(0.0, b, size=shape)
    _assert_within_two_ulp(got[below], numpy_laplace[below])


class _Uniforms:
    """A generator whose uniforms are the given values, in order."""

    def __init__(self, values):
        self._values = iter(values)
        self.bit_generator = np.random.default_rng(0).bit_generator

    def random(self, out):
        out.reshape(-1)[...] = [next(self._values) for _ in range(out.size)]
        return out


def test_laplace_draw_takes_each_branch_and_its_sign_from_the_uniform_as_numpy_does():
    # negative below U = 1/2 and positive from 1/2 up, with U = 1/2 giving +0.0, as numpy's
    # laplace; each value is the exact inverse CDF to 2 ulp, beside 1/2 and at either end of
    # [0, 1), and U = 0, which numpy would redraw, gives the finite -53 b log 2
    b, ulp = 0.3, 2.0 ** -53
    uniforms = [0.5, 0.5 - ulp, 0.5 + 2 * ulp, 0.5 - ulp / 2, ulp, 1.0 - ulp, 0.25, 0.75, 0.0]
    got = simulate._draw_noise(_Uniforms(uniforms), NoiseModel.laplace(b), (len(uniforms),))
    want = np.array([_inverse_cdf(u, b) for u in uniforms])
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert np.array_equal(np.signbit(got), np.array(uniforms) < 0.5)
    _assert_within_two_ulp(got, want)
    assert np.isfinite(got).all() and got[-1] < got[4] < 0.0


def test_laplace_draw_is_antisymmetric_under_u_to_one_minus_u():
    # U - 1/2 and 1 - 2|U - 1/2| are exact, so U and 1 - U give exact negatives
    b = 0.7
    u = np.random.default_rng(6).random(5000)
    u = np.concatenate([u, [0.5, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.25]])
    got = simulate._draw_noise(_Uniforms(u), NoiseModel.laplace(b), u.shape)
    mirrored = simulate._draw_noise(_Uniforms(1.0 - u), NoiseModel.laplace(b), u.shape)
    flip = u != 0.5     # U = 1/2 is its own mirror: +0.0 both ways
    assert np.array_equal(mirrored[flip].view(np.int64), (-got[flip]).view(np.int64))
    assert mirrored[~flip].view(np.int64).tolist() == [0]


def test_laplace_draw_has_the_laplace_moments():
    # mean 0, E|X| = b and E X^2 = 2 b^2, each within 5 standard errors over 10^6 draws;
    # |X| is exponential with mean b (variance b^2), and Var(X^2) = 24 b^4 - 4 b^4
    b, n = 0.7, 1_000_000
    x = simulate._draw_noise(np.random.default_rng(2), NoiseModel.laplace(b), (1000, 1000))
    se = 1.0 / math.sqrt(n)
    assert abs(x.mean()) <= 5 * math.sqrt(2.0) * b * se
    assert abs(np.abs(x).mean() - b) <= 5 * b * se
    assert abs(np.mean(x * x) - 2.0 * b * b) <= 5 * math.sqrt(20.0) * b * b * se


class _ZeroAt:
    """A generator whose uniform at stream position `at`, counted over every draw, is 0.0."""

    def __init__(self, rng, at):
        self._rng, self._at, self._drawn = rng, at, 0
        self.bit_generator = rng.bit_generator

    def random(self, out):
        self._rng.random(out=out)
        if 0 <= self._at - self._drawn < out.size:
            out.reshape(-1)[self._at - self._drawn] = 0.0
        self._drawn += out.size
        return out


@pytest.mark.parametrize("zero_block", [None, 0, 1], ids=["no-zero", "zero-in-first-block",
                                                         "zero-in-a-later-block"])
def test_a_laplace_draw_in_row_blocks_has_the_bits_of_one_whole_draw(zero_block):
    # the sampled step draws STEP_BLOCK_ROWS rows at a time, half a page from each block of X;
    # the blocks, concatenated, are one whole N x D draw bit for bit, and leave the generator
    # where it leaves it. A zero uniform, in a row block's first or second pass, gives the
    # finite -53 b log 2 in either draw
    rows = simulate.STEP_BLOCK_ROWS
    n, d = 2 * rows + 88, simulate.LAPLACE_BLOCK // rows + 28     # two passes per row block
    noise = NoiseModel.laplace(0.3)
    at = None if zero_block is None else zero_block * (rows * d + simulate.LAPLACE_BLOCK) + 17

    def generator():
        rng = np.random.default_rng(9)
        return rng if at is None else _ZeroAt(rng, at)

    whole_rng, blocks_rng = generator(), generator()
    whole = simulate._draw_noise(whole_rng, noise, (n, d))
    x = np.zeros((n, d))
    ws = simulate.Workspace()
    blocks = []
    for start in range(0, n, rows):
        xb = x[start:start + rows]
        blocks.append(simulate._draw_noise(blocks_rng, noise, xb.shape, ws, xb).copy())
        assert blocks[-1].shape == xb.shape
    assert np.array_equal(np.concatenate(blocks).view(np.int64), whole.view(np.int64))
    assert blocks_rng.bit_generator.state == whole_rng.bit_generator.state
    assert np.isfinite(whole).all()
    if at is not None:
        _assert_within_two_ulp(whole.reshape(-1)[at:at + 1],
                               np.array([0.3 * math.log(2.0 ** -53)]))


def test_laplace_step_holds_no_n_by_d_buffer_and_draws_without_another():
    # the step draws and corrupts one STEP_BLOCK_ROWS-row block at a time, so neither the
    # workspace nor the step's transient memory holds anything the size of X
    x = np.random.default_rng(0).standard_normal((2000, 100))    # eight row blocks
    rows, d = simulate.STEP_BLOCK_ROWS, x.shape[1]
    model = init_small_random(100, 4, 0.5, seed=1)
    ws = simulate.Workspace()
    noise = NoiseModel.laplace(0.2)
    simulate._sampled_grads(model, x, noise, np.random.default_rng(4), ws)
    assert set(ws) == {"noise", "g1", "g2"}
    assert max(buf.size for buf in ws.values()) < x.size // 4
    assert ws["noise"].base.size == rows * d + 512      # one block and its half-page margin
    assert all(buf.base is None or buf.base.size == rows * d + 512 for buf in ws.values())
    tracemalloc.start()
    try:
        simulate._sampled_grads(model, x, noise, np.random.default_rng(5), ws)
        _, step_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # a draw into the block buffer allocates no more than a LAPLACE_BLOCK temporary
        simulate._draw_noise(np.random.default_rng(5), noise, (rows, d), ws, x)
        _, draw_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert step_peak < x.nbytes // 4, step_peak
    assert draw_peak < 2 * simulate.LAPLACE_BLOCK * 8, draw_peak


def test_laplace_buffer_sits_half_a_page_from_the_data_wherever_the_data_sits():
    # a store into the corrupted block at X's page offset (address mod 4096) aliases a load
    # from X; the buffer is placed 2048 bytes from each row block it corrupts, at least a cache
    # line either way round. At an odd D a block of X is an odd multiple of 2048 bytes long,
    # so consecutive blocks start half a page apart and the buffer moves with them
    n, d = 2 * simulate.STEP_BLOCK_ROWS + 37, 41
    model = init_small_random(d, 3, 0.5, seed=1)
    backing = np.random.default_rng(0).standard_normal(n * d + 4096 // 8)
    draw, gaps = simulate._draw_noise, []

    def spy(rng, noise, shape, ws, block):
        out = draw(rng, noise, shape, ws, block)
        gaps.append(((out.ctypes.data - block.ctypes.data) % 4096, out.shape == block.shape,
                     (block.ctypes.data - x.ctypes.data) // (8 * d)))
        return out

    for skip in range(4096 // 8):       # every 8-byte page offset of X
        x = backing[skip:skip + n * d].reshape(n, d)
        gaps.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_draw_noise", spy)
            simulate._sampled_grads(model, x, NoiseModel.laplace(0.2), np.random.default_rng(4),
                                    simulate.Workspace())
        assert gaps == [(2048, True, 0), (2048, True, 256), (2048, True, 512)], (skip, gaps)
    # the blocks of X do sit at two page offsets
    assert (simulate.STEP_BLOCK_ROWS * d * 8) % 4096 == 2048


@pytest.mark.parametrize("noise", [NoiseModel.gaussian(0.7), NoiseModel.laplace(0.4)],
                         ids=["gaussian", "laplace"])
def test_sampled_step_corrupts_bitwise_like_adding_a_fresh_draw(noise, small_dataset, monkeypatch):
    # A Laplace step draws and corrupts the batch one row block at a time, in one
    # block-sized buffer; the blocks have the bits of one whole draw, so the corrupted
    # batch is x + that draw bit for bit. A Gaussian
    # step draws only E Q and G (N k + m D values, k = min(D, H), m = min(N, H)),
    # bit for bit rng.normal, and backpropagates without a corrupted batch. Both
    # leave the generator in the state of their draws; each of two steps on one
    # generator draws once, a Laplace one once per row block.
    ds, _ = small_dataset
    x = ds.samples
    n, d = x.shape
    corrupted, shapes, drawn, last = [], [], [], []
    draw = simulate._draw_noise

    def keep_last():
        # the buffer of the last Laplace draw, which now holds its row block with x added
        if last:
            corrupted[-1].append(last.pop().copy())

    def spy_draw(*args):
        keep_last()
        values = draw(*args)
        shapes[-1].append(args[2])
        drawn[-1].append(values.copy())
        if noise.kind == "laplace":
            last.append(values)
        return values

    monkeypatch.setattr(simulate, "_draw_noise", spy_draw)
    model = init_small_random(8, 4, 0.5, seed=1)
    rng = np.random.default_rng(4)
    ws = simulate.Workspace()
    for _ in range(2):
        for per_step in (corrupted, shapes, drawn):
            per_step.append([])
        simulate._sampled_grads(model, x, noise, rng, ws)
        keep_last()
    # the draw (a block of the corrupted batch on a Laplace step) and the gradients are
    # the step's only buffers, beside a Gaussian step's clean pre-activation
    assert set(ws) == {"noise", "g1", "g2"} | ({"xw1"} if noise.kind == "gaussian" else set())
    ref = np.random.default_rng(4)
    if noise.kind == "gaussian":
        k, m = min(d, 4), min(n, 4)
        assert shapes == [[(n * k + m * d,)]] * 2
        assert ws["noise"].size == n * k + m * d < x.size
        for (values,) in drawn:
            want = ref.normal(0.0, math.sqrt(noise.variance), size=values.shape)
            assert np.array_equal(values.view(np.int64), want.view(np.int64))
    else:
        rows = simulate.STEP_BLOCK_ROWS
        assert n > rows     # two row blocks, the last one short
        assert shapes == [[(min(rows, n - start), d) for start in range(0, n, rows)]] * 2
        assert ws["noise"].shape == (n % rows, d)
        for blocks in corrupted:
            want = x + draw(ref, noise, x.shape)
            assert np.array_equal(np.concatenate(blocks).view(np.int64), want.view(np.int64))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian(0.7),
                                   NoiseModel.laplace(0.4)], ids=["none", "gaussian", "laplace"])
def test_a_kept_clean_pre_activation_changes_no_bit_of_the_step(noise, small_dataset):
    # a noise-free or Gaussian step leaves X W1^T in "xw1", the N x H buffer that a readout
    # of the hidden layer reads, and a workspace whose buffers hold NaN from an earlier
    # use changes no bit of its loss or gradients; a Laplace step's pre-activation is of
    # its corrupted rows, so it keeps none
    ds, _ = small_dataset
    model = init_small_random(8, 4, 0.5, seed=1)
    fresh = simulate._sampled_grads(model, ds.samples, noise, np.random.default_rng(4))
    ws = simulate.Workspace()
    for name, shape in (("xw1", (ds.n, 4)), ("g1", (4, 8)), ("g2", (8, 4))):
        ws(name, shape).fill(np.nan)
    used = simulate._sampled_grads(model, ds.samples, noise, np.random.default_rng(4), ws)
    assert np.float64(used[0]).view(np.int64) == np.float64(fresh[0]).view(np.int64)
    assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
               for a, b in zip(used[1:], fresh[1:]))
    if noise.kind == "laplace":
        ws = simulate.Workspace()
        simulate._sampled_grads(model, ds.samples, noise, np.random.default_rng(4), ws)
        assert "xw1" not in ws
    else:
        assert np.array_equal(ws["xw1"].view(np.int64), (ds.samples @ model.w1.T).view(np.int64))


@pytest.mark.parametrize("r", [5, 8], ids=["r-below-d", "r-equals-d"])
@pytest.mark.parametrize("activation", ["identity", "relu"])
@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian(0.7),
                                   NoiseModel.laplace(0.4)], ids=["none", "gaussian", "laplace"])
def test_a_step_without_its_loss_changes_no_bit_of_the_gradients(noise, activation, r,
                                                                  small_dataset):
    # with_loss=False, the step of every epoch that is not recorded, returns no loss and
    # the gradients of with_loss=True bit for bit, on the r <= D leading columns of a batch
    ds, _ = small_dataset
    x = np.ascontiguousarray(ds.samples[:, :r])
    model = replace(init_small_random(8, 4, 0.5, seed=1), activation=activation)
    steps = []
    for with_loss in (True, False):
        loss, g1, g2 = simulate._sampled_grads(model, x, noise, np.random.default_rng(4),
                                               with_loss=with_loss)
        steps.append((loss, g1, g2))
    assert isinstance(steps[0][0], float) and steps[1][0] is None
    assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
               for a, b in zip(steps[0][1:], steps[1][1:]))


@pytest.mark.parametrize("network, noise", [
    ("linear", NoiseModel.gaussian(0.05)), ("linear", NoiseModel.laplace(0.1)),
    ("relu", NoiseModel.gaussian(0.05))], ids=["linear-gaussian", "linear-laplace",
                                               "relu-eigenbasis"])
def test_a_sampled_run_records_the_same_bits_at_every_cadence(network, noise, small_dataset):
    # forming the loss only at recorded epochs changes no step: a run recorded every
    # epoch and one recorded every 10 agree bit for bit at the epochs both record
    ds, spec = small_dataset
    runs = []
    for every in (1, 10):
        cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=30, noise=noise, init_scale=0.05,
                             seed=4, hidden_dim=4, record_every=every, loss_mode="sampled")
        runs.append(run_linear_ae(ds, spec, cfg) if network == "linear"
                    else train_nonlinear(ds, spec, cfg, network))
    every_epoch, every_tenth = runs

    def same(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    assert np.array_equal(every_epoch.times[::10], every_tenth.times)
    assert same(every_epoch.modes[::10], every_tenth.modes)
    assert same(every_epoch.norms.values[::10], every_tenth.norms.values)
    assert same(every_epoch.losses[::10], every_tenth.losses)
    assert same(every_epoch.model.w1, every_tenth.model.w1)
    assert same(every_epoch.model.w2, every_tenth.model.w2)


@pytest.mark.parametrize("network, noise, data", [
    ("linear", NoiseModel.gaussian(0.05), "small_dataset"),
    ("linear", NoiseModel.laplace(0.1), "small_dataset"),
    ("relu", NoiseModel.gaussian(0.05), "small_dataset"),
    ("relu", NoiseModel.none(), "small_dataset"),
    ("relu", NoiseModel.none(), "twelve_sample_dataset")],
    ids=["linear-gaussian", "linear-laplace", "relu-gaussian", "relu-weight-space",
         "relu-sample-space"])
def test_a_run_cut_short_records_the_bits_of_a_longer_one(network, noise, data, request):
    # a run of 30 epochs records at 0, 10, 20 and 30 the bits that a run of 40 records
    # there, and a run of 0 epochs, whose one step comes before any update, those of epoch 0.
    # A leg of 0 epochs steps on the weights (see descend), so where the longer legs step
    # in sample space its loss sums the cross term in another order: equal to round-off
    ds, spec = request.getfixturevalue(data)
    runs = []
    for epochs in (0, 30, 40):
        cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=epochs, noise=noise,
                             weight_decay=1e-3, init_scale=0.05, seed=4, hidden_dim=4,
                             record_every=10, loss_mode="sampled")
        runs.append(run_linear_ae(ds, spec, cfg) if network == "linear"
                    else train_nonlinear(ds, spec, cfg, network))
    *cuts, whole = runs

    def same(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    for cut, records in zip(cuts, (1, 4)):
        assert np.array_equal(cut.times, whole.times[:records])
        assert same(cut.modes, whole.modes[:records])
        assert same(cut.norms.values, whole.norms.values[:records])
        if records == 1 and data == "twelve_sample_dataset":
            assert cut.losses[0] == pytest.approx(whole.losses[0], rel=1e-15, abs=0.0)
        else:
            assert same(cut.losses, whole.losses[:records])


def test_a_nan_in_delta_passes_the_qr_and_stops_the_run_at_that_epoch(small_dataset,
                                                                      monkeypatch):
    # a NaN in delta goes through its QR factorisation into grad1 with neither an
    # exception nor a RuntimeWarning (the suite makes those errors), and the weight
    # check stops the run at the epoch whose update it reaches
    ds, spec = small_dataset
    calls = []
    gram = simulate._gram_form

    def gram_with_nan(*args):
        loss, delta = gram(*args)
        calls.append(None)
        if len(calls) == 4:     # the gradient for the update of epoch 4
            delta[3, 1] = np.nan
        return loss, delta

    monkeypatch.setattr(simulate, "_gram_form", gram_with_nan)
    cfg = TrainingConfig(learning_rate=0.1, epochs=10, noise=NoiseModel.gaussian(0.5),
                         loss_mode="sampled", hidden_dim=2)
    with pytest.raises(DivergenceError) as info:
        run_linear_ae(ds, spec, cfg)
    assert info.value.step == 4


def test_a_nan_in_w2_alone_stops_the_run_at_that_epoch(small_dataset, monkeypatch):
    ds, spec = small_dataset
    calls = []

    def grads(model, *args):
        calls.append(None)
        g1, g2 = np.zeros_like(model.w1), np.zeros_like(model.w2)
        if len(calls) == 4:     # the gradient for the update of epoch 4
            g2[2, 1] = np.nan
        return 0.0, g1, g2

    monkeypatch.setattr(simulate, "_sampled_grads", grads)
    cfg = TrainingConfig(learning_rate=0.1, epochs=10, loss_mode="sampled", hidden_dim=2)
    with pytest.raises(DivergenceError) as info:
        run_linear_ae(ds, spec, cfg)
    assert info.value.step == 4


# --- full-matrix runs ----------------------------------------------------------

def test_linear_ae_learns_identity_without_regularisation():
    ds = synthetic_dataset([2.5, 1.8, 1.2, 0.8], 400, seed=8)
    spec = eigendecompose(covariance(ds))
    cfg = TrainingConfig(learning_rate=0.5, epochs=12_000, noise=NoiseModel.none(),
                         init="orthogonal", init_scale=0.1, seed=2, hidden_dim=4,
                         record_every=500)
    run = run_linear_ae(ds, spec, cfg)
    final = run.modes[-1]
    assert np.max(np.abs(final - 1.0)) <= 1e-3


def test_linear_ae_reaches_noise_suppressed_fixed_points():
    ds = synthetic_dataset([2.5, 1.0, 0.5], 500, seed=11)
    spec = eigendecompose(covariance(ds))
    sigma2 = 1.0 / ds.n  # effective strength 1
    cfg = TrainingConfig(learning_rate=0.5, epochs=30_000,
                         noise=NoiseModel.gaussian(sigma2), init="orthogonal",
                         init_scale=0.1, seed=4, hidden_dim=3, record_every=1000)
    run = run_linear_ae(ds, spec, cfg)
    expected = spec.eigenvalues / (spec.eigenvalues + 1.0)
    final = run.modes[-1]
    assert np.max(np.abs(final - expected)) <= 1e-3


def test_linear_ae_decoupling_and_scalar_equivalence(small_dataset):
    ds, spec = small_dataset
    sigma2 = 1.0 / ds.n
    cfg = TrainingConfig(learning_rate=0.5, epochs=1000,
                         noise=NoiseModel.gaussian(sigma2), init="orthogonal",
                         init_scale=0.1, seed=2, hidden_dim=4, record_every=10)
    run = run_linear_ae(ds, spec, cfg)
    assert run.max_offdiag <= 1e-8
    tau = ds.n / cfg.learning_rate
    for j in range(8):
        w0 = 0.1 if j < 4 else 0.0
        mode = ScalarMode(lam=float(spec.eigenvalues[j]), epsilon=1.0, tau=tau,
                          w1_0=w0, w2_0=w0)
        scalar = run_scalar_gd(mode, cfg.learning_rate, cfg.epochs, cfg.record_every)
        assert np.max(np.abs(scalar.trajectory.values - run.modes[:, j])) <= 1e-8


def test_linear_ae_loss_non_increasing_below_optimal_rate(small_dataset):
    ds, spec = small_dataset
    cfg = TrainingConfig(learning_rate=0.5, epochs=2000,
                         noise=NoiseModel.gaussian(0.5 / ds.n), init="small_random",
                         init_scale=1e-2, seed=9, hidden_dim=4, record_every=20)
    run = run_linear_ae(ds, spec, cfg)
    assert np.all(np.diff(run.losses) <= 1e-12)


def test_linear_ae_weight_decay_gradient_matches_finite_differences():
    # decay is part of the objective; check through the recorded loss drop
    ds = synthetic_dataset([1.0, 0.5], 200, seed=5)
    spec = eigendecompose(covariance(ds))
    gamma = 1e-3
    cfg = TrainingConfig(learning_rate=0.2, epochs=400, noise=NoiseModel.none(),
                         weight_decay=gamma, init="small_random", init_scale=0.05,
                         seed=3, hidden_dim=2, record_every=5)
    run = run_linear_ae(ds, spec, cfg)
    assert np.all(np.diff(run.losses) <= 1e-12)
    # decayed runs settle below the unregularised mapping
    assert run.modes[-1, 0] < 1.0


def test_linear_ae_sampled_mode_without_noise_matches_marginalized(small_dataset):
    ds, spec = small_dataset
    base = dict(learning_rate=0.5, epochs=300, init="orthogonal", init_scale=0.1,
                seed=2, hidden_dim=4, record_every=10)
    marg = run_linear_ae(ds, spec, TrainingConfig(noise=NoiseModel.none(), **base))
    samp = run_linear_ae(ds, spec, TrainingConfig(noise=NoiseModel.none(),
                                                  loss_mode="sampled", **base))
    assert np.max(np.abs(marg.modes - samp.modes)) <= 1e-12


@pytest.fixture(scope="module")
def rank_deficient_dataset():
    # N = 5 < D = 8: three eigenvalues at round-off, one of them clamped to 0
    ds = synthetic_dataset(SPECTRUM_8, 5, seed=3)
    return ds, eigendecompose(covariance(ds))


@pytest.fixture(scope="module")
def twelve_sample_dataset():
    # r = D = 8 < N = 12 < 2 r: a noise-free eigenbasis leg steps in sample space, where
    # K = X X^T (N x N) has rank r < N
    ds = synthetic_dataset(SPECTRUM_8, 12, seed=5)
    return ds, eigendecompose(covariance(ds))


@pytest.fixture(scope="module")
def wide_dataset():
    # N = r = 20 < D = 32: the shape of the nonlinear benchmark (N = r = 500 < D = 784)
    ds = synthetic_dataset(np.geomspace(2.5, 0.01, 32), 20, seed=6)
    return ds, eigendecompose(covariance(ds))


@pytest.mark.parametrize("data, init, gamma", [
    pytest.param(data, init, gamma, id=f"{init}-{decay}{suffix}")
    for data, suffix in (("small_dataset", ""), ("rank_deficient_dataset", "-rank-deficient"))
    for init in ("small_random", "orthogonal")
    for gamma, decay in ((0.0, "no-decay"), (1e-3, "decay"))])
def test_linear_ae_matches_pixel_space_descent_oracle(data, init, gamma, request):
    ds, spec = request.getfixturevalue(data)
    sigma2 = 0.5 / ds.n
    cfg = TrainingConfig(learning_rate=0.5, epochs=1500, noise=NoiseModel.gaussian(sigma2),
                         weight_decay=gamma, init=init, init_scale=0.05, seed=4, hidden_dim=4,
                         record_every=25)
    run = run_linear_ae(ds, spec, cfg)
    times, diags, norms, w1, w2 = marginalized_descent_pixel_space(
        ds.samples, run.init_model.w1, run.init_model.w2, ds.n * sigma2, cfg.learning_rate,
        cfg.epochs, cfg.record_every, spec.eigenvectors, gamma=gamma)
    assert np.max(diags[-1]) > 0.1     # the leading modes have been learned

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    assert np.array_equal(run.norms.times, times)
    assert close(run.modes, diags)
    assert close(run.norms.values, norms)
    assert close(run.model.w1, w1) and close(run.model.w2, w2)


@pytest.mark.parametrize("data, r", [
    ("small_dataset", 8), ("rank_deficient_dataset", 5), ("twelve_sample_dataset", 8),
    ("wide_dataset", 20)], ids=["full-rank", "rank-deficient", "n-below-2r", "n-equals-r"])
@pytest.mark.parametrize("gamma", [0.0, 1e-3], ids=["no-decay", "decay"])
@pytest.mark.parametrize("network", ["linear", "identity", "relu", "tanh"])
def test_noise_free_backprop_matches_pixel_space_descent_oracle(network, gamma, data, r, request,
                                                                monkeypatch):
    # a noise-free nonlinear leg trains in the eigenbasis on the r columns of XV that hold
    # data, stepping in sample space at N < 2 r and on the weights otherwise, and a linear
    # sampled one in pixel space; each must follow plain pixel-space descent on all D
    # columns to round-off: modes, norms, losses and final weights within 1e-12 of each
    # series' largest value
    ds, spec = request.getfixturevalue(data)
    assert simulate._data_range(ds.samples @ spec.eigenvectors).shape[1] == r
    steps = []
    sampled_grads = simulate._sampled_grads
    monkeypatch.setattr(simulate, "_sampled_grads",
                        lambda *args: steps.append(None) or sampled_grads(*args))
    cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=300, weight_decay=gamma,
                         init_scale=0.05, seed=4, hidden_dim=4, record_every=25,
                         loss_mode="sampled")
    if network == "linear":
        run = run_linear_ae(ds, spec, cfg)
    else:
        run = train_nonlinear(ds, spec, cfg, network)
    sample_space = network != "linear" and ds.n < 2 * r
    assert len(steps) == (0 if sample_space else cfg.epochs + 1)
    times, weights, losses, model = backprop_descent_pixel_space(
        ds.samples, run.init_model, cfg.learning_rate, cfg.epochs, cfg.record_every, gamma)
    if network == "linear":
        modes = [projected_diagonal(w1, w2, spec)[0] for w1, w2 in weights]
    else:
        phi, _ = simulate.ACTIVATIONS[network]
        modes = [cross_covariance_mode_ratios(ds.samples, w1, w2, phi, spec.eigenvectors,
                                              spec.eigenvalues) for w1, w2 in weights]
    modes = np.array(modes)
    norms = np.array([np.sum(w1 * w1) + np.sum(w2 * w2) for w1, w2 in weights])
    assert np.nanmax(modes[-1]) > 0.5     # the leading mode has been learned

    def close(got, want):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        kept = ~np.isnan(want)
        return np.max(np.abs(got[kept] - want[kept])) <= 1e-12 * np.max(np.abs(want[kept]))

    assert np.array_equal(run.times, times)
    assert close(run.modes, modes)
    assert close(run.norms.values, norms)
    assert close(run.losses, losses)
    assert close(run.model.w1, model.w1) and close(run.model.w2, model.w2)


@pytest.mark.parametrize("data, activation, scale, rate, diverges", [
    ("twelve_sample_dataset", "identity", 0.5, 3.0, True),
    ("twelve_sample_dataset", "relu", 0.5, 3.0, True),
    ("twelve_sample_dataset", "tanh", 0.5, 3.0, True),
    ("small_dataset", "relu", 0.5, 3.0, True),
    ("twelve_sample_dataset", "identity", 4e11, 4e-23 / 12, True),
    ("twelve_sample_dataset", "relu", 4e11, 4e-23 / 12, False)],
    ids=["sample-space-identity", "sample-space-relu", "sample-space-tanh", "weight-space-relu",
         "sample-space-slow", "sample-space-above-the-bound"])
def test_a_noise_free_leg_stops_where_its_eigenbasis_weights_cross_the_limit(
        data, activation, scale, rate, diverges, request):
    # The check reads the eigenbasis weights entry by entry; a sample-space leg forms them
    # only once a Frobenius bound reaches half the limit. Entries of 4e11 put that bound
    # past the limit itself from epoch 0: the slow leg crosses it at epoch 5 and the other
    # stays below it entry by entry, so it runs to the end. Each stops at the first epoch
    # at which plain pixel-space descent, rotated into the eigenbasis, crosses the limit.
    ds, spec = request.getfixturevalue(data)
    epochs = 40
    cfg = TrainingConfig(learning_rate=rate * ds.n, epochs=epochs, init_scale=scale, seed=4,
                         hidden_dim=4, record_every=epochs, loss_mode="sampled")
    init = replace(init_small_random(ds.d, 4, scale, 4), activation=activation)
    with np.errstate(all="ignore"):     # past the limit the oracle's weights overflow
        _, weights, _, model = backprop_descent_pixel_space(ds.samples, init, rate * ds.n,
                                                            epochs, 1)
        crossed = [simulate._beyond_limit(*rotate_weights(w1, w2, spec)) for w1, w2 in weights]
    assert any(crossed) == diverges
    if diverges:
        with pytest.raises(DivergenceError) as info:
            train_nonlinear(ds, spec, cfg, activation)
        assert info.value.step == crossed.index(True)
    else:
        run = train_nonlinear(ds, spec, cfg, activation)
        for got, want in ((run.model.w1, model.w1), (run.model.w2, model.w2)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("gamma", [0.0, 1e-3], ids=["no-decay", "decay"])
def test_a_sample_space_leg_bounds_the_norms_of_the_weights_it_forms(gamma, wide_dataset):
    # the divergence check's ||W1||^2 and ||W2||^2, read off the sample-space state, are the
    # squared norms of the weights that form() writes
    ds, spec = wide_dataset
    x = simulate._data_range(ds.samples @ spec.eigenvectors)
    init = init_small_random(ds.d, 4, 0.05, seed=4)
    model = Autoencoder(*rotate_weights(init.w1, init.w2, spec), "relu")
    leg = simulate._SampleSpace(model, x, simulate.Workspace(), 0.05 * ds.n, gamma)
    for _ in range(40):
        leg.gradient(False)
        leg.update()
    w1_sq, w2_sq = leg.norms()
    leg.form()
    assert abs(w1_sq - np.sum(model.w1 ** 2)) <= 1e-12 * w1_sq
    assert abs(w2_sq - np.sum(model.w2 ** 2)) <= 1e-12 * w2_sq
    assert np.sum(model.w1 ** 2) > 2.0 * np.sum(init.w1 ** 2)     # the weights have moved


def test_a_sample_space_leg_gives_the_same_bits_for_the_same_seed(wide_dataset):
    ds, spec = wide_dataset
    cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=50, weight_decay=1e-3,
                         init_scale=0.05, seed=4, hidden_dim=4, record_every=10,
                         loss_mode="sampled")
    first, second = (train_nonlinear(ds, spec, cfg, "relu") for _ in range(2))

    def same(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    assert same(first.modes, second.modes) and same(first.losses, second.losses)
    assert same(first.norms.values, second.norms.values)
    assert same(first.model.w1, second.model.w1) and same(first.model.w2, second.model.w2)


def test_a_leg_at_n_at_least_2r_holds_no_n_by_n_array(monkeypatch):
    # N = 2000 samples on r = D = 32: K = X X^T would be 32 MB, the data 0.5 MB
    ds = synthetic_dataset(np.geomspace(2.5, 0.01, 32), 2000, seed=7)
    spec = eigendecompose(covariance(ds))
    steps = []
    sampled_grads = simulate._sampled_grads
    monkeypatch.setattr(simulate, "_sampled_grads",
                        lambda *args: steps.append(None) or sampled_grads(*args))
    cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=3, hidden_dim=4, loss_mode="sampled")
    ds.samples          # formed before tracing, as a command forms it after eigh
    tracemalloc.start()
    try:
        train_nonlinear(ds, spec, cfg, "relu")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == cfg.epochs + 1
    assert peak < ds.n * ds.n * 8 // 8, peak


def test_a_spectrum_that_orders_a_null_direction_before_data_is_refused(rank_deficient_dataset):
    # swapping a data direction with a null one puts a column of data past the range's r,
    # which a noise-free or gaussian backprop leg, training on that range, refuses
    ds, spec = rank_deficient_dataset
    v = spec.eigenvectors[:, [0, 1, 2, 3, 5, 4, 6, 7]]
    swapped = Spectrum(eigenvectors=v, eigenvalues=spec.eigenvalues)
    for noise in (NoiseModel.none(), NoiseModel.gaussian(0.05)):
        cfg = TrainingConfig(learning_rate=0.2, epochs=5, noise=noise, hidden_dim=2)
        with pytest.raises(ValueError, match=r"range first: a column of X V past the leading "
                                             r"5 has norm \d"):
            train_nonlinear(ds, swapped, cfg, "relu")


@pytest.mark.parametrize("loss_mode, activation", [
    ("marginalized", "identity"), ("sampled", "identity"), ("sampled", "relu")])
def test_descend_records_eigenbasis_weights(loss_mode, activation, small_dataset):
    # whichever basis the loop iterates in, the recorder sees (W1 V, V^T W2)
    ds, spec = small_dataset
    cfg = TrainingConfig(learning_rate=0.2, epochs=25, noise=NoiseModel.gaussian(0.01),
                         init_scale=0.1, seed=2, hidden_dim=3, record_every=10,
                         loss_mode=loss_mode)
    pairs = []

    def readout(w1r, w2r):
        pairs.append((w1r.copy(), w2r.copy()))
        return np.zeros(ds.d)

    run = descend(ds, spec, cfg, readout, activation=activation,
                  marginalized=loss_mode == "marginalized")
    assert run.times.tolist() == [0, 10, 20, 25] and len(pairs) == 4
    for (w1r, w2r), weights in ((pairs[0], run.init_model), (pairs[-1], run.model)):
        want1, want2 = rotate_weights(weights.w1, weights.w2, spec)
        scale = max(np.max(np.abs(want1)), np.max(np.abs(want2)))
        assert np.max(np.abs(w1r - want1)) <= 1e-12 * scale
        assert np.max(np.abs(w2r - want2)) <= 1e-12 * scale


def test_linear_ae_rejects_a_spectrum_of_other_data(small_dataset):
    ds, _ = small_dataset
    other = eigendecompose(covariance(synthetic_dataset(SPECTRUM_8, 400, seed=4)))
    cfg = TrainingConfig(learning_rate=0.5, epochs=10, hidden_dim=2)
    with pytest.raises(ValueError, match="diagonalise"):
        run_linear_ae(ds, other, cfg)
    # a covariance the caller hands over must be the dataset's X^T X, whichever spectrum
    # comes with it, so other data's spectrum and covariance together are refused too
    cov = covariance(ds)
    other_cov = covariance(synthetic_dataset(SPECTRUM_8, 400, seed=4))
    for spec, handed in [(eigendecompose(cov), other_cov), (other, other_cov),
                         (eigendecompose(cov), cov[:4, :4])]:
        with pytest.raises(ValueError, match=r"not X\^T X of the dataset"):
            run_linear_ae(ds, spec, cfg, handed)
    assert np.array_equal(run_linear_ae(ds, eigendecompose(cov), cfg, cov).modes,
                          run_linear_ae(ds, eigendecompose(cov), cfg).modes)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, 1e12, 1e200])
def test_training_config_rejects_an_init_scale_outside_the_divergence_limit(scale):
    with pytest.raises(ValueError, match="init scale"):
        TrainingConfig(learning_rate=0.5, epochs=0, init_scale=scale)


def test_linear_ae_divergence_aborts_with_epoch(small_dataset):
    ds, spec = small_dataset
    # far past the stability bound 2 n / (2 lam_1 + 3 eps)
    cfg = TrainingConfig(learning_rate=2000.0, epochs=10_000, noise=NoiseModel.none(),
                         init="small_random", init_scale=0.5, seed=0, hidden_dim=4,
                         record_every=100)
    with pytest.raises(DivergenceError) as info:
        run_linear_ae(ds, spec, cfg)
    assert info.value.step is not None


def test_linear_ae_norm_series_uses_reserved_mode_index(small_dataset):
    ds, spec = small_dataset
    cfg = TrainingConfig(learning_rate=0.5, epochs=50, noise=NoiseModel.none(),
                         init="small_random", init_scale=1e-2, seed=1, hidden_dim=2,
                         record_every=10)
    run = run_linear_ae(ds, spec, cfg)
    assert run.norms.mode_index == -1
    w1, w2 = run.model.w1, run.model.w2
    assert run.norms.values[-1] == pytest.approx(np.sum(w1 * w1) + np.sum(w2 * w2), rel=1e-12)


def test_modes_from_linear_ae_recovers_orthogonal_init_exactly(small_dataset):
    _, spec = small_dataset
    model = init_orthogonal(8, 4, spec, 0.1, seed=2)
    modes = modes_from_linear_ae(model, spec, epsilon=1.0, tau=800.0)
    for j, mode in enumerate(modes):
        if j < 4:
            assert mode.w0 == pytest.approx(0.01, abs=1e-12)
            assert mode.c0 <= 1e-12
        else:
            assert mode.w0 == pytest.approx(0.0, abs=1e-15)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0, epochs=10)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.1, epochs=-1)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.1, epochs=10, loss_mode="other")
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.1, epochs=10, weight_decay=-0.1)


def test_linear_ae_validation():
    with pytest.raises(ValueError, match="shapes"):
        Autoencoder(w1=np.ones((2, 3)), w2=np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        Autoencoder(w1=np.full((2, 3), np.nan), w2=np.ones((3, 2)))


@pytest.mark.parametrize("center", [False, True], ids=["plain", "centred"])
def test_legs_on_image_counts_read_x_as_p_over_255(center, mnist_like_paths):
    # sampled and nonlinear legs form X from the counts with preprocess's float arithmetic,
    # P / 255 and then the mean removed, so they train exactly as on that float X
    batch = load_idx(mnist_like_paths, 120)
    x = batch.stored.astype(np.float64) / 255
    if center:
        x = x - x.mean(axis=0)
    counts, floats = preprocess(batch, center=center), Dataset(x, "mnist")
    spec = eigendecompose(covariance(counts))
    assert "samples" not in vars(counts)
    base = dict(learning_rate=0.02, epochs=6, init_scale=1e-2, seed=3, hidden_dim=6,
                record_every=2)
    legs = [lambda ds, noise: train_nonlinear(ds, spec, TrainingConfig(noise=noise, **base),
                                              "relu"),
            lambda ds, noise: run_linear_ae(ds, spec, TrainingConfig(
                noise=noise, loss_mode="sampled", **base))]
    for leg in legs:
        for noise in (NoiseModel.gaussian(0.1), NoiseModel.laplace(0.2)):
            assert np.array_equal(leg(counts, noise).modes, leg(floats, noise).modes,
                                  equal_nan=True)
    assert np.array_equal(counts.samples.view(np.int64), x.view(np.int64))


def test_marginalised_run_on_image_counts_never_forms_x(mnist_like_paths):
    ds = preprocess(load_idx(mnist_like_paths, 200), center=True, scale=True)
    cov = covariance(ds)
    spec = eigendecompose(cov)
    cfg = TrainingConfig(learning_rate=0.05, epochs=4, hidden_dim=4, seed=2,
                         noise=NoiseModel.gaussian(0.5))
    for handed in (cov, None):  # a handed-over X^T X is tied to the counts, else one is formed
        run_linear_ae(ds, spec, cfg, handed)
    assert "samples" not in vars(ds)
