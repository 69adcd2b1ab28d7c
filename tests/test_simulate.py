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
from daedyn.data import synthetic_dataset
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
from daedyn.spectrum import Spectrum, covariance, eigendecompose, rotate_weights

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


@pytest.mark.parametrize("shape, with_ws", [((40, 6), True), ((300, 100), True),
                                            ((3, 70, 100), False)],
                         ids=["below-one-block", "not-a-block-multiple", "3d-without-workspace"])
@pytest.mark.parametrize("b", [1e-3, 0.4, 7.3, 1e5])
def test_laplace_draw_is_rng_laplace_within_two_ulp(b, shape, with_ws):
    ref, rng = np.random.default_rng(11), np.random.default_rng(11)
    ws = simulate.Workspace() if with_ws else None
    got = simulate._draw_noise(rng, NoiseModel.laplace(b), shape, ws)
    if with_ws:
        assert got is ws["noise"]
    want = ref.laplace(0.0, b, size=shape)
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # with equal signs, the difference of the bit patterns counts ulps
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
    # the same uniforms were taken: the generator is left in the same state
    assert rng.bit_generator.state == ref.bit_generator.state


class _ZeroUniform:
    """A generator whose `call`-th uniform block holds a 0.0 at flat index `at`."""

    def __init__(self, rng, call, at):
        self._rng, self._call, self._at = rng, call, at
        self.bit_generator = rng.bit_generator

    def random(self, out):
        self._rng.random(out=out)
        self._call -= 1
        if self._call == 0:
            out.reshape(-1)[self._at] = 0.0
        return out

    def laplace(self, loc, scale, size):
        return self._rng.laplace(loc, scale, size=size)


@pytest.mark.parametrize("call", [1, 2], ids=["first-block", "second-block"])
def test_a_zero_uniform_replays_the_draw_through_rng_laplace(call):
    # numpy redraws a zero uniform; the draw must then be rng.laplace bit for bit
    shape = (3, simulate.LAPLACE_BLOCK // 2)      # three blocks
    ref = np.random.default_rng(5)
    rng = _ZeroUniform(np.random.default_rng(5), call, at=17)
    ws = simulate.Workspace()
    got = simulate._draw_noise(rng, NoiseModel.laplace(0.3), shape, ws)
    assert got is ws["noise"]
    want = ref.laplace(0.0, 0.3, size=shape)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_laplace_draw_has_the_laplace_moments():
    # mean 0, E|X| = b and E X^2 = 2 b^2, each within 5 standard errors over 10^6 draws;
    # |X| is exponential with mean b (variance b^2), and Var(X^2) = 24 b^4 - 4 b^4
    b, n = 0.7, 1_000_000
    x = simulate._draw_noise(np.random.default_rng(2), NoiseModel.laplace(b), (1000, 1000))
    se = 1.0 / math.sqrt(n)
    assert abs(x.mean()) <= 5 * math.sqrt(2.0) * b * se
    assert abs(np.abs(x).mean() - b) <= 5 * b * se
    assert abs(np.mean(x * x) - 2.0 * b * b) <= 5 * math.sqrt(20.0) * b * b * se


def test_laplace_step_holds_one_n_by_d_buffer_and_draws_without_another():
    x = np.random.default_rng(0).standard_normal((500, 100))     # three draw blocks
    model = init_small_random(100, 4, 0.5, seed=1)
    ws = simulate.Workspace()
    noise = NoiseModel.laplace(0.2)
    simulate._sampled_grads(model, x, noise, np.random.default_rng(4), ws)
    assert sum(buf.size >= x.size for buf in ws.values()) == 1
    # a later draw into that buffer allocates no more than a block-sized temporary
    tracemalloc.start()
    try:
        simulate._draw_noise(np.random.default_rng(5), noise, x.shape, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 2


@pytest.mark.parametrize("noise", [NoiseModel.gaussian(0.7), NoiseModel.laplace(0.4)],
                         ids=["gaussian", "laplace"])
def test_sampled_step_corrupts_bitwise_like_adding_a_fresh_draw(noise, small_dataset, monkeypatch):
    # The Laplace draw is within 2 ulp of rng.laplace, so its corrupted batch is
    # x + rng.laplace up to those 2 ulp plus the rounding of the two adds. A Gaussian
    # step draws only E Q and G (N k + m D values, k = min(D, H), m = min(N, H)),
    # bit for bit rng.normal, and backpropagates without a corrupted batch. Both
    # leave the generator in the state of their draws; each of two steps on one
    # generator draws once.
    ds, _ = small_dataset
    x = ds.samples
    n, d = x.shape
    corrupted, shapes, drawn = [], [], []
    draw = simulate._draw_noise

    def spy_draw(*args):
        values = draw(*args)
        shapes.append(args[2])
        drawn.append(values.copy())
        return values

    monkeypatch.setattr(simulate, "_draw_noise", spy_draw)
    model = init_small_random(8, 4, 0.5, seed=1)
    rng = np.random.default_rng(4)
    ws = simulate.Workspace()
    for _ in range(2):
        simulate._sampled_grads(model, x, noise, rng, ws)
        if noise.kind == "laplace":     # the draw, with x added to it in place
            corrupted.append(ws["noise"].copy())
    # the draw (the corrupted batch on a Laplace step) and the gradients are the
    # step's only buffers
    assert set(ws) == {"noise", "g1", "g2"}
    ref = np.random.default_rng(4)
    if noise.kind == "gaussian":
        k, m = min(d, 4), min(n, 4)
        assert shapes == [(n * k + m * d,)] * 2
        assert ws["noise"].size == n * k + m * d < x.size
        for values in drawn:
            want = ref.normal(0.0, math.sqrt(noise.variance), size=values.shape)
            assert np.array_equal(values.view(np.int64), want.view(np.int64))
    else:
        assert shapes == [x.shape] * 2
        for batch in corrupted:
            e = ref.laplace(0.0, noise.scale, size=x.shape)
            want = x + e
            tol = (2.0 * np.spacing(np.abs(e))
                   + np.spacing(np.maximum(np.abs(want), np.abs(batch))))
            assert np.all(np.abs(batch - want) <= tol)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian(0.7)],
                         ids=["none", "gaussian"])
def test_a_kept_clean_pre_activation_changes_no_bit_of_the_step(noise, small_dataset):
    # keep_clean=True leaves X W1^T in "xw1" (an N x H buffer that only a readout of the
    # hidden layer asks for) and the step's loss and gradients exactly as they were
    ds, _ = small_dataset
    model = init_small_random(8, 4, 0.5, seed=1)
    steps = []
    for keep in (False, True):
        ws = simulate.Workspace()
        loss, g1, g2 = simulate._sampled_grads(model, ds.samples, noise,
                                               np.random.default_rng(4), ws, keep_clean=keep)
        steps.append((loss, g1.copy(), g2.copy()))
        assert ("xw1" in ws) == keep
    assert steps[0][0] == steps[1][0]
    assert all(np.array_equal(a, b) for a, b in zip(steps[0][1:], steps[1][1:]))
    assert np.array_equal(ws["xw1"], ds.samples @ model.w1.T)


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


@pytest.mark.parametrize("data, r", [("small_dataset", 8), ("rank_deficient_dataset", 5)],
                         ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("gamma", [0.0, 1e-3], ids=["no-decay", "decay"])
@pytest.mark.parametrize("network", ["linear", "identity", "relu", "tanh"])
def test_noise_free_backprop_matches_pixel_space_descent_oracle(network, gamma, data, r, request):
    # a noise-free nonlinear leg trains in the eigenbasis on the r columns of XV that hold
    # data, and a linear sampled one in pixel space; each must follow plain pixel-space
    # descent on all D columns to round-off: modes, norms, losses and final weights within
    # 1e-12 of each series' largest value
    ds, spec = request.getfixturevalue(data)
    assert simulate._data_range(ds.samples @ spec.eigenvectors).shape[1] == r
    cfg = TrainingConfig(learning_rate=0.05 * ds.n, epochs=300, weight_decay=gamma,
                         init_scale=0.05, seed=4, hidden_dim=4, record_every=25,
                         loss_mode="sampled")
    if network == "linear":
        run = run_linear_ae(ds, spec, cfg)
    else:
        run = train_nonlinear(ds, spec, cfg, network)
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
