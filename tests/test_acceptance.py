"""Acceptance suite: one test per exit criterion, each at its pinned tolerance.

Each test prints its verdict line through the summary hook in conftest.py.
The image-dataset criteria run on the deterministic image-like fixtures from
conftest unless real files are supplied via environment variables.
"""

import os
import struct
import time

import numpy as np
import pytest

from oracles import central_difference_grad, dae_flow, sampled_loss, solve_at_times, wdae_flow

from daedyn import analytic, data, nonlinear, simulate, spectrum
from daedyn.analytic import (
    NoiseModel,
    ScalarMode,
    dae_fixed_point,
    dae_trajectory,
    equivalent_decay,
    first_crossing_time,
    optimal_rates,
    wdae_fixed_point,
    wdae_trajectory,
)
from daedyn.data import load_cifar10, load_idx, synthetic_dataset, write_cifar10, write_idx
from daedyn.errors import ParseError
from daedyn.simulate import (
    Autoencoder,
    TrainingConfig,
    init_small_random,
    marginalized_loss_and_grads,
    modes_from_linear_ae,
    run_linear_ae,
    run_scalar_gd,
)
from daedyn.spectrum import covariance, eigendecompose, rotate_weights


def test_criterion_01_fixed_points():
    """Scalar runs at lambda=1 reach the three reference fixed points and track theory."""
    start = time.perf_counter()
    n, alpha = 500, 0.5
    tau = n / alpha
    for eps, wstar in ((0.0, 1.0), (1.0, 0.5), (5.0, 1.0 / 6.0)):
        mode = ScalarMode(lam=1.0, epsilon=eps, tau=tau, w1_0=0.1, w2_0=0.2)
        alpha_opt, _, _ = optimal_rates(1.0, eps, 0.0, alpha * tau)   # N / (2 lam + 3 eps)
        assert alpha <= 0.1 * alpha_opt
        run = run_scalar_gd(mode, alpha, 12_000, 20)
        assert abs(run.trajectory.values[-1] - wstar) <= 1e-3
        predicted = dae_trajectory(mode, run.trajectory.times)
        assert np.max(np.abs(predicted - run.trajectory.values)) <= 1e-2
    assert time.perf_counter() - start < 1.0


def test_criterion_02_dae_closed_form_vs_ode_oracle():
    """Fifty seeded noisy modes match adaptive RK4 within 1e-6 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    count = 0
    while count < 50:
        lam = rng.uniform(0.3, 3.0)
        eps = rng.uniform(0.0, 5.0)
        tau = rng.uniform(50.0, 500.0)
        w1_0, w2_0 = rng.uniform(-0.8, 0.8, size=2)
        if abs(w2_0 ** 2 - w1_0 ** 2) <= 1e-3:
            continue
        count += 1
        mode = ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=w1_0, w2_0=w2_0)
        times = np.linspace(0.05, 4.0, 20) * tau / lam
        predicted = dae_trajectory(mode, times)
        rows = solve_at_times(dae_flow(lam, eps, tau), [w1_0, w2_0], times, tol=1e-11)
        oracle = rows[:, 0] * rows[:, 1]
        assert np.allclose(predicted, oracle, rtol=1e-6, atol=1e-9)
    assert time.perf_counter() - start < 5.0


def test_criterion_03_wdae_closed_form_vs_ode_oracle():
    """Fifty seeded decayed modes from equal small weights match RK4 within 1e-6."""
    rng = np.random.default_rng(43)
    for _ in range(50):
        lam = rng.uniform(0.3, 3.0)
        gamma_eff = rng.uniform(0.0, 1.8) * lam  # covers both decay branches
        tau = rng.uniform(50.0, 500.0)
        w0 = rng.uniform(1e-4, 1e-2)
        s = np.sqrt(w0)
        times = np.linspace(0.05, 4.0, 20) * tau / lam
        predicted = wdae_trajectory(lam, gamma_eff, tau, w0, times)
        rows = solve_at_times(wdae_flow(lam, gamma_eff, tau), [s, s], times, tol=1e-11)
        oracle = rows[:, 0] * rows[:, 1]
        assert np.allclose(predicted, oracle, rtol=1e-6, atol=1e-9)


def test_criterion_04_equivalence_and_delay():
    """Matched noise/decay plateaus coincide; noise never reaches half-rise later."""
    tau, w0, ratio = 200.0, 1e-3, 1.5
    w1_0 = np.sqrt(w0 / ratio)
    w2_0 = np.sqrt(w0 * ratio)
    times = np.linspace(0.0, 40_000.0, 8001)
    for lam in (0.5, 1.0, 2.5):
        for eps in (0.5, 1.0, 2.0):
            gamma_eff = equivalent_decay(lam, eps)
            plateau_dae = dae_trajectory(
                ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=w1_0, w2_0=w2_0), 1e9)
            plateau_wdae = wdae_trajectory(lam, gamma_eff, tau, w0, 1e9)
            assert abs(plateau_dae - plateau_wdae) <= 1e-4
            mode = ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=w1_0, w2_0=w2_0)
            target = 0.5 * dae_fixed_point(lam, eps)
            t_dae = first_crossing_time(times, dae_trajectory(mode, times), target)
            t_wdae = first_crossing_time(
                times, wdae_trajectory(lam, gamma_eff, tau, w0, times), target)
            assert t_dae is not None and t_wdae is not None and t_dae <= t_wdae
    grid = np.linspace(0.0, 10.0, 41)
    for lam in (0.5, 1.0, 2.5):
        ratios = [optimal_rates(lam, e, equivalent_decay(lam, e), tau)[2] for e in grid]
        assert ratios[0] == 1.0
        assert np.all(np.diff(ratios) < 0.0)


def test_criterion_05_marginalization():
    """Sampled loss agrees with the closed-form expectation; gradients check out."""
    rng = np.random.default_rng(1234)
    for case in range(10):
        n, d, h = 16, 6, 3
        x = rng.standard_normal((n, d))
        sigma2 = rng.uniform(0.05, 0.6)
        model = Autoencoder(w1=rng.standard_normal((h, d)) * 0.5,
                         w2=rng.standard_normal((d, h)) * 0.5)
        eps_eff = n * sigma2
        spec = eigendecompose(covariance(x))
        v = spec.eigenvectors

        def marginalized(w1, w2):
            # the eigenbasis objective at the rotated weights of (w1, w2)
            return marginalized_loss_and_grads(Autoencoder(*rotate_weights(w1, w2, spec)),
                                               spec.eigenvalues, n, eps_eff)

        exact, g1r, g2r = marginalized(model.w1, model.w2)
        g1, g2 = g1r @ v.T, v @ g2r     # back to pixel space
        estimate, std = sampled_loss(model, x, NoiseModel.gaussian(sigma2),
                                     100_000, seed=case, with_std=True)
        assert abs(estimate - exact) <= 3.0 * std / np.sqrt(100_000)
        num1 = central_difference_grad(lambda w: marginalized(w, model.w2)[0], model.w1.copy())
        num2 = central_difference_grad(lambda w: marginalized(model.w1, w)[0], model.w2.copy())
        scale = max(np.max(np.abs(num1)), np.max(np.abs(num2)))
        assert np.max(np.abs(g1 - num1)) <= 1e-5 * scale
        assert np.max(np.abs(g2 - num2)) <= 1e-5 * scale


def test_criterion_06_decoupling():
    """Orthogonal init keeps the rotated product diagonal and scalar-equivalent."""
    ds = synthetic_dataset([2.5, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01], 400, seed=3)
    spec = eigendecompose(covariance(ds))
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
        gap = np.max(np.abs(scalar.trajectory.values - run.modes[:, j]))
        assert gap <= 1e-8


def test_criterion_07_real_data_desk_scale(mnist_like_dataset):
    """Predicted vs simulated per-mode curves agree within 5% of each fixed point."""
    start = time.perf_counter()
    ds, spec = mnist_like_dataset
    assert ds.n == 1000
    sigma2, alpha, hidden = 0.5, 0.01, 32
    eps_eff = ds.n * sigma2
    tau = ds.n / alpha
    cfg = TrainingConfig(learning_rate=alpha, epochs=3500,
                         noise=NoiseModel.gaussian(sigma2), init="small_random",
                         init_scale=1e-3, seed=7, hidden_dim=hidden, record_every=10)
    run = run_linear_ae(ds, spec, cfg)
    measured = modes_from_linear_ae(run.init_model, spec, eps_eff, tau)
    for rank in (1, 4, 8, 16, 32):
        mode = measured[rank - 1]
        sim = run.trajectory(rank)
        predicted = dae_trajectory(mode, sim.times)
        wstar = dae_fixed_point(mode.lam, eps_eff)
        rms = np.sqrt(np.mean((sim.values - predicted) ** 2))
        assert rms <= 0.05 * wstar, f"mode {rank}: rms {rms:.4f} vs bound {0.05 * wstar:.4f}"
    assert time.perf_counter() - start < 120.0


@pytest.mark.skipif(not os.environ.get("DAEDYN_RUN_CIFAR"),
                    reason="optional CIFAR replication; set DAEDYN_RUN_CIFAR=1")
def test_criterion_07_cifar_optional(cifar_like_path):
    """Same protocol on a CIFAR-10 batch at N=500, H=64 (centered pixels)."""
    batch = load_cifar10(cifar_like_path, count_limit=500)
    # centering removes the dominant mean direction, whose curvature would
    # otherwise force an impractically small stable step at this dimension
    ds = data.preprocess(batch, center=True)
    spec = eigendecompose(covariance(ds))
    sigma2, alpha = 0.5, 0.05
    eps_eff = ds.n * sigma2
    tau = ds.n / alpha
    cfg = TrainingConfig(learning_rate=alpha, epochs=1500,
                         noise=NoiseModel.gaussian(sigma2), init="small_random",
                         init_scale=1e-3, seed=7, hidden_dim=64, record_every=10)
    run = run_linear_ae(ds, spec, cfg)
    measured = modes_from_linear_ae(run.init_model, spec, eps_eff, tau)
    for rank in (1, 4, 8, 16, 32):
        mode = measured[rank - 1]
        sim = run.trajectory(rank)
        predicted = dae_trajectory(mode, sim.times)
        wstar = dae_fixed_point(mode.lam, eps_eff)
        rms = np.sqrt(np.mean((sim.values - predicted) ** 2))
        assert rms <= 0.05 * wstar, f"mode {rank}: rms {rms:.4f} vs bound {0.05 * wstar:.4f}"


def test_criterion_08_weight_norm_phases():
    """Decay exploits loss invariance after convergence; small init removes the phase."""
    # phase separation needs a decay small relative to the 1e-3 value band
    gamma_eff = 2e-3
    wstar = wdae_fixed_point(1.0, gamma_eff)
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=200.0, w1_0=0.3, w2_0=2.0)
    run = run_scalar_gd(mode, 1.0, 80_000, 500, gamma_eff=gamma_eff)
    w = run.trajectory.values
    norms = run.w1 ** 2 + run.w2 ** 2
    outside = np.flatnonzero(np.abs(w - wstar) > 1e-3)
    assert outside.size and outside[-1] + 1 < w.size
    settle = int(outside[-1] + 1)
    assert np.max(np.abs(w[settle:] - wstar)) < 1e-3
    assert np.all(np.diff(norms[settle:]) < 0.0)
    assert (norms[settle] - norms[-1]) / norms[settle] >= 0.10

    # matched small-init runs: same fixed point, same minimum-norm endpoint
    eps = 0.1
    gamma_matched = equivalent_decay(1.0, eps)
    dae_run = run_scalar_gd(
        ScalarMode(lam=1.0, epsilon=eps, tau=200.0, w1_0=8e-4, w2_0=1.2e-3),
        1.0, 8000, 10)
    wdae_run = run_scalar_gd(
        ScalarMode(lam=1.0, epsilon=0.0, tau=200.0, w1_0=8e-4, w2_0=1.2e-3),
        1.0, 8000, 10, gamma_eff=gamma_matched)
    n_dae = dae_run.w1 ** 2 + dae_run.w2 ** 2
    n_wdae = wdae_run.w1 ** 2 + wdae_run.w2 ** 2
    assert abs(n_dae[-1] - n_wdae[-1]) <= 0.05 * n_dae[-1]
    tail = len(n_dae) // 10
    for series in (n_dae, n_wdae):
        assert (np.max(series[-tail:]) - series[-1]) <= 0.01 * np.max(series[-tail:])


def test_criterion_09_nonlinear_qualitative(mnist_like_paths):
    """ReLU triple: noise and decay both suppress plateaus; decay delays learning."""
    images, _ = mnist_like_paths
    batch = load_idx(images, count_limit=500)
    ds = data.preprocess(batch)
    spec = eigendecompose(covariance(ds))
    n = ds.n
    sigma2 = 3.0
    eps_eff = n * sigma2
    gamma = equivalent_decay(float(spec.eigenvalues[0]), eps_eff) / n
    base = dict(learning_rate=0.02, epochs=1200, init="small_random", init_scale=1e-3,
                seed=5, hidden_dim=48, record_every=10, loss_mode="sampled")
    runs = {
        "ae": TrainingConfig(noise=NoiseModel.none(), **base),
        "dae": TrainingConfig(noise=NoiseModel.gaussian(sigma2), **base),
        "wdae": TrainingConfig(noise=NoiseModel.none(), weight_decay=gamma, **base),
    }
    series = {}
    for name, cfg in runs.items():
        run = nonlinear.train_nonlinear(ds, spec, cfg, "relu")
        values = {r: run.trajectory(r, kind="estimated").values for r in (1, 2, 3, 4)}
        series[name] = (run.times, values)
    for rank in (1, 2, 3, 4):
        plateau = {name: float(np.mean(vals[rank][-8:])) for name, (_, vals) in series.items()}
        assert plateau["dae"] < plateau["ae"], f"mode {rank}: {plateau}"
        assert plateau["wdae"] < plateau["ae"], f"mode {rank}: {plateau}"
    rise = {}
    for name in ("dae", "wdae"):
        times, values = series[name]
        plateau = np.mean(values[1][-8:])
        rise[name] = first_crossing_time(times, values[1], 0.5 * plateau)
    assert rise["dae"] is not None and rise["wdae"] is not None
    assert rise["dae"] <= rise["wdae"]


def test_criterion_10_parsers(tmp_path):
    """Hand-crafted binary fixtures round-trip byte-exactly; malformed ones fail loudly."""
    # IDX round trip
    idx_payload = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([0, 255, 128, 64, 9, 8, 7, 6])
    idx_path = tmp_path / "imgs"
    idx_path.write_bytes(idx_payload)
    batch = load_idx(idx_path)
    assert np.array_equal(batch.pixels[0], [0.0, 1.0, 128 / 255, 64 / 255])
    out = tmp_path / "imgs_back"
    write_idx(batch, out)
    assert out.read_bytes() == idx_payload

    # CIFAR round trip
    cifar_payload = bytes([7]) + bytes([255] * 3072) + bytes([3]) + bytes(range(256)) * 12
    cifar_path = tmp_path / "batch.bin"
    cifar_path.write_bytes(cifar_payload)
    cbatch = load_cifar10(cifar_path)
    assert cbatch.labels.tolist() == [7, 3]
    cout = tmp_path / "batch_back.bin"
    write_cifar10(cbatch, cout)
    assert cout.read_bytes() == cifar_payload

    # malformed inputs raise the parse error class with positions
    label_file = tmp_path / "labels"
    label_file.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([1, 2]))
    with pytest.raises(ParseError):
        load_idx(label_file)
    truncated = tmp_path / "trunc"
    truncated.write_bytes(idx_payload[:-3])
    with pytest.raises(ParseError) as info:
        load_idx(truncated)
    assert info.value.offset is not None
    short_cifar = tmp_path / "short.bin"
    short_cifar.write_bytes(bytes(3072))
    with pytest.raises(ParseError):
        load_cifar10(short_cifar)
    bad_label = tmp_path / "bad.bin"
    bad_label.write_bytes(bytes([11]) + bytes(3072))
    with pytest.raises(ParseError):
        load_cifar10(bad_label)
