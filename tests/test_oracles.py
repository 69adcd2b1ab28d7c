"""Sanity checks for the test-side integrator before it judges anything else."""

import numpy as np

from oracles import integrate_adaptive_rk4, mode_flow, solve_at_times


def test_adaptive_rk4_exponential_decay():
    y = integrate_adaptive_rk4(lambda t, y: -y, 0.0, np.array([1.0]), 3.0, tol=1e-11)
    assert abs(y[0] - np.exp(-3.0)) < 1e-9


def test_adaptive_rk4_harmonic_oscillator():
    f = lambda t, y: np.array([y[1], -y[0]])
    y = integrate_adaptive_rk4(f, 0.0, np.array([0.0, 1.0]), 2.0 * np.pi, tol=1e-11)
    assert abs(y[0]) < 1e-8 and abs(y[1] - 1.0) < 1e-8


def test_solve_at_times_is_consistent_with_single_shot():
    f = mode_flow(1.0, 0.5, 0.0, 100.0)
    times = np.array([10.0, 50.0, 200.0])
    rows = solve_at_times(f, [0.1, 0.3], times, tol=1e-11)
    direct = integrate_adaptive_rk4(f, 0.0, np.array([0.1, 0.3]), 200.0, tol=1e-11)
    assert np.allclose(rows[-1], direct, atol=1e-8)


def test_flow_conserves_weight_difference():
    # the exact continuous flow keeps w2^2 - w1^2 constant
    f = mode_flow(1.3, 0.7, 0.0, 150.0)
    w1, w2 = 0.25, 0.6
    rows = solve_at_times(f, [w1, w2], np.linspace(5.0, 600.0, 12), tol=1e-12)
    drift = rows[:, 1] ** 2 - rows[:, 0] ** 2 - (w2 ** 2 - w1 ** 2)
    assert np.max(np.abs(drift)) < 1e-9
