"""Closed-form trajectories, fixed points, equivalence map and optimal rates."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_difference_grad,
    closed_form_whole_array,
    mode_flow,
    read_trajectory_csv,
    solve_at_times,
    wdae_trajectory_decay_only,
    write_csv_rows,
    write_trajectory_csv_rows,
)

from daedyn import analytic
from daedyn.analytic import (
    NoiseModel,
    ScalarMode,
    Trajectory,
    dae_fixed_point,
    dae_series,
    dae_trajectory,
    epsilon_from_noise,
    equivalent_decay,
    first_crossing_time,
    optimal_rates,
    scalar_loss_and_grad,
    wdae_fixed_point,
    wdae_trajectory,
    write_columns,
    write_trajectory_csv,
)
from daedyn.errors import DegenerateTrajectoryError, UnsupportedModeError


# --- effective noise -------------------------------------------------------

def test_epsilon_gaussian():
    assert epsilon_from_noise(NoiseModel.gaussian(0.5), 50_000) == 25_000.0


def test_epsilon_none():
    assert epsilon_from_noise(NoiseModel.none(), 123) == 0.0


def test_epsilon_laplace():
    assert epsilon_from_noise(NoiseModel.laplace(1.0), 10) == 20.0


def test_noise_model_rejects_negative_parameters():
    with pytest.raises(ValueError):
        NoiseModel.gaussian(-0.1)
    with pytest.raises(ValueError):
        NoiseModel.laplace(-1.0)
    with pytest.raises(ValueError):
        epsilon_from_noise(NoiseModel.none(), 0)


# --- scalar mode bookkeeping -----------------------------------------------

def test_scalar_mode_derived_quantities():
    mode = ScalarMode(lam=1.0, epsilon=0.5, tau=100.0, w1_0=0.3, w2_0=0.5)
    assert mode.c0 == pytest.approx(0.16, abs=1e-15)
    assert mode.theta0 == pytest.approx(math.asinh(2 * 0.15 / 0.16), abs=1e-15)


def test_scalar_mode_from_product_round_trip():
    mode = ScalarMode.from_product(1.0, 0.0, 50.0, c0=0.2, w0=-0.07)
    assert mode.w2_0 * mode.w1_0 == pytest.approx(-0.07, abs=1e-15)
    assert abs(mode.w2_0 ** 2 - mode.w1_0 ** 2) == pytest.approx(0.2, rel=1e-12)


def test_scalar_mode_validation():
    with pytest.raises(ValueError):
        ScalarMode(lam=-1.0, epsilon=0.0, tau=1.0, w1_0=0.0, w2_0=0.0)
    with pytest.raises(ValueError):
        ScalarMode(lam=1.0, epsilon=0.0, tau=0.0, w1_0=0.0, w2_0=0.0)
    with pytest.raises(ValueError, match="decay"):
        ScalarMode(lam=1.0, epsilon=0.0, tau=1.0, w1_0=0.1, w2_0=0.1, gamma_eff=-0.1)


# --- DAE closed form --------------------------------------------------------

def test_dae_trajectory_starts_at_initial_product():
    mode = ScalarMode(lam=1.0, epsilon=0.3, tau=100.0, w1_0=0.3, w2_0=0.5)
    assert dae_trajectory(mode, 0.0) == pytest.approx(0.15, abs=1e-12)


def test_dae_trajectory_plateaus_at_half_for_unit_noise():
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=100.0, w1_0=0.2, w2_0=0.4)
    assert dae_trajectory(mode, 1e5) == pytest.approx(0.5, abs=1e-9)


def test_dae_trajectory_plateaus_at_one_sixth_for_heavy_noise():
    mode = ScalarMode(lam=1.0, epsilon=5.0, tau=100.0, w1_0=0.2, w2_0=0.4)
    assert dae_trajectory(mode, 1e5) == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_dae_trajectory_beyond_overflow_horizon_is_exact_fixed_point():
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=10.0, w1_0=0.2, w2_0=0.4)
    assert dae_trajectory(mode, 1e9) == 0.5


def test_dae_trajectory_matches_rk4_oracle_reference_case():
    lam, eps, tau = 1.0, 0.3, 100.0
    mode = ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=0.3, w2_0=0.5)
    sol = solve_at_times(mode_flow(lam, eps, 0.0, tau), [0.3, 0.5], [50.0], tol=1e-12)
    oracle = sol[0, 0] * sol[0, 1]
    assert dae_trajectory(mode, 50.0) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("w1_0,w2_0", [(0.2, 0.6), (0.6, 0.2), (-0.5, 0.25), (0.4, -0.15)])
def test_dae_trajectory_matches_rk4_on_both_branches(w1_0, w2_0):
    # covers w2^2 > w1^2 and w1^2 > w2^2, and negative initial products
    lam, eps, tau = 1.4, 0.8, 120.0
    mode = ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=w1_0, w2_0=w2_0)
    times = np.linspace(5.0, 500.0, 15)
    sol = solve_at_times(mode_flow(lam, eps, 0.0, tau), [w1_0, w2_0], times, tol=1e-12)
    oracle = sol[:, 0] * sol[:, 1]
    assert np.allclose(dae_trajectory(mode, times), oracle, rtol=1e-6, atol=1e-9)


def test_dae_trajectory_rejects_zero_eigenvalue():
    mode = ScalarMode(lam=0.0, epsilon=1.0, tau=10.0, w1_0=0.1, w2_0=0.3)
    with pytest.raises(UnsupportedModeError, match="fallback"):
        dae_trajectory(mode, 1.0)


def test_dae_trajectory_rejects_an_overflowing_rate_before_numpy_sees_it():
    # inf * 0.0 at t = 0 would be NaN with a RuntimeWarning, which the suite makes an error
    mode = ScalarMode(lam=1.7e308, epsilon=1.0, tau=10.0, w1_0=0.1, w2_0=0.3)
    with pytest.raises(OverflowError, match="overflows"):
        dae_trajectory(mode, np.array([0.0, 1.0]))


@pytest.mark.parametrize("w1_0,w2_0", [(0.1, 0.1), (-0.1, -0.1), (0.1, 0.1 + 1e-12)],
                         ids=["equal", "equal-negative", "c0-below-floor"])
def test_dae_trajectory_falls_back_to_the_equal_weights_form(w1_0, w2_0):
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=10.0, w1_0=w1_0, w2_0=w2_0)
    assert mode.c0 <= analytic.C0_MIN and mode.w0 > 0.0
    times = np.linspace(0.0, 200.0, 41)
    assert np.array_equal(dae_trajectory(mode, times),
                          wdae_trajectory(1.0, 0.0, 10.0, mode.w0, times, 1.0))
    assert dae_trajectory(mode, 50.0) == wdae_trajectory(1.0, 0.0, 10.0, mode.w0, 50.0, 1.0)


@pytest.mark.parametrize("w1_0,w2_0", [(0.1, -0.1), (0.0, 0.0)], ids=["opposite", "zero"])
def test_dae_trajectory_rejects_an_equal_weights_start_without_a_positive_product(w1_0, w2_0):
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=10.0, w1_0=w1_0, w2_0=w2_0)
    assert mode.c0 <= analytic.C0_MIN and mode.w0 <= 0.0
    with pytest.raises(DegenerateTrajectoryError, match="positive initial product"):
        dae_trajectory(mode, 1.0)


@pytest.mark.parametrize("lam,eps,gamma_eff,w1_0,w2_0,form", [
    (1.0, 1.0, 0.0, 0.1, 0.3, "hyperbolic"),
    (1.0, 0.0, 0.0, 0.3, 0.1, "hyperbolic"),
    (1.0, 1.0, 0.0, 0.1, 0.1, "balanced"),
    (1.0, 0.0, 0.3, 0.1, 0.1, "balanced"),
    (1.0, 1.0, 0.3, 0.1, 0.1, "balanced"),
    (1.0, 0.0, 0.3, 0.1, 0.3, DegenerateTrajectoryError),
    (1.0, 1.0, 0.3, 0.3, 0.1, DegenerateTrajectoryError),
    (0.0, 1.0, 0.3, 0.1, 0.1, UnsupportedModeError),
    (1.0, 1.0, 0.3, 0.1, -0.1, DegenerateTrajectoryError),
    (1.0, 1.0, 0.0, 0.0, 0.0, DegenerateTrajectoryError),
], ids=["noise-unequal", "clean-unequal", "noise-balanced", "decay-balanced",
        "noise-and-decay-balanced", "decay-unequal", "noise-and-decay-unequal",
        "zero-eigenvalue", "balanced-negative-product", "balanced-zero-product"])
def test_dae_trajectory_is_the_one_rule_for_a_modes_closed_form(lam, eps, gamma_eff, w1_0, w2_0,
                                                                 form):
    mode = ScalarMode(lam=lam, epsilon=eps, tau=10.0, w1_0=w1_0, w2_0=w2_0, gamma_eff=gamma_eff)
    times = np.linspace(0.0, 200.0, 41)
    if not isinstance(form, str):
        match = ("lambda > 0" if form is UnsupportedModeError
                 else "unequal initial weights" if mode.c0 > analytic.C0_MIN
                 else "positive initial product")
        with pytest.raises(form, match=match):
            dae_trajectory(mode, times)
        return
    values = dae_trajectory(mode, times)
    balanced = wdae_trajectory(lam, gamma_eff, 10.0, mode.w0, times, eps)
    assert np.array_equal(values, balanced) is (form == "balanced")
    # whichever form the rule picks is the exact solution of the mode's own start
    sol = solve_at_times(mode_flow(lam, eps, gamma_eff, 10.0), [w1_0, w2_0], times, tol=1e-12)
    assert np.allclose(values, sol[:, 0] * sol[:, 1], rtol=1e-6, atol=1e-9)
    kind = "analytic_wdae" if gamma_eff > 0.0 else "analytic_dae"
    assert dae_series(mode, times).kind == kind


def test_dae_trajectory_seam_at_c0_min_stays_within_its_measured_digit_loss():
    # just above C0_MIN the hyperbolic form loses digits against the balanced limit it
    # approaches (2.4e-7 at most here); this pins that gap so it cannot widen unseen
    times = np.linspace(0.0, 5000.0, 5001)
    for (lam, eps), w0 in itertools.product([(2.5, 0.5), (1.0, 1.0), (0.5, 2.0)],
                                            [1e-3, 1e-6]):
        mode = ScalarMode.from_product(lam, eps, 100.0, c0=analytic.C0_MIN * (1 + 1e-7), w0=w0)
        assert mode.c0 > analytic.C0_MIN
        gap = np.abs(dae_trajectory(mode, times)
                     - wdae_trajectory(lam, 0.0, 100.0, mode.w0, times, eps))
        assert gap.max() <= 5e-7, (lam, eps, w0, gap.max())


def test_dae_trajectory_rejects_negative_epochs():
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=10.0, w1_0=0.1, w2_0=0.3)
    with pytest.raises(ValueError):
        dae_trajectory(mode, -1.0)


@pytest.mark.parametrize("t", [[0.0, np.nan, -1.0], [[1.0], [-0.5]]], ids=["beside-a-nan", "2-d"])
def test_closed_forms_reject_a_negative_epoch_anywhere_in_an_array(t):
    mode = ScalarMode(lam=1.0, epsilon=0.0, tau=10.0, w1_0=0.1, w2_0=0.3)
    with pytest.raises(ValueError, match="epochs"):
        dae_trajectory(mode, t)
    with pytest.raises(ValueError, match="epochs"):
        wdae_trajectory(1.0, 0.0, 10.0, 1e-3, t)


def test_dae_trajectory_satisfies_its_flow_equation():
    # central-difference the analytic curve and compare with the vector field,
    # reconstructing w1^2 + w2^2 = sqrt(c0^2 + 4 w^2) from the parametrization
    mode = ScalarMode(lam=1.0, epsilon=0.5, tau=150.0, w1_0=0.1, w2_0=0.4)
    times = np.linspace(1.0, 900.0, 60)
    h = 1e-3
    w = dae_trajectory(mode, times)
    dw = (dae_trajectory(mode, times + h) - dae_trajectory(mode, times - h)) / (2 * h)
    lhs = mode.tau * dw
    rhs = (mode.lam - w * (mode.lam + mode.epsilon)) * np.sqrt(mode.c0 ** 2 + 4.0 * w ** 2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-4 * np.max(np.abs(rhs))


def test_dae_trajectory_monotone_rise_below_fixed_point():
    mode = ScalarMode.from_product(1.0, 1.0, 100.0, c0=1e-4, w0=1e-3)
    values = dae_trajectory(mode, np.linspace(0.0, 2000.0, 400))
    assert np.all(np.diff(values) > -1e-12)
    assert values[-1] == pytest.approx(0.5, abs=1e-6)


# --- WDAE closed form -------------------------------------------------------

def test_wdae_trajectory_starts_at_w0():
    assert wdae_trajectory(1.0, 0.3, 100.0, 1e-3, 0.0) == 1e-3


def test_wdae_trajectory_unregularized_plateaus_at_one():
    assert wdae_trajectory(1.0, 0.0, 100.0, 1e-3, 1e5) == pytest.approx(1.0, abs=1e-12)


def test_wdae_trajectory_matches_rk4_oracle_reference_case():
    lam, g, tau, w0 = 1.0, 0.5, 200.0, 1e-3
    s = math.sqrt(w0)
    sol = solve_at_times(mode_flow(lam, 0.0, g, tau), [s, s], [400.0], tol=1e-12)
    oracle = sol[0, 0] * sol[0, 1]
    assert wdae_trajectory(lam, g, tau, w0, 400.0) == pytest.approx(oracle, rel=1e-6)


def test_wdae_trajectory_overdecayed_branch_decays_to_zero():
    lam, g, tau, w0 = 1.0, 2.0, 100.0, 0.05
    times = np.linspace(0.0, 2000.0, 50)
    values = wdae_trajectory(lam, g, tau, w0, times)
    assert np.all(np.diff(values) <= 1e-15)
    assert values[-1] == pytest.approx(0.0, abs=1e-8)
    s = math.sqrt(w0)
    sol = solve_at_times(mode_flow(lam, 0.0, g, tau), [s, s], times[1:], tol=1e-12)
    assert np.allclose(values[1:], sol[:, 0] * sol[:, 1], rtol=1e-6, atol=1e-9)


def test_wdae_trajectory_critical_decay_algebraic_branch():
    lam = 1.5
    g = lam  # xi = 0 exactly
    tau, w0 = 120.0, 0.02
    times = np.linspace(0.0, 800.0, 30)
    values = wdae_trajectory(lam, g, tau, w0, times)
    s = math.sqrt(w0)
    sol = solve_at_times(mode_flow(lam, 0.0, g, tau), [s, s], times[1:], tol=1e-12)
    assert np.allclose(values[1:], sol[:, 0] * sol[:, 1], rtol=1e-6, atol=1e-12)


def test_wdae_trajectory_without_noise_is_the_decay_only_form_bit_for_bit():
    times = np.arange(16_001, dtype=np.float64)
    for lam, tau, w0 in itertools.product((0.05, 0.5, 1.0, 2.5, 7.0), (10.0, 200.0),
                                          (1e-3, 0.3)):
        for gamma_eff in (0.3 * lam, lam, 1.7 * lam):   # xi > 0, xi = 0, xi < 0
            reference = wdae_trajectory_decay_only(lam, gamma_eff, tau, w0, times)
            for values in (wdae_trajectory(lam, gamma_eff, tau, w0, times),
                           wdae_trajectory(lam, gamma_eff, tau, w0, times, 0.0)):
                assert values.tobytes() == reference.tobytes(), (lam, gamma_eff, tau, w0)


def test_wdae_trajectory_with_noise_solves_the_balanced_logistic():
    # dw/dt = (2 w / tau)(lam - gamma - (lam + eps) w), central-differenced on every branch
    tau, w0, h = 150.0, 2e-3, 1e-3
    times = np.linspace(1.0, 900.0, 60)
    for lam, gamma_eff, eps in ((1.0, 0.3, 0.5), (1.0, 1.0, 0.5), (1.0, 1.6, 0.5)):
        w = wdae_trajectory(lam, gamma_eff, tau, w0, times, eps)
        dw = (wdae_trajectory(lam, gamma_eff, tau, w0, times + h, eps)
              - wdae_trajectory(lam, gamma_eff, tau, w0, times - h, eps)) / (2 * h)
        rhs = 2.0 * w / tau * (lam - gamma_eff - (lam + eps) * w)
        assert np.max(np.abs(dw - rhs)) <= 1e-6 * np.max(np.abs(rhs)), (gamma_eff, eps)
    plateau = wdae_trajectory(2.0, 0.5, tau, w0, 1e6, 1.0)
    assert plateau == pytest.approx((1.0 - 0.5 / 2.0) * 2.0 / 3.0, rel=1e-12)


def test_wdae_trajectory_rejects_an_overflowing_rate_before_numpy_sees_it():
    for gamma_eff in (0.0, 1.7e308):   # xi = 1 and xi = 0
        with pytest.raises(OverflowError, match="overflows"):
            wdae_trajectory(1.7e308, gamma_eff, 10.0, 1e-2, np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="noise"):
        wdae_trajectory(1.0, 0.1, 100.0, 1e-3, 1.0, -0.5)


def test_wdae_trajectory_rejects_nonpositive_w0():
    with pytest.raises(ValueError, match="divides"):
        wdae_trajectory(1.0, 0.1, 100.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        wdae_trajectory(1.0, -0.1, 100.0, 1e-3, 1.0)
    with pytest.raises(UnsupportedModeError):
        wdae_trajectory(0.0, 0.1, 100.0, 1e-3, 1.0)


# --- blocked evaluation -----------------------------------------------------

# one mode per branch: (lam, eps, gamma_eff, w1_0, w2_0); the last epoch, 20 000, is past the
# saturation horizon of the hyperbolic mode (zeta lam t / tau > OVERFLOW_ARG from t ~ 17 500)
CLOSED_FORM_BRANCHES = {
    "hyperbolic": (2.0, 0.5, 0.0, 0.01, 0.03),
    "xi-positive": (2.0, 0.3, 0.5, 0.03, 0.03),
    "xi-negative": (2.0, 0.3, 3.0, 0.03, 0.03),
    "xi-zero": (2.0, 0.3, 2.0, 0.03, 0.03),
}


@pytest.mark.parametrize("branch", CLOSED_FORM_BRANCHES)
def test_closed_forms_in_blocks_give_the_whole_array_bits(branch):
    lam, eps, gamma_eff, w1_0, w2_0 = CLOSED_FORM_BRANCHES[branch]
    mode = ScalarMode(lam=lam, epsilon=eps, tau=100.0, w1_0=w1_0, w2_0=w2_0, gamma_eff=gamma_eff)
    assert (mode.c0 <= analytic.C0_MIN) == (branch != "hyperbolic")
    # three whole blocks and a ragged one; a 2-d grid keeps its shape
    times = np.linspace(0.0, 20_000.0, 3 * analytic.CLOSED_FORM_BLOCK + 5)
    for t in (times, times.reshape(-1, 1)):
        got, want = dae_trajectory(mode, t), closed_form_whole_array(mode, t)
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), branch
    if branch == "hyperbolic":      # both sides of the saturation horizon are on the grid
        arg = math.sqrt((mode.c0 * (1.0 + eps / lam)) ** 2 + 4.0) * lam * times / mode.tau
        assert (arg > analytic.OVERFLOW_ARG).any() and (arg <= analytic.OVERFLOW_ARG).any()
    else:
        got = wdae_trajectory(lam, gamma_eff, mode.tau, mode.w0, times, eps)
        assert np.array_equal(got.view(np.int64), dae_trajectory(mode, times).view(np.int64))
    for t in (0.0, 1234.5, 20_000.0):   # a scalar epoch gives a float, as ever
        got = dae_trajectory(mode, t)
        assert type(got) is float and got == closed_form_whole_array(mode, t)


@pytest.mark.parametrize("branch", CLOSED_FORM_BRANCHES)
def test_closed_forms_hold_their_output_and_a_few_blocks(branch):
    lam, eps, gamma_eff, w1_0, w2_0 = CLOSED_FORM_BRANCHES[branch]
    mode = ScalarMode(lam=lam, epsilon=eps, tau=100.0, w1_0=w1_0, w2_0=w2_0, gamma_eff=gamma_eff)
    times = np.linspace(0.0, 20_000.0, 200_001)
    tracemalloc.start()
    try:
        values = dae_trajectory(mode, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # whole-array temporaries held 2 to 7 more arrays the size of the output
    assert peak <= values.nbytes + 16 * analytic.CLOSED_FORM_BLOCK * 8, (branch, peak)


# --- fixed points and equivalence -------------------------------------------

def test_dae_fixed_points():
    assert dae_fixed_point(1.0, 0.0) == 1.0
    assert dae_fixed_point(1.0, 1.0) == 0.5
    assert dae_fixed_point(2.5, 5.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_dae_fixed_point_undefined_at_origin():
    with pytest.raises(UnsupportedModeError):
        dae_fixed_point(0.0, 0.0)


def test_wdae_fixed_points():
    assert wdae_fixed_point(1.0, 0.0) == 1.0
    assert wdae_fixed_point(1.0, 0.091) == pytest.approx(0.909, abs=1e-12)
    assert wdae_fixed_point(1.0, 2.0) == 0.0


def test_wdae_overdecay_clamps_to_simulated_zero_attractor():
    # the clamped analytic value matches where the flow actually settles
    sol = solve_at_times(mode_flow(1.0, 0.0, 2.0, 50.0), [0.1, 0.1], [4000.0], tol=1e-12)
    assert abs(sol[0, 0] * sol[0, 1]) < 1e-12
    assert wdae_fixed_point(1.0, 2.0) == 0.0


def test_equivalent_decay_values():
    assert equivalent_decay(1.0, 0.1) == pytest.approx(0.1 / 1.1, abs=1e-15)
    assert equivalent_decay(1.0, 0.0) == 0.0
    assert equivalent_decay(2.0, 2.0) == 1.0
    assert dae_fixed_point(2.0, 2.0) == wdae_fixed_point(2.0, 1.0) == 0.5


def test_equivalence_identity_on_grid():
    for lam in (0.3, 0.5, 1.0, 2.5, 7.0):
        for eps in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0):
            gamma = equivalent_decay(lam, eps)
            assert abs(wdae_fixed_point(lam, gamma) - dae_fixed_point(lam, eps)) <= 1e-12


def test_optimal_rates_reference_values():
    a_eps, a_gamma, ratio = optimal_rates(1.0, 0.0, 0.0, 100.0)
    assert a_eps == a_gamma == 50.0 and ratio == 1.0
    _, _, ratio = optimal_rates(1.0, 1.0, equivalent_decay(1.0, 1.0), 100.0)
    assert ratio == pytest.approx(0.5, abs=1e-12)


def test_optimal_rate_ratio_consistency():
    a_eps, a_gamma, ratio = optimal_rates(2.0, 0.7, 0.3, 250.0)
    assert ratio == pytest.approx(a_eps / a_gamma, abs=1e-12)
    assert ratio == pytest.approx((2 * 2.0 + 0.3) / (2 * 2.0 + 3 * 0.7), abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
def test_optimal_rate_ratio_monotone_decreasing_in_noise(lam):
    grid = np.linspace(0.0, 10.0, 41)
    ratios = [optimal_rates(lam, e, equivalent_decay(lam, e), 100.0)[2] for e in grid]
    assert ratios[0] == 1.0
    assert np.all(np.diff(ratios) < 0.0)
    assert all(0.0 < r <= 1.0 for r in ratios)


# --- scalar loss -------------------------------------------------------------

def test_scalar_loss_saddle_at_origin():
    loss, g1, g2 = scalar_loss_and_grad(0.0, 0.0, 2.0, 1.0, 10.0)
    assert loss == 2.0 / 20.0
    assert g1 == 0.0 and g2 == 0.0


def test_scalar_loss_zero_gradient_on_minimum_manifold():
    lam, eps = 1.0, 0.5
    w = lam / (lam + eps)
    s = math.sqrt(w)
    _, g1, g2 = scalar_loss_and_grad(s, s, lam, eps, 10.0)
    assert abs(g1) <= 1e-15 and abs(g2) <= 1e-15


def test_scalar_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(5):
        w1, w2 = rng.uniform(-1.0, 1.0, size=2)
        lam, eps, tau = rng.uniform(0.2, 3.0), rng.uniform(0.0, 3.0), rng.uniform(5.0, 50.0)
        _, g1, g2 = scalar_loss_and_grad(w1, w2, lam, eps, tau)
        num = central_difference_grad(
            lambda x: scalar_loss_and_grad(x[0], x[1], lam, eps, tau)[0],
            np.array([w1, w2]))
        scale = max(1e-8, abs(num[0]), abs(num[1]))
        assert abs(g1 - num[0]) <= 1e-6 * scale
        assert abs(g2 - num[1]) <= 1e-6 * scale


# --- cross-solution properties ----------------------------------------------

def test_noise_reaches_half_plateau_no_later_than_decay():
    # matched fixed points, identical tau and starting product
    tau, w0, ratio = 200.0, 1e-3, 1.5
    w1_0 = math.sqrt(w0 / ratio)
    w2_0 = math.sqrt(w0 * ratio)
    times = np.linspace(0.0, 30000.0, 6001)
    for lam in (0.5, 1.0, 2.5):
        for eps in (0.5, 1.0, 2.0):
            gamma = equivalent_decay(lam, eps)
            target = 0.5 * dae_fixed_point(lam, eps)
            mode = ScalarMode(lam=lam, epsilon=eps, tau=tau, w1_0=w1_0, w2_0=w2_0)
            t_dae = first_crossing_time(times, dae_trajectory(mode, times), target)
            t_wdae = first_crossing_time(times, wdae_trajectory(lam, gamma, tau, w0, times), target)
            assert t_dae is not None and t_wdae is not None
            assert t_dae <= t_wdae


def test_flow_conserves_quantity_hit_by_closed_form():
    # the conserved |w2^2 - w1^2| used by the parametrization is constant
    # along the exact flow that the closed form solves
    lam, eps, tau = 1.0, 0.7, 80.0
    w1_0, w2_0 = 0.15, 0.45
    rows = solve_at_times(mode_flow(lam, eps, 0.0, tau), [w1_0, w2_0],
                          np.linspace(10.0, 800.0, 9), tol=1e-12)
    c = rows[:, 1] ** 2 - rows[:, 0] ** 2
    assert np.max(np.abs(c - (w2_0 ** 2 - w1_0 ** 2))) <= 1e-9


# --- trajectory container and CSV -------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]),
                   kind="simulated", mode_index=1)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]),
                   kind="simulated", mode_index=1)
    with pytest.raises(ValueError, match="kind"):
        Trajectory(times=np.array([0.0]), values=np.array([1.0]),
                   kind="mystery", mode_index=1)


def test_trajectory_csv_round_trip(tmp_path):
    mode = ScalarMode(lam=1.0, epsilon=1.0, tau=100.0, w1_0=0.1, w2_0=0.3)
    times = np.linspace(0.0, 500.0, 26)
    t1 = analytic.dae_series(mode, times, mode_index=1)
    t2 = analytic.wdae_series(1.0, 0.5, 100.0, 0.03, times, mode_index=2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, [t1, t2])
    header = path.read_text().splitlines()[0]
    assert header == "epoch,mode,kind,value"
    back = {(t.mode_index, t.kind): t for t in read_trajectory_csv(path)}
    assert np.array_equal(back[(1, "analytic_dae")].values, t1.values)
    assert np.array_equal(back[(2, "analytic_wdae")].values, t2.values)


def test_trajectory_csv_matches_the_row_writer_across_blocks(tmp_path):
    block = analytic.CSV_BLOCK_ROWS
    special = [5e-324, -0.0, 1e-05, 1e16, 0.1 + 0.2]
    rng = np.random.default_rng(3)
    # distinct values in every row, so a dropped or repeated row changes the bytes
    long_values = rng.standard_normal(2 * block + 7)
    long_values[[0, block - 1, block, 2 * block, -1]] = special
    grid = np.arange(2 * block + 7, dtype=np.float64) * 0.1
    trajectories = [
        Trajectory(times=grid, values=long_values, kind="simulated", mode_index=1),
        Trajectory(times=grid[:block], values=rng.standard_normal(block),
                   kind="analytic_dae", mode_index=2),
        Trajectory(times=np.array([-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16]),
                   values=np.array(special), kind="simulated", mode_index=-1),
        Trajectory(times=grid[:1], values=np.array([0.5]), kind="estimated", mode_index=3),
    ]
    path, reference = tmp_path / "blocks.csv", tmp_path / "rows.csv"
    write_trajectory_csv(path, trajectories)
    write_trajectory_csv_rows(reference, trajectories)
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_bytes().count(b"\r\n") == 1 + sum(t.times.size for t in trajectories)
    assert b"\r\n-0.0,-1,simulated,5e-324\r\n5e-324,-1,simulated,-0.0\r\n" in path.read_bytes()


def test_trajectory_csv_formats_each_bit_pattern_and_epoch_grid_like_the_row_writer(tmp_path):
    block = analytic.CSV_BLOCK_ROWS
    grid = np.arange(2 * block + 5, dtype=np.float64)
    # one plateau value across both block boundaries, signed zeros and extremes among it
    values = np.full(grid.size, 1.0 / 3.0)
    values[:4] = [0.0, -0.0, 5e-324, 1e16]
    values[[block - 1, block + 1, -1]] = [-0.0, 0.0, -0.0]
    trajectories = [
        Trajectory(times=grid, values=values, kind="analytic_dae", mode_index=1),
        Trajectory(times=grid, values=values[::-1], kind="analytic_wdae", mode_index=1),
        Trajectory(times=grid + 0.5, values=values, kind="simulated", mode_index=2),
        # equal by value to the next grid, but its -0.0 is written as such
        Trajectory(times=np.array([-0.0, 5e-324, 1e16]), values=np.array([0.0, -0.0, 0.0]),
                   kind="simulated", mode_index=-1),
        Trajectory(times=np.array([0.0, 5e-324, 1e16]), values=np.array([-0.0, 0.0, 1e16]),
                   kind="estimated", mode_index=3),
        Trajectory(times=grid, values=values, kind="estimated", mode_index=4),
    ]
    path, reference = tmp_path / "memo.csv", tmp_path / "rows.csv"
    write_trajectory_csv(path, trajectories)
    write_trajectory_csv_rows(reference, trajectories)
    assert path.read_bytes() == reference.read_bytes()
    assert b"\r\n-0.0,-1,simulated,0.0\r\n5e-324,-1,simulated,-0.0\r\n" in path.read_bytes()
    assert b"\r\n0.0,3,estimated,-0.0\r\n" in path.read_bytes()


def _column_rows(columns):
    """Rows of Python scalars for the row writer: NaN as None, which it leaves empty."""
    columns = [itertools.repeat(c) if isinstance(c, str) else np.asarray(c).tolist()
               for c in columns]
    return [[None if isinstance(x, float) and math.isnan(x) else x for x in row]
            for row in zip(*columns)]


def test_write_columns_matches_the_row_writer_across_blocks(tmp_path):
    # an int64 first column over three blocks; NaN, signed zeros and extremes among the floats
    rows = 2 * analytic.CSV_BLOCK_ROWS + 7
    index = np.arange(1, rows + 1, dtype=np.int64)
    values = np.full(rows, 1.0 / 3.0)
    values[:8] = [-0.0, 5e-324, 1e16, 0.1 + 0.2, math.nan, 0.0, 1e-05, 6.02214076e23]
    values[[analytic.CSV_BLOCK_ROWS, -1]] = [math.nan, -2.5e-300]
    columns = [index, "analytic_dae", values, values[::-1].copy(), -index]
    path, reference = tmp_path / "new" / "dir" / "table.csv", tmp_path / "rows.csv"
    write_columns(path, ["index", "kind", "a", "b", "c"], [columns])
    write_csv_rows(reference, ["index", "kind", "a", "b", "c"], _column_rows(columns))
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_bytes().startswith(b"index,kind,a,b,c\r\n1,analytic_dae,-0.0,-2.5e-300,-1\r\n")
    assert b"\r\n5,analytic_dae,,0.3333333333333333,-5\r\n" in path.read_bytes()


def test_write_columns_encoding(tmp_path):
    # no header row for None; NaN is an empty field; an int32 column is written as ints
    path = tmp_path / "table.csv"
    write_columns(path, None, [[np.array([1, -2], dtype=np.int32),
                                np.array([5e-324, math.nan]), np.array([1e16, 0.1 + 0.2])]])
    assert path.read_bytes() == b"1,5e-324,1e+16\r\n-2,,0.30000000000000004\r\n"


def test_write_columns_keeps_an_int_grid_apart_from_a_float_one(tmp_path):
    # int64 0, 1 and float64 0.0, 5e-324 share their bits; each table's grid keeps its own texts
    path = tmp_path / "grids.csv"
    half = np.array([0.5, 0.5])
    tables = [[np.array([0, 1]), half], [np.array([0.0, 5e-324]), half],
              [np.array([0, 1]), np.array([-0.0, 0.0])]]
    write_columns(path, ["t", "v"], tables)
    reference = tmp_path / "rows.csv"
    write_csv_rows(reference, ["t", "v"], [row for table in tables for row in _column_rows(table)])
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_bytes() == (b"t,v\r\n0,0.5\r\n1,0.5\r\n0.0,0.5\r\n5e-324,0.5\r\n"
                                 b"0,-0.0\r\n1,0.0\r\n")


def test_first_crossing_time():
    assert first_crossing_time([0, 1, 2], [0.1, 0.5, 0.9], 0.5) == 1.0
    assert first_crossing_time([0, 1, 2], [0.1, 0.2, 0.3], 0.5) is None
