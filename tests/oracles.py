"""Independent numeric oracles used by the test suite.

These deliberately avoid the package's closed-form code paths: trajectories
are checked against adaptive Runge-Kutta integration of the underlying flow,
gradients against central finite differences, the LAPACK-backed
eigendecomposition against cyclic Jacobi rotations, the eigenbasis
training of the marginalised linear autoencoder against plain pixel-space
descent, and the eigenbasis mode estimator against the dense pixel-space
cross-covariance.
"""

import math

import numpy as np


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_adaptive_rk4(f, t0, y0, t_end, tol=1e-10, h0=None):
    """Classic step-doubling RK4 with local error control; returns y(t_end)."""
    t = float(t0)
    y = np.asarray(y0, dtype=np.float64).copy()
    if t_end == t:
        return y
    h = h0 if h0 is not None else (t_end - t) / 100.0
    h = min(h, t_end - t)
    while t < t_end:
        h = min(h, t_end - t)
        full = rk4_step(f, t, y, h)
        half = rk4_step(f, t + 0.5 * h, rk4_step(f, t, y, 0.5 * h), 0.5 * h)
        err = np.max(np.abs(half - full)) / 15.0
        scale = tol * (1.0 + np.max(np.abs(half)))
        if err <= scale:
            t += h
            y = half
            if err < 0.1 * scale:
                h *= 2.0
        else:
            h *= 0.5
            if h < 1e-14 * max(1.0, abs(t_end)):
                raise RuntimeError("adaptive RK4 step size underflow")
    return y


def solve_at_times(f, y0, times, tol=1e-10):
    """Integrate sequentially through a sorted time grid; rows are states."""
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((times.size, np.size(y0)))
    t_prev = 0.0
    y = np.asarray(y0, dtype=np.float64).copy()
    for i, t in enumerate(times):
        if t < t_prev:
            raise ValueError("times must be sorted and >= 0")
        if t > t_prev:
            y = integrate_adaptive_rk4(f, t_prev, y, t, tol=tol)
            t_prev = t
        out[i] = y
    return out


def dae_flow(lam, eps, tau):
    """Right-hand side of the coupled noisy per-mode flow, y = (w1, w2)."""

    def f(_t, y):
        w1, w2 = y
        w = w2 * w1
        return np.array([
            (w2 * lam * (1.0 - w) - eps * w2 * w2 * w1) / tau,
            (w1 * lam * (1.0 - w) - eps * w1 * w1 * w2) / tau,
        ])

    return f


def wdae_flow(lam, gamma_eff, tau):
    """Right-hand side of the coupled weight-decayed per-mode flow."""

    def f(_t, y):
        w1, w2 = y
        w = w2 * w1
        return np.array([
            (w2 * lam * (1.0 - w) - gamma_eff * w1) / tau,
            (w1 * lam * (1.0 - w) - gamma_eff * w2) / tau,
        ])

    return f


def central_difference_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def jacobi_eigh(a, max_sweeps=60):
    """Cyclic Jacobi rotations; returns (eigenvalues, eigenvectors as columns), unsorted.

    Sweeps run in a fixed (p, q) order for determinism. Convergence when the
    largest off-diagonal magnitude drops below 1e-12 * ||S||_F.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), v
    tol = 1e-12 * np.linalg.norm(a, "fro")
    skip = 0.01 * tol
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError(f"jacobi did not converge within {max_sweeps} sweeps")
    return np.diag(a).copy(), v


def marginalized_descent_pixel_space(x, w1, w2, eps_eff, alpha, epochs, record_every, v,
                                     gamma=0.0):
    """Marginalised linear-autoencoder descent in pixel space, against the dense S = X^T X.

    Each epoch steps W <- W - alpha * grad on
    (1/2N) tr((I - W2 W1) S (I - W2 W1)^T) + (eps/2N) tr(W2 W1 W1^T W2^T)
    + (gamma/2) (||W1||^2 + ||W2||^2), at O(H D^2) per step. Records at epoch 0,
    every record_every epochs and the last epoch. Returns (epochs, rows of
    diag(V^T W2 W1 V), ||W1||^2 + ||W2||^2, final W1, final W2).
    """
    n = x.shape[0]
    s = x.T @ x
    s = 0.5 * (s + s.T)
    w1 = np.array(w1, dtype=np.float64)
    w2 = np.array(w2, dtype=np.float64)
    times, diags, norms = [], [], []

    def record(epoch):
        times.append(float(epoch))
        diags.append(np.diag(v.T @ w2 @ w1 @ v))
        norms.append(float(np.sum(w1 * w1) + np.sum(w2 * w2)))

    record(0)
    for epoch in range(1, epochs + 1):
        a = w1 @ s
        b = w2.T @ w2
        g1 = -(w2.T @ s - b @ a - eps_eff * (b @ w1)) / n + gamma * w1
        g2 = -(a.T - w2 @ (a @ w1.T) - eps_eff * (w2 @ (w1 @ w1.T))) / n + gamma * w2
        w1 -= alpha * g1
        w2 -= alpha * g2
        if epoch % record_every == 0 or epoch == epochs:
            record(epoch)
    return np.array(times), np.array(diags), np.array(norms), w1, w2


def cross_covariance_mode_ratios(x, w1, w2, phi, v, lams, floor_factor=1e-8):
    """Per-mode identity-map ratios from the dense pixel-space cross-covariance.

    Reconstructs the clean input X_hat = phi(X W1^T) W2^T, forms
    Sigma_hat = X^T X_hat (D x D), rotates it into the eigenbasis with a D^3
    product and divides its diagonal by the eigenvalues. Modes at or below
    floor_factor * lams[0] come out NaN. O(N D^2 + D^3) per call.
    """
    xhat = phi(x @ w1.T) @ w2.T
    sigma_hat = x.T @ xhat
    diag = np.sum(v * (sigma_hat @ v), axis=0)
    retained = lams > floor_factor * lams[0]
    ratios = np.full(lams.shape, np.nan)
    ratios[retained] = diag[retained] / lams[retained]
    return ratios
