"""Independent numeric oracles used by the test suite.

These deliberately avoid the package's closed-form code paths: trajectories
are checked against adaptive Runge-Kutta integration of the underlying flow
(one per-mode flow with noise and decay) and, at zero noise, the
equal-weights form against its decay-only three-branch formula bit for bit;
every closed form, evaluated in blocks of epochs, against the same formulas
over the whole epoch array, and the eigendecomposition of an exactly
symmetric S, which eigh gets as it is, against eigh of (S + S^T) / 2, bit
for bit;
gradients against central finite differences, the LAPACK-backed
eigendecomposition against cyclic Jacobi rotations, and the eigenbasis mode
estimator against the dense pixel-space cross-covariance. The pixel-space
form of the noise-marginalised objective, against the dense S = X^T X, lives
only here: it is the reference for the eigenbasis loss and gradients the
package trains on, and plain pixel-space descent on it is the reference for
the eigenbasis training of the marginalised linear autoencoder. Plain
pixel-space descent on the Gram-form backprop step over all D columns is the
reference for the noise-free backprop legs, which train in the eigenbasis on
the data's range. The
explicit-residual backprop is the reference for the Gram-form backprop step,
and, on the full corruption rebuilt from a low-rank gaussian draw, for the
sampled step that drew it; the Monte Carlo sampled loss is the reference for
the noise-marginalised loss, and the projected diagonal reads per-mode values
off a pair of pixel-space weights.
The row-at-a-time csv.writer formatters are the references for the block
writer that emits every CSV, and the CSV readers turn the files the CLI
writes back into arrays. The IDX and CIFAR-10 byte writers are the parsers'
references: each turns a parsed batch back into the file bytes it came from,
and the fixtures write their datasets with them.
"""

import csv
import math
import struct
from pathlib import Path

import numpy as np

from daedyn import simulate
from daedyn.analytic import (C0_MIN, OVERFLOW_ARG, ScalarMode, Trajectory,
                             scalar_loss_and_grad)
from daedyn.spectrum import CLAMP_TOL, Dataset, rotate_weights


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


def mode_flow(lam, eps, gamma_eff, tau):
    """Right-hand side of the coupled per-mode flow, y = (w1, w2), with effective
    noise eps and effective decay gamma_eff; either may be 0."""

    def f(_t, y):
        w1, w2 = y
        w = w2 * w1
        return np.array([
            (w2 * lam * (1.0 - w) - eps * w2 * w2 * w1 - gamma_eff * w1) / tau,
            (w1 * lam * (1.0 - w) - eps * w1 * w1 * w2 - gamma_eff * w2) / tau,
        ])

    return f


def wdae_trajectory_decay_only(lam, gamma_eff, tau, w0, t):
    """The decay-only equal-weights closed form as three branches in xi = 1 - gamma_eff / lam,
    w(t) = xi E / (E - 1 + xi / w0) with E = exp(2 xi lam t / tau): the reference that the
    noise-aware form must reproduce bit for bit at eps = 0."""
    t_arr = np.asarray(t, dtype=np.float64)
    xi = 1.0 - gamma_eff / lam
    if xi > 0.0:
        u = np.exp(-2.0 * xi * lam * t_arr / tau)
        w = xi / (1.0 - u + u * (xi / w0))
    elif xi < 0.0:
        e = np.exp(2.0 * xi * lam * t_arr / tau)
        w = xi * e / (e - 1.0 + xi / w0)
    else:
        w = w0 / (1.0 + 2.0 * lam * w0 * t_arr / tau)
    return w


def closed_form_whole_array(mode, t):
    """A mode's closed form over the whole epoch array at once: the hyperbolic form, or at
    c0 <= C0_MIN the noise-aware equal-weights logistic in its three xi branches, each with
    every temporary the size of t. The reference that the blocked evaluation must reproduce
    bit for bit; a 0-d t gives a float."""
    t_arr = np.asarray(t, dtype=np.float64)
    lam, eps, tau, c0 = mode.lam, mode.epsilon, mode.tau, mode.c0
    if c0 <= C0_MIN:
        xi = 1.0 - mode.gamma_eff / lam
        kappa = xi * (lam / (lam + eps))
        w0 = mode.w0
        if xi > 0.0:
            u = np.exp(-(2.0 * xi * lam) * t_arr / tau)
            w = kappa / (1.0 - u + u * (kappa / w0))
        elif xi < 0.0:
            e = np.exp((2.0 * xi * lam) * t_arr / tau)
            w = kappa * e / (e - 1.0 + kappa / w0)
        else:
            w = w0 / (1.0 + (2.0 * (lam + eps) * w0) * t_arr / tau)
        return w if w.ndim else float(w)
    beta = c0 * (1.0 + eps / lam)
    zeta = math.sqrt(beta * beta + 4.0)
    delta = math.tanh(mode.theta0 / 2.0)
    arg = (zeta * lam) * t_arr / tau
    u = np.exp(-arg)
    num = (u - 1.0) * (4.0 - 2.0 * beta * delta) - 2.0 * (u + 1.0) * zeta * delta
    den = (u - 1.0) * (2.0 * beta + 4.0 * delta) - 2.0 * (u + 1.0) * zeta
    w = 0.5 * c0 * np.sinh(2.0 * np.arctanh(num / den))
    w = np.where(arg > OVERFLOW_ARG, lam / (lam + eps), w)
    return w if w.ndim else float(w)


def eigh_symmetrised(s):
    """(eigenvalues, eigenvectors) of (S + S^T) / 2 in eigendecompose's conventions
    (non-increasing, each vector's largest-magnitude entry positive, round-off negatives
    clamped to 0), every step on a new array: the reference for its bits."""
    lams, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-lams, kind="stable")
    lams, v = lams[order], v[:, order]
    peak = np.argmax(np.abs(v), axis=0)
    v = v * np.where(v[peak, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    return np.where((lams > -CLAMP_TOL) & (lams < 0.0), 0.0, lams), v


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


def marginalized_pixel_space(x, w1, w2, eps_eff):
    """Loss and gradients of the noise-marginalised linear objective in pixel space.

    loss = (1/2N) tr((I - W2 W1) S (I - W2 W1)^T) + (eps/2N) tr(W2 W1 W1^T W2^T)
    against the dense S = X^T X, with the gradients with respect to the
    pixel-space weights themselves; O(N D^2 + D^3) per call.
    """
    n, d = x.shape
    s = x.T @ x
    s = 0.5 * (s + s.T)
    m = w2 @ w1
    r = np.eye(d) - m
    loss = 0.5 / n * (float(np.sum(r * (r @ s))) + eps_eff * float(np.sum(m * m)))
    a = w1 @ s
    b = w2.T @ w2
    g1 = -(w2.T @ s - b @ a - eps_eff * (b @ w1)) / n
    g2 = -(a.T - w2 @ (a @ w1.T) - eps_eff * (w2 @ (w1 @ w1.T))) / n
    return loss, g1, g2


def marginalized_descent_pixel_space(x, w1, w2, eps_eff, alpha, epochs, record_every, v,
                                     gamma=0.0):
    """Marginalised linear-autoencoder descent in pixel space, stepping on marginalized_pixel_space.

    Each epoch steps W <- W - alpha * grad on the marginalised objective plus
    (gamma/2) (||W1||^2 + ||W2||^2). Records at epoch 0, every record_every
    epochs and the last epoch. Returns (epochs, rows of diag(V^T W2 W1 V),
    ||W1||^2 + ||W2||^2, final W1, final W2).
    """
    w1 = np.array(w1, dtype=np.float64)
    w2 = np.array(w2, dtype=np.float64)
    times, diags, norms = [], [], []

    def record(epoch):
        times.append(float(epoch))
        diags.append(np.diag(v.T @ w2 @ w1 @ v))
        norms.append(float(np.sum(w1 * w1) + np.sum(w2 * w2)))

    record(0)
    for epoch in range(1, epochs + 1):
        _, g1, g2 = marginalized_pixel_space(x, w1, w2, eps_eff)
        w1 -= alpha * (g1 + gamma * w1)
        w2 -= alpha * (g2 + gamma * w2)
        if epoch % record_every == 0 or epoch == epochs:
            record(epoch)
    return np.array(times), np.array(diags), np.array(norms), w1, w2


def backprop_descent_pixel_space(x, init, alpha, epochs, record_every, gamma=0.0):
    """Noise-free backprop descent in pixel space, stepping on backprop_residual.

    Starts from the weights of the Autoencoder init and steps
    W <- W - alpha * (grad + gamma W) on the clean D-wide batch x each epoch.
    Records at epoch 0, every record_every epochs and the last epoch. Returns
    (epochs, the recorded (W1, W2) pairs, the objective with its decay
    penalty at each record, the final Autoencoder).
    """
    model = simulate.Autoencoder(init.w1.copy(), init.w2.copy(), init.activation)
    w1, w2 = model.w1, model.w2
    times, weights, losses = [], [], []

    def record(epoch, loss):
        times.append(float(epoch))
        weights.append((w1.copy(), w2.copy()))
        losses.append(loss + 0.5 * gamma * (np.sum(w1 * w1) + np.sum(w2 * w2)))

    loss, g1, g2 = backprop_residual(model, x, x)
    record(0, loss)
    for epoch in range(1, epochs + 1):
        w1 -= alpha * (g1 + gamma * w1)
        w2 -= alpha * (g2 + gamma * w2)
        loss, g1, g2 = backprop_residual(model, x, x)
        if epoch % record_every == 0 or epoch == epochs:
            record(epoch, loss)
    return np.array(times), weights, np.array(losses), model


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


def backprop_residual(model, batch, corrupted_batch):
    """Loss and gradients of (1/2N) sum ||x_i - W2 phi(W1 x_tilde_i)||^2 through the N x D residual.

    Forms R = phi(X_tilde W1^T) W2^T - X explicitly: five N x D x H products.
    """
    x = np.asarray(batch, dtype=np.float64)
    x_tilde = np.asarray(corrupted_batch, dtype=np.float64)
    phi, dphi = simulate.ACTIVATIONS[model.activation]
    n = x.shape[0]
    z = x_tilde @ model.w1.T
    a = phi(z)
    res = a @ model.w2.T - x
    grad2 = res.T @ a / n
    delta = res @ model.w2 if dphi is None else (res @ model.w2) * dphi(z)
    grad1 = delta.T @ x_tilde / n
    loss = 0.5 / n * float(np.vdot(res, res))
    return loss, grad1, grad2


def sampled_loss(model, dataset, noise, draws, seed, with_std=False):
    """Monte Carlo reconstruction loss over sampled corruptions.

    Averages (1/2N) sum ||x_i - W2 W1 (x_i + e)||^2 over `draws` independent
    corruption draws; converges to the marginalised loss as draws grow.
    with_std additionally returns the per-draw standard deviation.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    x = dataset.samples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    m = model.w2 @ model.w1
    base = x - x @ m.T                # clean residual, N x D
    if noise.kind == "none":
        value = 0.5 / n * float(np.sum(base * base))
        return (value, 0.0) if with_std else value
    chunk = max(1, int(2_000_000 / (n * d)))
    per_draw = np.empty(draws)
    done = 0
    while done < draws:
        take = min(chunk, draws - done)
        e = simulate._draw_noise(rng, noise, (take, n, d))
        res = base[None, :, :] - e @ m.T
        per_draw[done:done + take] = 0.5 / n * np.sum(res * res, axis=(1, 2))
        done += take
    value = float(per_draw.mean())
    return (value, float(per_draw.std(ddof=1)) if draws > 1 else 0.0) if with_std else value


def projected_diagonal(w1, w2, spectrum):
    """Per-mode mapping values: diag of V^T W2 W1 V, plus the max off-diagonal.

    The off-diagonal report is the decoupling check; it is exactly zero for
    rotation-aligned initialisation.
    """
    w1r, w2r = rotate_weights(w1, w2, spectrum)
    m = w2r @ w1r
    diag = np.diag(m).copy()
    if m.shape[0] > 1:
        off = float(np.max(np.abs(m - np.diag(diag))))
    else:
        off = 0.0
    return diag, off


def write_idx(batch, path):
    """IDX image bytes of a parsed batch: the byte-exact inverse of data.load_idx."""
    head = struct.pack(">IIII", 0x00000803, batch.stored.shape[0], *batch.image_shape)
    Path(path).write_bytes(head + batch.stored.tobytes())


def write_cifar10(batch, path):
    """CIFAR-10 record bytes of a parsed batch: the byte-exact inverse of data.load_cifar10."""
    records = np.column_stack([batch.labels.astype(np.uint8), batch.stored])
    Path(path).write_bytes(records.tobytes())


def write_csv_rows(path, header, rows):
    """A header row (none for None) and rows through csv.writer, one row at a time.

    Fields are written with str, for a Python float its shortest round-trip
    repr, and None is an empty field: the reference for the block writer.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv_rows(path, trajectories):
    """The epoch,mode,kind,value schema through csv.writer, one (t, mode, kind, v) row at a time."""
    write_csv_rows(path, ["epoch", "mode", "kind", "value"],
                   ((t, traj.mode_index, traj.kind, v) for traj in trajectories
                    for t, v in zip(traj.times.tolist(), traj.values.tolist())))


def write_surface_csv_rows(out, cfg, lam, eps, gamma_eff):
    """The surface grid and descent paths as tuples through csv.writer, one row at a time."""
    axis = np.linspace(cfg.grid_min, cfg.grid_max, cfg.grid_points).tolist()
    surface_rows = []
    for w1 in axis:
        for w2 in axis:
            loss, _, _ = scalar_loss_and_grad(w1, w2, lam, eps, tau=1.0)
            surface_rows.append((w1, w2, loss + 0.5 * gamma_eff * (w1 * w1 + w2 * w2)))
    rng = np.random.default_rng(cfg.seed)
    path_rows = []
    for path_id in range(cfg.paths):
        w1_0, w2_0 = rng.uniform(cfg.grid_min, cfg.grid_max, size=2)
        mode = ScalarMode(lam=lam, epsilon=eps, tau=cfg.tau, w1_0=w1_0, w2_0=w2_0,
                          gamma_eff=gamma_eff)
        run = simulate.run_scalar_gd(mode, cfg.alpha, cfg.epochs, cfg.record_every)
        path_rows += [(path_id, *row) for row in zip(
            run.trajectory.times.tolist(), run.w1.tolist(), run.w2.tolist(),
            run.trajectory.values.tolist())]
    write_csv_rows(out / "surface.csv", ["w1", "w2", "loss"], surface_rows)
    write_csv_rows(out / "surface_paths.csv", ["path", "epoch", "w1", "w2", "value"], path_rows)


def read_trajectory_csv(path):
    """The epoch,mode,kind,value schema back as Trajectory objects, one per (mode, kind)."""
    groups: dict[tuple[int, str], list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["epoch", "mode", "kind", "value"]:
            raise ValueError(f"unexpected trajectory CSV header {header!r}")
        for row in reader:
            groups.setdefault((int(row[1]), row[2]), []).append((float(row[0]), float(row[3])))
    out = []
    for (mode_index, kind), pairs in groups.items():
        times, values = zip(*pairs)
        out.append(Trajectory(times=np.array(times), values=np.array(values),
                              kind=kind, mode_index=mode_index))
    return out


def read_spectrum_csv(path):
    """The eigenvalue column of an index,eigenvalue spectrum CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["index", "eigenvalue"]:
            raise ValueError(f"unexpected spectrum CSV header {header!r}")
        return np.array([float(row[1]) for row in reader])


def lowrank_corrupted_batch(model, batch, draw):
    """The N x D Gaussian corruption E that a low-rank sampled step saw, rebuilt from its draw.

    The step draws E Q (N x k) and sigma G (m x D) as one flat array, with
    W1^T = Q R its thin QR and m = min(N, H), where R^-1 exists (at H >= D or
    for a rank-deficient W1 it draws E itself). This rebuilds its pre-activation
    X W1^T + (E Q) R and its delta through the explicit residual, factors
    delta = U R_d, and returns E = (E Q) Q^T + U sigma G (I - Q Q^T): the full
    corruption that gives the same E W1^T and delta^T E, so backprop on X + E
    is the step's reference.
    """
    x = np.asarray(batch, dtype=np.float64)
    n, d = x.shape
    phi, dphi = simulate.ACTIVATIONS[model.activation]
    q, r = np.linalg.qr(model.w1.T)
    k, m = q.shape[1], min(n, model.w1.shape[0])
    draw = np.asarray(draw, dtype=np.float64)
    if draw.shape != (n * k + m * d,):
        raise ValueError(f"expected {n * k + m * d} drawn values, got shape {draw.shape}")
    eq, g = draw[:n * k].reshape(n, k), draw[n * k:].reshape(m, d)
    z = x @ model.w1.T + eq @ r
    res = phi(z) @ model.w2.T - x
    delta = res @ model.w2 if dphi is None else (res @ model.w2) * dphi(z)
    u, _ = np.linalg.qr(delta)
    return eq @ q.T + u @ (g - (g @ q) @ q.T)
