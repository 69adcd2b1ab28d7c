"""Full-batch gradient descent for linear and single-hidden-layer autoencoders.

One gradient step on the full-batch objective advances time by one epoch,
matching tau = N / alpha; there is no minibatching because the theory is
full-batch. The linear, weight-decayed and nonlinear networks all train
through `descend`, which differs between them only in the gradient and in
what its recorder keeps. Runs are deterministic given their seeds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import NoiseModel, ScalarMode, Trajectory, epsilon_from_noise, optimal_rates
from .errors import DivergenceError
from .spectrum import Dataset, Spectrum, random_orthogonal, rotate_weights

log = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e12
SPECTRUM_TOL = 1e-8     # max |S V - V diag(lam)| relative to the largest |lam|


def _identity(z):
    return z


def _identity_grad(z):
    return np.ones_like(z)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z):
    # subgradient at exactly 0 is defined as 0
    return (z > 0.0).astype(np.float64)


def _tanh_grad(z):
    t = np.tanh(z)
    return 1.0 - t * t


ACTIVATIONS = {
    "identity": (_identity, _identity_grad),
    "relu": (_relu, _relu_grad),
    "tanh": (np.tanh, _tanh_grad),
}


@dataclass(frozen=True)
class Autoencoder:
    """Single-hidden-layer autoencoder weights: w1 is H x D, w2 is D x H.

    activation names the hidden nonlinearity (identity, relu or tanh); the
    identity activation is the linear autoencoder of the theory.
    """

    w1: np.ndarray
    w2: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        if w1.ndim != 2 or w2.shape != (w1.shape[1], w1.shape[0]):
            raise ValueError(f"incompatible weight shapes {w1.shape} and {w2.shape}")
        if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for a full-network training run.

    weight_decay is in user units; the effective decay seen by the scalar
    theory is N * weight_decay. loss_mode "sampled" draws noise_draws fresh
    corruptions per step instead of using the closed-form expectation; it
    only applies to the linear network, since nonlinear runs always sample.
    """

    learning_rate: float
    epochs: int
    noise: NoiseModel = NoiseModel.none()
    weight_decay: float = 0.0
    init: str = "small_random"
    init_scale: float = 1e-3
    seed: int = 0
    hidden_dim: int = 1
    record_every: int = 10
    loss_mode: str = "marginalized"
    noise_draws: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if self.init not in ("small_random", "orthogonal"):
            raise ValueError(f"unknown init scheme {self.init!r}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden dim must be >= 1, got {self.hidden_dim}")
        if self.record_every < 1:
            raise ValueError(f"record cadence must be >= 1, got {self.record_every}")
        if self.loss_mode not in ("marginalized", "sampled"):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        if self.noise_draws < 1:
            raise ValueError(f"noise draws must be >= 1, got {self.noise_draws}")


@dataclass(frozen=True)
class ScalarRun:
    """Recorded product trajectory plus the underlying weight series."""

    trajectory: Trajectory
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class LinearRun:
    """Recorded per-mode trajectories, weight norms, losses and the end-point models."""

    trajectories: list
    norms: Trajectory          # ||W1||^2 + ||W2||^2 per recorded epoch, mode -1
    losses: np.ndarray         # objective value per recorded epoch
    max_offdiag: float         # worst rotated off-diagonal seen (nan if untracked)
    model: Autoencoder         # final weights
    init_model: Autoencoder    # weights before the first step


def run_scalar_gd(mode: ScalarMode, alpha, steps, record_every=1, gamma_eff=0.0,
                  mode_index=1) -> ScalarRun:
    """Euler steps of the per-mode flow; one step is one epoch.

    Updates w1 += (1/tau) [w2 lam (1 - w2 w1) - eps w2^2 w1 - gamma_eff w1]
    and symmetrically for w2. Warns (does not reject) when alpha is at or
    above the stability-optimal rate. Aborts with the step index when |w1| or
    |w2| crosses the divergence threshold.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record cadence must be >= 1, got {record_every}")
    if gamma_eff < 0.0:
        raise ValueError(f"effective decay must be >= 0, got {gamma_eff}")
    if mode.lam > 0.0:
        alpha_opt, _, _ = optimal_rates(mode.lam, mode.epsilon, gamma_eff, mode.tau)
        if alpha >= alpha_opt:
            log.warning("alpha=%g is at or above the optimal stable rate %g; "
                        "the run may oscillate or diverge", alpha, alpha_opt)
    lam, eps, coeff = mode.lam, mode.epsilon, 1.0 / mode.tau
    w1, w2 = float(mode.w1_0), float(mode.w2_0)
    times = [0.0]
    products = [w2 * w1]
    w1s = [w1]
    w2s = [w2]
    for step in range(1, steps + 1):
        w = w2 * w1
        g1 = w2 * lam * (1.0 - w) - eps * w2 * w2 * w1 - gamma_eff * w1
        g2 = w1 * lam * (1.0 - w) - eps * w1 * w1 * w2 - gamma_eff * w2
        w1 += coeff * g1
        w2 += coeff * g2
        if not (abs(w1) < DIVERGENCE_LIMIT and abs(w2) < DIVERGENCE_LIMIT):
            raise DivergenceError(f"scalar run diverged at step {step}", step=step)
        if step % record_every == 0 or step == steps:
            times.append(float(step))
            products.append(w2 * w1)
            w1s.append(w1)
            w2s.append(w2)
    traj = Trajectory(times=np.array(times), values=np.array(products),
                      kind="simulated", mode_index=mode_index)
    return ScalarRun(trajectory=traj, w1=np.array(w1s), w2=np.array(w2s))


def init_orthogonal(d, h, spectrum: Spectrum, scale, seed) -> Autoencoder:
    """Rotation-aligned initialisation: W2 = V D2 R^T, W1 = R D1 V^T.

    R is a seeded random orthogonal h x h matrix; D1 and D2 are rectangular
    diagonals with all entries equal to scale, so the rotated product matrix
    is exactly diagonal with min(h, d) nonzero entries. Requires h <= d
    (the decoupling argument assumes an undercomplete identity task).
    """
    if h > d:
        raise ValueError(f"undercomplete only: hidden dim {h} exceeds input dim {d}")
    if h < 1:
        raise ValueError(f"hidden dim must be >= 1, got {h}")
    if spectrum.d != d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match input dim {d}")
    rng = np.random.default_rng(seed)
    r = random_orthogonal(h, rng)
    v_h = spectrum.eigenvectors[:, :h]
    return Autoencoder(w1=scale * (r @ v_h.T), w2=scale * (v_h @ r.T))


def init_small_random(d, h, scale, seed) -> Autoencoder:
    """I.i.d. uniform weights in [-scale, scale] from the seeded generator."""
    if scale <= 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    rng = np.random.default_rng(seed)
    return Autoencoder(w1=rng.uniform(-scale, scale, size=(h, d)),
                       w2=rng.uniform(-scale, scale, size=(d, h)))


def marginalized_loss_and_grads(model: Autoencoder, dataset, epsilon_eff, cov=None):
    """Noise-marginalised loss and its exact full-batch gradients.

    loss = (1/2N) sum ||x_i - W2 W1 x_i||^2 + (s^2 / 2) tr(W2 W1 W1^T W2^T)
    with N s^2 = epsilon_eff. Pass the precomputed unnormalised covariance to
    avoid rebuilding it inside training loops. A 1-D cov is the eigenvalue
    vector of a diagonal covariance: the weights are then read in that
    eigenbasis, (W1 V, V^T W2), and a step costs O(H^2 D) instead of O(H D^2).
    """
    x = dataset.samples if isinstance(dataset, Dataset) else np.asarray(dataset, dtype=np.float64)
    n = x.shape[0]
    if epsilon_eff < 0.0:
        raise ValueError(f"effective noise must be >= 0, got {epsilon_eff}")
    if cov is None:
        cov = x.T @ x
        cov = 0.5 * (cov + cov.T)
    w1, w2 = model.w1, model.w2
    # the noise penalty enters only through S + eps I, which saves three products:
    # W1 S + eps W1 = W1 (S + eps I) and W1 S W1^T + eps W1 W1^T = W1 (S + eps I) W1^T
    if cov.ndim == 1:
        a = w1 * cov                  # W1 S, H x D
        a_eps = w1 * (cov + epsilon_eff)
        w2t_cov = w2.T * cov          # W2^T S
        trace = np.sum(cov)
    else:
        a = w1 @ cov
        a_eps = a + epsilon_eff * w1
        w2t_cov = w2.T @ cov
        trace = np.trace(cov)
    b = w2.T @ w2                     # H x H
    q = a_eps @ w1.T                  # W1 (S + eps I) W1^T, H x H
    loss = 0.5 / n * (trace - 2.0 * np.sum(w2 * a.T) + np.sum(q * b))
    grad1 = b @ a_eps
    grad1 -= w2t_cov
    grad1 /= n
    grad2 = w2 @ q
    grad2 -= a.T
    grad2 /= n
    return loss, grad1, grad2


def _draw_noise(rng, noise: NoiseModel, shape):
    if noise.kind == "none":
        return None
    if noise.kind == "gaussian":
        return rng.normal(0.0, np.sqrt(noise.variance), size=shape)
    return rng.laplace(0.0, noise.scale, size=shape)


def sampled_loss(model: Autoencoder, dataset, noise: NoiseModel, draws, seed, with_std=False):
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
        e = _draw_noise(rng, noise, (take, n, d))
        res = base[None, :, :] - e @ m.T
        per_draw[done:done + take] = 0.5 / n * np.sum(res * res, axis=(1, 2))
        done += take
    value = float(per_draw.mean())
    return (value, float(per_draw.std(ddof=1)) if draws > 1 else 0.0) if with_std else value


def backprop_grads(model: Autoencoder, batch, corrupted_batch):
    """Loss and full-batch gradients of (1/2N) sum ||x_i - W2 phi(W1 x_tilde_i)||^2.

    Returns (loss, grad1, grad2), the same shape as marginalized_loss_and_grads.
    """
    x = np.asarray(batch, dtype=np.float64)
    x_tilde = np.asarray(corrupted_batch, dtype=np.float64)
    if x.shape != x_tilde.shape:
        raise ValueError("clean and corrupted batches must have the same shape")
    phi, dphi = ACTIVATIONS[model.activation]
    n = x.shape[0]
    z = x_tilde @ model.w1.T
    a = phi(z)
    res = a @ model.w2.T - x
    grad2 = res.T @ a / n
    grad1 = ((res @ model.w2) * dphi(z)).T @ x_tilde / n
    loss = 0.5 / n * float(np.vdot(res, res))
    return loss, grad1, grad2


def _sampled_grads(model: Autoencoder, x, noise: NoiseModel, draws, rng):
    # backprop loss and gradients averaged over `draws` fresh corruptions of x
    if noise.kind == "none":
        draws = 1       # every draw would be the clean batch
    loss, g1, g2 = 0.0, 0.0, 0.0
    for _ in range(draws):
        e = _draw_noise(rng, noise, x.shape)
        dl, d1, d2 = backprop_grads(model, x, x if e is None else x + e)
        loss += dl / draws
        g1 = g1 + d1 / draws
        g2 = g2 + d2 / draws
    return loss, g1, g2


# The benchmark tracer (bench/spans.py) wraps a per-record rotation under this name;
# `descend` now rotates for every recorder, so it is bound to nothing and counts 0.
_rotated_diag = None


def _check_spectrum(x, spectrum: Spectrum):
    # the eigenbasis step trusts the spectrum, so it must diagonalise S = X^T X
    v, lams = spectrum.eigenvectors, spectrum.eigenvalues
    residual = float(np.max(np.abs((x.T @ x) @ v - v * lams)))
    bound = SPECTRUM_TOL * float(np.max(np.abs(lams)))
    if not residual <= bound:
        raise ValueError(f"spectrum does not diagonalise the dataset covariance: "
                         f"max |S V - V diag(lam)| = {residual:.3e} > {bound:.3e}")


def descend(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig, record,
            activation="identity", marginalized=False):
    """Full-batch gradient descent shared by every trained autoencoder.

    Initialises the weights per config.init, then repeats: gradient (plus
    config.weight_decay * W, the penalty being part of the objective), update,
    divergence check. marginalized=True takes the closed-form noise
    expectation of the linear objective and iterates in the covariance
    eigenbasis, on (W1 V, V^T W2) against diag(lam), where every step costs
    O(H^2 D); the spectrum must then diagonalise the dataset's covariance
    (checked once, ValueError otherwise). Otherwise every step backpropagates
    through config.noise_draws fresh corruptions drawn from the seeded stream,
    in pixel space. The divergence check reads the iterated weights.
    record(epoch, loss, w1r, w2r) is called at epoch 0, every record_every
    epochs and at the final epoch with the objective there and always the
    eigenbasis weights w1r = W1 V and w2r = V^T W2; pixel-space loops rotate
    only at those epochs. It must not keep or modify the arrays. Returns the
    (initial, final) weights in pixel space.
    """
    if spectrum.d != dataset.d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match dataset dim {dataset.d}")
    if marginalized and activation != "identity":
        raise ValueError("only the linear objective has a marginalised form")
    d, n, x = dataset.d, dataset.n, dataset.samples
    if config.init == "orthogonal":
        init = init_orthogonal(d, config.hidden_dim, spectrum, config.init_scale, config.seed)
    else:
        init = init_small_random(d, config.hidden_dim, config.init_scale, config.seed)
    init = replace(init, activation=activation)
    if marginalized:
        _check_spectrum(x, spectrum)
        eps_eff = epsilon_from_noise(config.noise, n)
        lams = spectrum.eigenvalues
        w1, w2 = rotate_weights(init.w1, init.w2, spectrum)
    else:
        w1 = init.w1.copy()
        w2 = init.w2.copy()
    # one model over the iterated arrays, which every step updates in place
    model = Autoencoder(w1, w2, activation)
    w1, w2 = model.w1, model.w2
    rng = np.random.default_rng(config.seed)
    alpha = config.learning_rate
    gamma = config.weight_decay

    def loss_and_grads():
        if marginalized:
            loss, g1, g2 = marginalized_loss_and_grads(model, x, eps_eff, cov=lams)
        else:
            loss, g1, g2 = _sampled_grads(model, x, config.noise, config.noise_draws, rng)
        if gamma > 0.0:
            loss = loss + 0.5 * gamma * (np.sum(w1 * w1) + np.sum(w2 * w2))
            g1 = g1 + gamma * w1
            g2 = g2 + gamma * w2
        return loss, g1, g2

    def emit(epoch, loss):
        record(epoch, loss, *((w1, w2) if marginalized else rotate_weights(w1, w2, spectrum)))

    loss, g1, g2 = loss_and_grads()
    emit(0, loss)
    for epoch in range(1, config.epochs + 1):
        w1 -= alpha * g1
        w2 -= alpha * g2
        peak = max(np.max(np.abs(w1)), np.max(np.abs(w2)))
        if not np.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            raise DivergenceError(f"run diverged at epoch {epoch}", step=epoch)
        loss, g1, g2 = loss_and_grads()
        if epoch % config.record_every == 0 or epoch == config.epochs:
            emit(epoch, loss)
    if marginalized:
        v = spectrum.eigenvectors
        w1, w2 = w1 @ v.T, v @ w2
    return init, Autoencoder(w1, w2, activation)


def run_linear_ae(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig) -> LinearRun:
    """Linear-network descent emitting per-mode mapped values and weight norms.

    config.loss_mode picks the marginalised objective, trained in the
    covariance eigenbasis, or the sampled objective, trained in pixel space;
    the marginalised one needs a spectrum that diagonalises the dataset's
    covariance (ValueError otherwise). Either way the record reads the
    eigenbasis weights `descend` hands it: the per-mode values are the
    diagonal of V^T W2 W1 V, and the worst off-diagonal is tracked for
    d <= 64, where it is cheap.
    """
    d = dataset.d
    track_offdiag = d <= 64
    times = []
    diags = []
    norms = []
    losses = []
    worst_off = 0.0 if track_offdiag else np.nan

    def record(epoch, loss, w1r, w2r):
        nonlocal worst_off
        times.append(float(epoch))
        diags.append(np.einsum("jh,hj->j", w2r, w1r))
        norms.append(float(np.sum(w1r * w1r) + np.sum(w2r * w2r)))
        losses.append(loss)
        if track_offdiag:
            m = w2r @ w1r
            np.fill_diagonal(m, 0.0)
            worst_off = max(worst_off, float(np.max(np.abs(m))))

    init, model = descend(dataset, spectrum, config, record,
                          marginalized=config.loss_mode == "marginalized")
    times_arr = np.array(times)
    diag_mat = np.stack(diags, axis=0)
    trajectories = [
        Trajectory(times=times_arr, values=diag_mat[:, j], kind="simulated", mode_index=j + 1)
        for j in range(d)
    ]
    norm_traj = Trajectory(times=times_arr, values=np.array(norms),
                           kind="simulated", mode_index=-1)
    return LinearRun(trajectories=trajectories, norms=norm_traj, losses=np.array(losses),
                     max_offdiag=worst_off, model=model, init_model=init)


def modes_from_linear_ae(model: Autoencoder, spectrum: Spectrum, epsilon, tau):
    """Scalar-mode embeddings measured from (possibly non-diagonal) weights.

    During the small-weight escape phase, mode j's rotated column u (of W1 V)
    and row v (of V^T W2) evolve with growing part p = (u + v)/2 and decaying
    part m = (v - u)/2, so the product behaves like the scalar pair with
    w0 = |p|^2 - |m|^2 (the rotated diagonal entry) and c0 = 4 |p| |m|.

    When the hidden width binds, deeper modes can only grow in the hidden
    capacity left over by stronger modes; each p_j is therefore orthogonalised
    against the growing directions of all higher-eigenvalue modes before its
    amplitude is read off. For exactly decoupled (rotation-aligned) weights
    the rows are already orthogonal and this reduces to the plain per-mode
    scalar pair; modes past the hidden width come out degenerate (c0 = 0), as
    they should, since the network cannot learn them.
    """
    w1r, w2r = rotate_weights(model.w1, model.w2, spectrum)
    grow = 0.5 * (w1r.T + w2r)      # rows are p_j = (u_j + v_j) / 2
    decay = 0.5 * (w2r - w1r.T)     # rows are m_j = (v_j - u_j) / 2
    b = np.sum(decay * decay, axis=1)
    h = grow.shape[1]
    basis = np.zeros((0, h))
    modes = []
    for j, lam in enumerate(spectrum.eigenvalues):
        p = grow[j].copy()
        if basis.shape[0]:
            p -= basis.T @ (basis @ p)
        a = float(p @ p)
        norm = math.sqrt(a)
        if norm > 0.0 and basis.shape[0] < h:
            basis = np.vstack([basis, p / norm])
        modes.append(ScalarMode.from_product(
            lam=float(lam), epsilon=epsilon, tau=tau,
            c0=float(4.0 * math.sqrt(a * b[j])), w0=float(a - b[j])))
    return modes
