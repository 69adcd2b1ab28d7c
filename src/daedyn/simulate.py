"""Full-batch gradient descent for linear and single-hidden-layer autoencoders.

One gradient step on the full-batch objective advances time by one epoch,
matching tau = N / alpha; there is no minibatching because the theory is
full-batch. The linear, weight-decayed and nonlinear networks all train
through `descend` and come back as one `Run` record; they differ only in the
gradient and in the per-mode readout of the eigenbasis weights. Runs are
deterministic given their seeds.
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
INIT_SCHEMES = ("small_random", "orthogonal")
LOSS_MODES = ("marginalized", "sampled")


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
        if not 0.0 < self.init_scale < DIVERGENCE_LIMIT:
            raise ValueError(f"init scale must be > 0 and below the divergence limit "
                             f"{DIVERGENCE_LIMIT:g}, got {self.init_scale}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if self.init not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init!r}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden dim must be >= 1, got {self.hidden_dim}")
        if self.record_every < 1:
            raise ValueError(f"record cadence must be >= 1, got {self.record_every}")
        if self.loss_mode not in LOSS_MODES:
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
class Run:
    """One trained network's record: per-mode readouts, weight norms, losses and end points."""

    times: np.ndarray          # recorded epochs
    modes: np.ndarray          # records x D, the readout of each recorded epoch
    norms: Trajectory          # ||W1||^2 + ||W2||^2 per recorded epoch, mode -1
    losses: np.ndarray         # objective value per recorded epoch
    max_offdiag: float         # worst rotated off-diagonal seen (nan if untracked)
    model: Autoencoder         # final weights
    init_model: Autoencoder    # weights before the first step

    def trajectory(self, rank, kind="simulated") -> Trajectory:
        """The series of 1-based mode `rank` in the shared schema."""
        return Trajectory(times=self.times, values=self.modes[:, rank - 1], kind=kind,
                          mode_index=rank)


def record_times(epochs, every):
    """The epochs a run records: 0, every `every` epochs, and the last one."""
    times = np.arange(0, epochs + 1, every, dtype=np.float64)
    return times if epochs % every == 0 else np.append(times, float(epochs))


def run_scalar_gd(mode: ScalarMode, alpha, steps, record_every=1, gamma_eff=0.0) -> ScalarRun:
    """Euler steps of the per-mode flow; one step is one epoch.

    Updates w1 += (1/tau) [w2 lam (1 - w2 w1) - eps w2^2 w1 - gamma_eff w1]
    and symmetrically for w2. The step is alpha / N with N = alpha * tau, so
    alpha is compared with the stability-optimal rate N / (2 lam + 3 eps) of
    that N: it warns (does not reject) when tau <= 2 lam + 3 eps, whatever
    alpha is. Aborts with the step index when |w1| or |w2| crosses the
    divergence threshold.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record cadence must be >= 1, got {record_every}")
    if gamma_eff < 0.0:
        raise ValueError(f"effective decay must be >= 0, got {gamma_eff}")
    if mode.lam > 0.0:
        alpha_opt, _, _ = optimal_rates(mode.lam, mode.epsilon, gamma_eff, alpha * mode.tau)
        if alpha >= alpha_opt:
            log.warning("alpha=%g is at or above the optimal stable rate %g; "
                        "the run may oscillate or diverge", alpha, alpha_opt)
    lam, eps, coeff = mode.lam, mode.epsilon, 1.0 / mode.tau
    w1, w2 = float(mode.w1_0), float(mode.w2_0)
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
            w1s.append(w1)
            w2s.append(w2)
    times = record_times(steps, record_every)
    w1s, w2s = np.array(w1s), np.array(w2s)
    traj = Trajectory(times=times, values=w2s * w1s, kind="simulated", mode_index=1)
    return ScalarRun(trajectory=traj, w1=w1s, w2=w2s)


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


class Workspace(dict):
    """Named float64 buffers that a run's steps write into, each made on first use.

    Every step asks for the same names and shapes, so the gradients, the
    update and the N x D corrupted batch are allocated once per run, not once
    per step. A buffer exists only once a step has needed it, so noise-free
    runs never hold an N x D corruption buffer. A buffer handed back by a
    step is overwritten by the next one.
    """

    def __call__(self, name, shape):
        buf = self.get(name)
        if buf is None or buf.shape != shape:
            buf = self[name] = np.empty(shape)
        return buf


def marginalized_loss_and_grads(model: Autoencoder, lams, n, epsilon_eff, ws=None):
    """Noise-marginalised loss and its exact full-batch gradients, in the covariance eigenbasis.

    model holds the eigenbasis weights (W1 V, V^T W2), and lams the eigenvalues
    of the unnormalised covariance S = X^T X = V diag(lams) V^T of n samples.
    The loss is
    (1/2n) tr((I - W2 W1) S (I - W2 W1)^T) + (epsilon_eff / 2n) tr(W2 W1 W1^T W2^T),
    and the gradients come back in the same basis, (dL/dW1 V, V^T dL/dW2), at
    O(H^2 D) per call. The gradients and the H x D temporaries are written
    into the Workspace ws (a fresh one when None), so the returned gradients
    are its buffers.
    """
    if epsilon_eff < 0.0:
        raise ValueError(f"effective noise must be >= 0, got {epsilon_eff}")
    ws = Workspace() if ws is None else ws
    w1, w2 = model.w1, model.w2
    h, d = w1.shape
    a, a_eps, w2t_cov = ws("a", (h, d)), ws("a_eps", (h, d)), ws("w2t_cov", (h, d))
    # in this basis S = diag(lams), so products with it are row or column scalings;
    # the noise penalty enters only through S + eps I, which saves three products:
    # W1 S + eps W1 = W1 (S + eps I) and W1 S W1^T + eps W1 W1^T = W1 (S + eps I) W1^T
    np.multiply(w1, lams, out=a)                      # W1 S
    np.multiply(w1, lams + epsilon_eff, out=a_eps)
    np.multiply(w2.T, lams, out=w2t_cov)              # W2^T S
    b = w2.T @ w2                     # H x H
    q = a_eps @ w1.T                  # W1 (S + eps I) W1^T, H x H
    cross = np.multiply(w2, a.T, out=ws("cross", (d, h)))
    loss = 0.5 / n * (np.sum(lams) - 2.0 * np.sum(cross) + np.sum(q * b))
    grad1 = np.matmul(b, a_eps, out=ws("g1", (h, d)))
    grad1 -= w2t_cov
    grad1 /= n
    grad2 = np.matmul(w2, q, out=ws("g2", (d, h)))
    grad2 -= a.T
    grad2 /= n
    return loss, grad1, grad2


def _draw_noise(rng, noise: NoiseModel, shape, ws=None):
    # Gaussian noise is drawn into the workspace's "noise" buffer: standard_normal
    # scaled in place is bit for bit rng.normal(0, sigma) and leaves rng in the same
    # state. numpy's Laplace draw has no out=, so it always returns a new array.
    if noise.kind == "none":
        return None
    if noise.kind == "gaussian":
        out = np.empty(shape) if ws is None else ws("noise", shape)
        rng.standard_normal(out=out)
        out *= np.sqrt(noise.variance)
        return out
    return rng.laplace(0.0, noise.scale, size=shape)


def backprop_grads(model: Autoencoder, batch, corrupted_batch, x_sq=None, out=None):
    """Loss and full-batch gradients of (1/2N) sum ||x_i - W2 phi(W1 x_tilde_i)||^2.

    Returns (loss, grad1, grad2), the same shape as marginalized_loss_and_grads.
    It works in Gram form and never forms the N x D residual R = A W2^T - X,
    where Z = X_tilde W1^T and A = phi(Z):
      grad2 = R^T A / N = (W2 (A^T A) - X^T A) / N,
      delta = (R W2) * phi'(Z) = (A (W2^T W2) - X W2) * phi'(Z),
      grad1 = delta^T X_tilde / N,
      loss  = (sum((W2^T W2) * (A^T A)) - 2 sum(W2 * X^T A) + ||X||^2) / 2N.
    A step is four N x D x H products (Z, X W2, A^T X, delta^T X_tilde) plus
    O((N + D) H^2). x_sq is ||X||^2 when the caller already has it; out is a
    pair of (H x D, D x H) arrays that receive the gradients.
    """
    x = np.asarray(batch, dtype=np.float64)
    x_tilde = np.asarray(corrupted_batch, dtype=np.float64)
    if x.shape != x_tilde.shape:
        raise ValueError("clean and corrupted batches must have the same shape")
    phi, dphi = ACTIVATIONS[model.activation]
    w1, w2 = model.w1, model.w2
    n = x.shape[0]
    grad1, grad2 = (np.empty(w1.shape), np.empty(w2.shape)) if out is None else out
    if x_sq is None:
        x_sq = float(np.vdot(x, x))
    z = x_tilde @ w1.T
    a = phi(z)
    b = w2.T @ w2                     # H x H
    c = a.T @ a                       # H x H
    atx = a.T @ x                     # (X^T A)^T: BLAS runs this orientation faster
    delta = a @ b
    delta -= x @ w2
    delta *= dphi(z)
    np.matmul(delta.T, x_tilde, out=grad1)
    grad1 /= n
    np.matmul(w2, c, out=grad2)
    grad2 -= atx.T
    grad2 /= n
    loss = 0.5 / n * (float(np.sum(b * c)) - 2.0 * float(np.sum(w2.T * atx)) + x_sq)
    return loss, grad1, grad2


def _sampled_grads(model: Autoencoder, x, noise: NoiseModel, draws, rng, ws=None, x_sq=None):
    # backprop loss and gradients averaged over `draws` fresh corruptions of x, each
    # corrupted batch built in the workspace's noise buffer; the first draw's
    # gradients land in "g1"/"g2", later ones in "d1"/"d2", and each is divided by
    # draws before it is summed in
    if noise.kind == "none":
        draws = 1       # every draw would be the clean batch
    ws = Workspace() if ws is None else ws
    g1, g2 = ws("g1", model.w1.shape), ws("g2", model.w2.shape)
    loss = 0.0
    for k in range(draws):
        e = _draw_noise(rng, noise, x.shape, ws)
        x_tilde = x if e is None else np.add(e, x, out=e)
        out = (g1, g2) if k == 0 else (ws("d1", g1.shape), ws("d2", g2.shape))
        dl, d1, d2 = backprop_grads(model, x, x_tilde, x_sq, out)
        loss += dl / draws
        if draws > 1:
            d1 /= draws
            d2 /= draws
            if k > 0:
                g1 += d1
                g2 += d2
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


def descend(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig, readout,
            activation="identity", marginalized=False) -> Run:
    """Full-batch gradient descent shared by every trained autoencoder.

    Initialises the weights per config.init, then repeats: gradient (plus
    config.weight_decay * W, the penalty being part of the objective), update,
    divergence check. marginalized=True takes the closed-form noise
    expectation of the linear objective and iterates in the covariance
    eigenbasis, on (W1 V, V^T W2) against diag(lam): every step passes
    marginalized_loss_and_grads the eigenvalues and N, and costs O(H^2 D).
    The spectrum must then diagonalise the dataset's covariance (checked
    once, ValueError otherwise). Otherwise every step backpropagates
    through config.noise_draws fresh corruptions drawn from the seeded stream,
    in pixel space, in the Gram form of backprop_grads with ||X||^2 formed
    once per run. The divergence check reads the iterated weights and fails
    on a NaN or an infinity in either matrix.

    The run owns one Workspace that every step writes into: the gradients,
    the decay terms, the update W -= alpha * g (g scaled in place) and, on a
    noisy leg only, the N x D corrupted batch. A step thus allocates no N x D
    array beyond a Laplace draw, which numpy cannot write in place.

    The run is recorded at epoch 0, every record_every epochs and at the final
    epoch: the objective, the weight norm, the worst rotated off-diagonal of
    V^T W2 W1 V (for d <= 64, where it is cheap) and readout(w1r, w2r), the
    network's D-vector of per-mode values read from the eigenbasis weights
    w1r = W1 V and w2r = V^T W2; pixel-space loops rotate only at those
    epochs. readout must not keep or modify the arrays.
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
    ws = Workspace()
    x_sq = None if marginalized else float(np.vdot(x, x))
    track_offdiag = d <= 64
    modes, norms, losses = [], [], []
    worst_off = 0.0 if track_offdiag else np.nan

    def loss_and_grads():
        if marginalized:
            loss, g1, g2 = marginalized_loss_and_grads(model, lams, n, eps_eff, ws)
        else:
            loss, g1, g2 = _sampled_grads(model, x, config.noise, config.noise_draws, rng,
                                          ws, x_sq)
        if gamma > 0.0:
            g1 += np.multiply(w1, gamma, out=ws("decay1", w1.shape))
            g2 += np.multiply(w2, gamma, out=ws("decay2", w2.shape))
        return loss, g1, g2

    def record(loss):
        nonlocal worst_off
        if gamma > 0.0:     # the decay penalty joins the loss only where it is recorded
            loss = loss + 0.5 * gamma * (np.sum(w1 * w1) + np.sum(w2 * w2))
        w1r, w2r = (w1, w2) if marginalized else rotate_weights(w1, w2, spectrum)
        modes.append(readout(w1r, w2r))
        norms.append(float(np.sum(w1r * w1r) + np.sum(w2r * w2r)))
        losses.append(loss)
        if track_offdiag:
            m = w2r @ w1r
            np.fill_diagonal(m, 0.0)
            worst_off = max(worst_off, float(np.max(np.abs(m))))

    loss, g1, g2 = loss_and_grads()
    record(loss)
    for epoch in range(1, config.epochs + 1):
        g1 *= alpha
        g2 *= alpha
        w1 -= g1
        w2 -= g2
        # every comparison with NaN is false, and max/min propagate it, so a NaN
        # or an infinity in either matrix fails this check
        if not all(w.max() <= DIVERGENCE_LIMIT and w.min() >= -DIVERGENCE_LIMIT
                   for w in (w1, w2)):
            raise DivergenceError(f"run diverged at epoch {epoch}", step=epoch)
        loss, g1, g2 = loss_and_grads()
        if epoch % config.record_every == 0 or epoch == config.epochs:
            record(loss)
    if marginalized:
        v = spectrum.eigenvectors
        w1, w2 = w1 @ v.T, v @ w2
    times = record_times(config.epochs, config.record_every)
    return Run(times=times, modes=np.stack(modes, axis=0),
               norms=Trajectory(times=times, values=np.array(norms), kind="simulated",
                                mode_index=-1),
               losses=np.array(losses), max_offdiag=worst_off,
               model=Autoencoder(w1, w2, activation), init_model=init)


def run_linear_ae(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig) -> Run:
    """Linear-network descent whose per-mode values are the diagonal of V^T W2 W1 V.

    config.loss_mode picks the marginalised objective, trained in the
    covariance eigenbasis, or the sampled objective, trained in pixel space;
    the marginalised one needs a spectrum that diagonalises the dataset's
    covariance (ValueError otherwise).
    """
    return descend(dataset, spectrum, config,
                   lambda w1r, w2r: np.einsum("jh,hj->j", w2r, w1r),
                   marginalized=config.loss_mode == "marginalized")


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
