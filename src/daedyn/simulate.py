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
# max |S V - V diag(lam)| relative to the largest |lam|, and a round-off column norm of X V
# relative to the largest one (an eigenvalue at 1e-8 lam_1 has norm 1e-4 sqrt(lam_1): data)
SPECTRUM_TOL = 1e-8
INIT_SCHEMES = ("small_random", "orthogonal")
LOSS_MODES = ("marginalized", "sampled")
LAPLACE_BLOCK = 16_384  # values per Laplace-draw pass: a block and its temporary fit in cache


def _identity(z):
    return z


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z):
    # subgradient at exactly 0 is defined as 0
    return (z > 0.0).astype(np.float64)


def _tanh_grad(z):
    t = np.tanh(z)
    return 1.0 - t * t


# (phi, phi'); the identity's derivative is None, so backprop skips a multiply by ones
ACTIVATIONS = {
    "identity": (_identity, None),
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
    theory is N * weight_decay. loss_mode "sampled" draws one fresh
    corruption per step instead of using the closed-form expectation; it
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


def run_scalar_gd(mode: ScalarMode, alpha, steps, record_every=1) -> ScalarRun:
    """Euler steps of the mode's flow, its decay included; one step is one epoch.

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
    if mode.lam > 0.0:
        alpha_opt, _, _ = optimal_rates(mode.lam, mode.epsilon, mode.gamma_eff, alpha * mode.tau)
        if alpha >= alpha_opt:
            log.warning("alpha=%g is at or above the optimal stable rate %g; "
                        "the run may oscillate or diverge", alpha, alpha_opt)
    lam, eps, gamma_eff, coeff = mode.lam, mode.epsilon, mode.gamma_eff, 1.0 / mode.tau
    w1, w2 = float(mode.w1_0), float(mode.w2_0)
    times = record_times(steps, record_every)
    # float64 storage, 8 bytes a record where a list of Python floats costs 32; a store
    # through a memoryview costs half of numpy's scalar assignment
    w1s, w2s = np.empty(times.size), np.empty(times.size)
    rec1, rec2 = memoryview(w1s), memoryview(w2s)
    rec1[0], rec2[0] = w1, w2
    recorded = 0
    for step in range(1, steps + 1):
        w = w2 * w1
        g1 = w2 * lam * (1.0 - w) - eps * w2 * w2 * w1 - gamma_eff * w1
        g2 = w1 * lam * (1.0 - w) - eps * w1 * w1 * w2 - gamma_eff * w2
        w1 += coeff * g1
        w2 += coeff * g2
        if not (abs(w1) < DIVERGENCE_LIMIT and abs(w2) < DIVERGENCE_LIMIT):
            raise DivergenceError(f"scalar run diverged at step {step}", step=step)
        if step % record_every == 0 or step == steps:
            recorded += 1
            rec1[recorded] = w1
            rec2[recorded] = w2
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

    Every step asks for the same names and shapes, so the gradients and the
    noise draw are allocated once per run, not once per step (a marginalised
    grad2 is an H x D buffer's transpose, column-major like that run's W2).
    A buffer exists only once a step has needed it: only a Laplace leg holds
    an N x D corrupted batch, a Gaussian leg holds its N k + m D low-rank draw
    and a noise-free one no draw at all. A Gaussian or noise-free step of a
    leg with a readout of the hidden layer also keeps its clean pre-activation
    X W1^T (N x H) under "xw1", which the record reads. A buffer handed back
    by a step is overwritten by the next one.
    """

    def __call__(self, name, shape):
        buf = self.get(name)
        if buf is None or buf.shape != shape:
            buf = self[name] = np.empty(shape)
        return buf


def marginalized_loss_and_grads(model: Autoencoder, lams, n, epsilon_eff, ws=None,
                                with_loss=True):
    """Noise-marginalised loss and its exact full-batch gradients, in the covariance eigenbasis.

    model holds the eigenbasis weights (W1 V, V^T W2), and lams the eigenvalues
    of the unnormalised covariance S = X^T X = V diag(lams) V^T of n samples.
    The loss is
    (1/2n) tr((I - W2 W1) S (I - W2 W1)^T) + (epsilon_eff / 2n) tr(W2 W1 W1^T W2^T),
    and the gradients come back in the same basis, (dL/dW1 V, V^T dL/dW2), at
    O(H^2 D) per call; with_loss=False returns None for the loss. The
    gradients and the H x D temporaries are written into the Workspace ws (a
    fresh one when None), so the returned gradients are its buffers; grad2 is
    column-major. Either layout of W2 gives the same bits.
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
    grad1 = np.matmul(b, a_eps, out=ws("g1", (h, d)))
    grad1 -= w2t_cov
    grad1 /= n
    # into a transposed buffer BLAS computes q^T W2^T, with the same bits
    grad2 = np.matmul(w2, q, out=ws("g2", (h, d)).T)
    grad2 -= a.T
    grad2 /= n
    if not with_loss:
        return None, grad1, grad2
    # summed in row-major order whatever W2's layout, so the loss's bits are too
    cross = np.multiply(w2, a.T, out=ws("cross", (d, h)))
    loss = 0.5 / n * (np.sum(lams) - 2.0 * np.sum(cross) + np.sum(q * b))
    return loss, grad1, grad2


def _draw_noise(rng, noise: NoiseModel, shape, ws=None):
    # The draw is written into the workspace's "noise" buffer (a new array without a
    # workspace) and leaves rng in the state rng.normal or rng.laplace would.
    # standard_normal scaled in place is bit for bit rng.normal(0, sigma).
    if noise.kind == "none":
        return None
    out = np.empty(shape) if ws is None else ws("noise", shape)
    if noise.kind == "gaussian":
        rng.standard_normal(out=out)
        out *= np.sqrt(noise.variance)
        return out
    # Laplace: numpy's random_laplace, vectorised over LAPLACE_BLOCK values at a time.
    # From the same uniform U it takes b log(U + U) below 1/2 and -b log(2 - U - U)
    # from 1/2 up; v = min(U + U, 2 - U - U) is that log's argument on either branch,
    # and the exact 2U - 1 carries the sign (+0.0 at U = 1/2, as in numpy). Only
    # numpy's vector log differs from libm's, by at most 2 ulp. numpy redraws a zero
    # uniform, which shifts the stream, so a zero replays the draw through rng.laplace.
    flat, b = out.reshape(-1), noise.scale
    state = rng.bit_generator.state
    tmp = np.empty(min(flat.size, LAPLACE_BLOCK))
    for start in range(0, flat.size, LAPLACE_BLOCK):
        u = flat[start:start + LAPLACE_BLOCK]
        v = tmp[:u.size]
        rng.random(out=u)
        if not u.all():     # checked before the log, which warns on log(0)
            rng.bit_generator.state = state
            out[...] = rng.laplace(0.0, b, size=shape)
            return out
        np.subtract(2.0, u, out=v)
        v -= u                          # 2 - U - U, rounded as numpy rounds it
        u += u
        np.minimum(u, v, out=v)
        u -= 1.0
        np.log(v, out=v)
        v *= b
        np.copysign(v, u, out=u)
    return out


def _gram_form(model: Autoencoder, x, z, grad2, with_loss):
    # The Gram-form body of the backprop step on (1/2N) sum ||x_i - W2 phi(W1 x_tilde_i)||^2,
    # which never forms the N x D residual R = A W2^T - X, where Z = X_tilde W1^T is the
    # pre-activation of the corrupted batch and A = phi(Z):
    #   grad2 = R^T A / N = (W2 (A^T A) - X^T A) / N,
    #   delta = (R W2) * phi'(Z) = (A (W2^T W2) - X W2) * phi'(Z),
    #   loss  = (sum((W2^T W2) * (A^T A)) - 2 sum(W2 * X^T A) + ||X||^2) / 2N,
    # and the caller forms grad1 = delta^T X_tilde / N. x may hold only the r <= D leading
    # columns of inputs whose other columns are zero, as the data's range in the covariance
    # eigenbasis does. Writes grad2 and returns (loss, delta); the loss, ||X||^2 included, is
    # None unless with_loss
    phi, dphi = ACTIVATIONS[model.activation]
    w2 = model.w2
    n, r = x.shape
    w2x = w2[:r]                      # the rows of W2 that meet the data
    a = phi(z)
    b = w2.T @ w2                     # H x H
    c = a.T @ a                       # H x H
    atx = a.T @ x                     # (X^T A)^T: BLAS runs this orientation faster
    delta = a @ b
    delta -= x @ w2x
    if dphi is not None:
        delta *= dphi(z)
    np.matmul(w2, c, out=grad2)
    grad2[:r] -= atx.T
    grad2 /= n
    if not with_loss:
        return None, delta
    loss = 0.5 / n * (float(np.sum(b * c)) - 2.0 * float(np.sum(w2x.T * atx))
                      + float(np.vdot(x, x)))
    return loss, delta


def _sampled_grads(model: Autoencoder, x, noise: NoiseModel, rng, ws=None, with_loss=True,
                   keep_clean=False):
    # Backprop loss and gradients on one fresh corruption E of x, its r <= D leading columns
    # (see _gram_form) while E covers all D; the gradients land in "g1"/"g2", the one draw in
    # "noise", and with_loss=False returns None for the loss. A step is four N x r x H
    # products (Z, X W2, A^T X, delta^T X_tilde) plus O((N + D) H^2). Laplace noise is
    # drawn in full (N x D) and x added to it in place: X_tilde = X + E. Gaussian noise is
    # drawn only where the step sees it, as E W1^T and delta^T E: with W1^T = Q R (Q is D x k)
    # and delta = U R_d (R_d is m x H, m = min(N, H)), E Q is N x k i.i.d. noise, and the
    # rest of delta^T E, delta^T E (I - Q Q^T), is independent of it and distributed as
    # R_d^T G (I - Q Q^T) with G m x D i.i.d. noise. So Z = X W1^T + (E Q) R and
    # N grad1 = delta^T X + (delta^T E Q) Q^T + R_d^T G (I - Q Q^T), from N k + m D normals
    # in one draw: the same distribution as the full draw, not the same stream.
    # keep_clean=True keeps the clean X W1^T in "xw1" for a hidden-layer record; a Laplace
    # step's Z is of the corrupted batch, so it must not ask.
    ws = Workspace() if ws is None else ws
    w1 = model.w1
    (n, r), (h, d) = x.shape, w1.shape
    grad1, grad2 = ws("g1", w1.shape), ws("g2", model.w2.shape)
    x_tilde = x
    if noise.kind == "laplace":
        x_tilde = _draw_noise(rng, noise, x.shape, ws)
        x_tilde += x
    z = np.matmul(x_tilde, w1[:, :r].T, out=ws("xw1", (n, h)) if keep_clean else None)
    if noise.kind == "gaussian":
        q, rq = np.linalg.qr(w1.T)
        k, m = q.shape[1], min(n, h)
        draw = _draw_noise(rng, noise, (n * k + m * d,), ws)
        eq, g = draw[:n * k].reshape(n, k), draw[n * k:].reshape(m, d)
        z = np.add(z, eq @ rq, out=None if keep_clean else z)
    loss, delta = _gram_form(model, x, z, grad2, with_loss)
    np.matmul(delta.T, x_tilde, out=grad1[:, :r])
    grad1[:, r:] = 0.0
    if noise.kind == "gaussian":
        rdg = np.linalg.qr(delta, mode="r").T @ g         # R_d^T G, H x D
        s = delta.T @ eq
        s -= rdg @ q                                      # delta^T E Q - R_d^T G Q
        grad1 += rdg
        grad1 += s @ q.T
    grad1 /= n
    return loss, grad1, grad2


# The benchmark tracer (bench/spans.py) wraps a per-record rotation under this name;
# `descend` now rotates for every recorder, so it is bound to nothing and counts 0.
_rotated_diag = None


def _tied(product, shape, data_product, bound, name, form):
    # a caller's product must match data_product(u), formed from the data at O(N D), along a
    # fixed random unit u
    product = np.asarray(product, dtype=np.float64)
    u = np.random.default_rng(0).standard_normal(shape[1])
    u /= np.linalg.norm(u)
    gap = float(np.max(np.abs(product @ u - data_product(u)))) if product.shape == shape else np.inf
    if not gap <= bound:
        raise ValueError(f"the {name} handed over is not {form} of the dataset: "
                         f"max |P u - {form} u| = {gap:.3e} > {bound:.3e} for a unit u")
    return product


def _check_spectrum(x, spectrum: Spectrum, cov=None):
    # the eigenbasis step trusts the spectrum, so it must diagonalise S = X^T X
    v, lams = spectrum.eigenvectors, spectrum.eigenvalues
    bound = SPECTRUM_TOL * float(np.max(np.abs(lams)))
    d = x.shape[1]
    s = x.T @ x if cov is None else _tied(cov, (d, d), lambda u: x.T @ (x @ u), bound,
                                          "covariance", "X^T X")
    residual = float(np.max(np.abs(s @ v - v * lams)))
    if not residual <= bound:
        raise ValueError(f"spectrum does not diagonalise the dataset covariance: "
                         f"max |S V - V diag(lam)| = {residual:.3e} > {bound:.3e}")


def _data_range(xv):
    # A view of the r leading columns of X V, those whose norm is above round-off against the
    # largest one (SPECTRUM_TOL); a spectrum that diagonalises X^T X orders the rest last
    # (ValueError otherwise)
    norms = np.sqrt(np.einsum("ij,ij->j", xv, xv))
    bound = SPECTRUM_TOL * float(np.max(norms, initial=0.0))
    r = int(np.count_nonzero(norms > bound))
    dropped = float(np.max(norms[r:], initial=0.0))
    if not dropped <= bound:
        raise ValueError(f"spectrum does not order the data's range first: a column of X V "
                         f"past the leading {r} has norm {dropped:.3e} > {bound:.3e}")
    log.debug("training on %d of %d eigen-directions; largest dropped column norm %.3e, "
              "smallest kept %.3e", r, xv.shape[1], dropped, np.min(norms[:r], initial=np.inf))
    return xv[:, :r]


def descend(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig, readout,
            activation="identity", marginalized=False, pre_activation=False, cov=None,
            xv=None) -> Run:
    """Full-batch gradient descent shared by every trained autoencoder.

    Initialises the weights per config.init, then repeats: gradient (plus
    config.weight_decay * W, the penalty being part of the objective), update,
    divergence check. marginalized=True takes the closed-form noise
    expectation of the linear objective against diag(lam) in the covariance
    eigenbasis, on (W1 V, V^T W2), at O(H^2 D) per step
    (marginalized_loss_and_grads); the spectrum must then diagonalise the
    dataset's covariance, checked once against cov (the caller's X^T X, tied
    to the data along a random direction) or one formed here (ValueError
    otherwise); it holds V^T W2 column-major. Otherwise every step
    backpropagates through one fresh corruption drawn from the seeded
    stream, in Gram form (_sampled_grads). Either objective, ||X||^2
    included, is formed only at recorded epochs. A leg with a readout of
    the hidden layer takes XV as xv (tied to the data like cov) or forms it
    once per run and, if noise-free or gaussian (rotation-invariant),
    iterates on (W1 V, V^T W2) against XV_r, the r columns of XV that hold
    data (_data_range): its large products are N x r x H. A laplace leg, and
    a linear one, which would pay an N x D x D product and hold XV beside X
    for it, train in pixel space against X. Eigenbasis weights are rotated
    back at the end. The divergence check reads the iterated weights and
    fails on a NaN or an infinity in either matrix.

    The run owns one Workspace that every step writes into (see Workspace
    and _sampled_grads); only a laplace leg holds an N x D corrupted batch.

    The run is recorded at epoch 0, every record_every epochs and at the final
    epoch: the objective, the weight norm, the worst rotated off-diagonal of
    V^T W2 W1 V (for d <= 64, where it is cheap) and readout(w1r, w2r), the
    network's D-vector of per-mode values read from the eigenbasis weights
    w1r = W1 V and w2r = V^T W2, which a pixel-space loop rotates at those
    epochs only. pre_activation=True calls readout(xv, xw1, w2r) instead, for
    a readout of the hidden layer: xv is XV (XV_r on an eigenbasis leg) and
    xw1 the clean pre-activation X W1^T (N x H), which an eigenbasis step has
    kept; a pixel-space record then rotates W1 only for the off-diagonal, as
    ||W1 V|| = ||W1||. readout must not keep or modify the arrays.
    """
    if spectrum.d != dataset.d:
        raise ValueError(f"spectrum dimension {spectrum.d} does not match dataset dim {dataset.d}")
    if marginalized and (activation != "identity" or pre_activation):
        raise ValueError("only the linear objective, read from its weights, has a "
                         "marginalised form")
    d, n, x = dataset.d, dataset.n, dataset.samples
    v = spectrum.eigenvectors
    if config.init == "orthogonal":
        init = init_orthogonal(d, config.hidden_dim, spectrum, config.init_scale, config.seed)
    else:
        init = init_small_random(d, config.hidden_dim, config.init_scale, config.seed)
    init = replace(init, activation=activation)
    rotated = marginalized or (pre_activation and config.noise.kind != "laplace")
    if marginalized:
        _check_spectrum(x, spectrum, cov)
        eps_eff = epsilon_from_noise(config.noise, n)
        lams = spectrum.eigenvalues
    elif pre_activation:
        if xv is None:
            xv = x @ v
        else:   # |X w| <= sqrt(lam_1) for a unit w, which sets the scale of X V u
            xv = _tied(xv, x.shape, lambda u: x @ (v @ u),
                       SPECTRUM_TOL * math.sqrt(float(np.max(np.abs(spectrum.eigenvalues)))),
                       "projection", "X V")
        if rotated:
            x = xv = _data_range(xv)
    if rotated:
        w1, w2 = rotate_weights(init.w1, init.w2, spectrum)
        if marginalized:    # column-major, so that the step's W2^T passes are unit-stride
            w2 = np.ascontiguousarray(w2.T).T
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
    track_offdiag = d <= 64
    modes, norms, losses = [], [], []
    worst_off = 0.0 if track_offdiag else np.nan

    def loss_and_grads(recorded):
        if marginalized:
            loss, g1, g2 = marginalized_loss_and_grads(model, lams, n, eps_eff, ws, recorded)
        else:
            loss, g1, g2 = _sampled_grads(model, x, config.noise, rng, ws, recorded, rotated)
        if gamma > 0.0:
            g1 += w1 * gamma
            g2 += w2 * gamma
        return loss, g1, g2

    def record(loss):
        nonlocal worst_off
        w2c = np.ascontiguousarray(w2)      # the sums below read W2 row-major, whatever its layout
        if gamma > 0.0:     # the decay penalty joins the loss only where it is recorded
            loss = loss + 0.5 * gamma * (np.sum(w1 * w1) + np.sum(w2c * w2c))
        if rotated:
            w1r, w2r = w1, w2c
        else:
            # ||W1 V|| = ||W1||: a pre-activation readout needs W1 V only for the off-diagonal
            w1r = w1 @ v if track_offdiag or not pre_activation else w1
            w2r = v.T @ w2
        if pre_activation:
            modes.append(readout(xv, ws["xw1"] if rotated else x @ w1.T, w2r))
        else:
            modes.append(readout(w1r, w2r))
        norms.append(float(np.sum(w1r * w1r) + np.sum(w2r * w2r)))
        losses.append(loss)
        if track_offdiag:
            m = w2r @ w1r
            np.fill_diagonal(m, 0.0)
            worst_off = max(worst_off, float(np.max(np.abs(m))))

    loss, g1, g2 = loss_and_grads(True)
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
        recorded = epoch % config.record_every == 0 or epoch == config.epochs
        loss, g1, g2 = loss_and_grads(recorded)
        if recorded:
            record(loss)
    if rotated:
        w1, w2 = w1 @ v.T, v @ w2
    times = record_times(config.epochs, config.record_every)
    return Run(times=times, modes=np.stack(modes, axis=0),
               norms=Trajectory(times=times, values=np.array(norms), kind="simulated",
                                mode_index=-1),
               losses=np.array(losses), max_offdiag=worst_off,
               model=Autoencoder(w1, w2, activation), init_model=init)


def run_linear_ae(dataset: Dataset, spectrum: Spectrum, config: TrainingConfig,
                  cov=None) -> Run:
    """Linear-network descent whose per-mode values are the diagonal of V^T W2 W1 V.

    config.loss_mode picks the marginalised objective, which trains in the
    covariance eigenbasis, or the sampled one, which trains in pixel space
    (see descend). The marginalised one needs a spectrum that diagonalises
    the dataset's covariance, checked against cov (X^T X) when the caller has
    it (ValueError otherwise, or when cov is not the dataset's X^T X).
    """
    return descend(dataset, spectrum, config,
                   lambda w1r, w2r: np.einsum("jh,hj->j", w2r, w1r),
                   marginalized=config.loss_mode == "marginalized", cov=cov)


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
    scalar pair; modes past the hidden width come out degenerate (c0 = 0,
    w0 <= 0), as they should, since the network cannot learn them.
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
        a = float(p @ p) if basis.shape[0] < h else 0.0   # full basis: degenerate, not round-off
        norm = math.sqrt(a)
        if norm > 0.0:
            basis = np.vstack([basis, p / norm])
        modes.append(ScalarMode.from_product(
            lam=float(lam), epsilon=epsilon, tau=tau,
            c0=float(4.0 * math.sqrt(a * b[j])), w0=float(a - b[j])))
    return modes
