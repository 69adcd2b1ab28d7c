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
from .spectrum import (Dataset, Spectrum, covariance, gram_product, random_orthogonal,
                       rotate_weights)

log = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e12
# max |S V - V diag(lam)| relative to the largest |lam|, and a round-off column norm of X V
# relative to the largest one (an eigenvalue at 1e-8 lam_1 has norm 1e-4 sqrt(lam_1): data)
SPECTRUM_TOL = 1e-8
INIT_SCHEMES = ("small_random", "orthogonal")
LOSS_MODES = ("marginalized", "sampled")
LAPLACE_BLOCK = 32_768  # values per Laplace-draw pass: a block and its temporary fit in cache
STEP_BLOCK_ROWS = 256   # rows per block of a Laplace step: its draw and products stay in cache
SPECTRUM_CHECK_ROWS = 128   # rows of S V - V diag(lam) formed at once by _check_spectrum
QR_RANK_TOL = 1e-8  # an R whose diagonal spans more than 1/QR_RANK_TOL is not inverted (_w1_qr)


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
    A buffer exists only once a step has needed it: a Laplace leg holds one
    STEP_BLOCK_ROWS x D block of noise, asked for apart_from each row block
    of X and placed anew half a page from it on every call (see _page_apart),
    a Gaussian leg holds its N k + m D low-rank draw (the whole N x D draw
    where W1 has no R^-1: H >= D or a rank-deficient W1) and a noise-free one
    no draw at all; no leg holds an N x D corrupted batch. A Laplace draw's
    values follow the seeded stream alone, whatever its block size or place;
    the step's sums over the row blocks follow STEP_BLOCK_ROWS. A Gaussian or
    noise-free step also keeps its clean pre-activation X W1^T (N x H) under
    "xw1", which a record of the hidden layer reads; a Laplace step's
    pre-activation is of its corrupted rows and is not kept. A noise-free
    leg stepped in sample space (N < 2 r, see descend) iterates that
    pre-activation in "xw1" itself and holds its N x N K and a few N x H
    arrays beside the workspace, never the gradients. A buffer handed back
    by a step is overwritten by the next one.
    """

    def __call__(self, name, shape, apart_from=None):
        buf = self.get(name)
        if apart_from is not None:
            # placed anew in the same memory: a last, shorter block or the next step's first
            # one allocates nothing
            buf = self[name] = _page_apart(shape, apart_from, None if buf is None else buf.base)
        elif buf is None or buf.shape != shape:
            buf = self[name] = np.empty(shape)
        return buf


def _page_apart(shape, other, raw=None):
    # An empty float64 array half a page (2048 bytes) from other's address modulo the 4096-byte
    # page: a view of raw if raw holds its size plus 512 values, else of a new array that does.
    # A store into one array and a load from another at the same page offset collide in the
    # CPU's memory disambiguation (4K aliasing): a Laplace noise buffer at X's offset made
    # sampled training 10-22% slower, as a matter of where the allocator put it
    size = math.prod(shape)
    if raw is None or raw.size < size + 512:
        raw = np.empty(size + 512)
    skip = (2048 - raw.ctypes.data + other.ctypes.data) % 4096 // 8
    return raw[skip:skip + size].reshape(shape)


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


def _draw_noise(rng, noise: NoiseModel, shape, ws=None, apart_from=None):
    # The draw is written into the workspace's "noise" buffer, placed half a page from
    # apart_from if given (see Workspace), or into a new array without a workspace; it
    # leaves rng in the state rng.normal or rng.random(shape) would.
    # standard_normal scaled in place is bit for bit rng.normal(0, sigma).
    if noise.kind == "none":
        return None
    out = np.empty(shape) if ws is None else ws("noise", shape, apart_from)
    if noise.kind == "gaussian":
        rng.standard_normal(out=out)
        out *= np.sqrt(noise.variance)
        return out
    # Laplace: the inverse CDF copysign(-b log(1 - 2|U - 1/2|), U - 1/2) on rng.random's
    # uniforms, LAPLACE_BLOCK values at a time. On numpy's 2^-53 grid U - 1/2 and
    # 1 - 2|U - 1/2| (2U or 2 - 2U) are exact, so the values are b log(2U) and
    # -b log(2 - 2U) to the vector log's 2 ulp, U and 1 - U give exact negatives, and
    # U = 1/2 gives +0.0. The log's argument is clamped at 2^-53, below the smallest
    # nonzero one (2^-52), so U = 0 gives -53 b log 2, not -inf. The values follow the
    # stream alone: a draw made in row blocks has the bits of one whole draw.
    flat, b = out.reshape(-1), noise.scale
    tmp = np.empty(min(out.size, LAPLACE_BLOCK))
    for start in range(0, flat.size, LAPLACE_BLOCK):
        u = flat[start:start + LAPLACE_BLOCK]
        v = tmp[:u.size]
        rng.random(out=u)
        u -= 0.5
        np.abs(u, out=v)
        v *= -2.0
        v += 1.0
        np.maximum(v, 2.0 ** -53, out=v)
        np.log(v, out=v)
        v *= -b
        np.copysign(v, u, out=u)
    return out


def _gram_form(model: Autoencoder, x, z, b):
    # One row block of the Gram-form backprop step on (1/2N) sum ||x_i - W2 phi(W1 x_tilde_i)||^2,
    # which never forms the N x D residual R = A W2^T - X, where Z = X_tilde W1^T is the
    # pre-activation of the corrupted batch and A = phi(Z):
    #   grad2 = R^T A / N = (W2 (A^T A) - X^T A) / N,
    #   delta = (R W2) * phi'(Z) = (A (W2^T W2) - X W2) * phi'(Z),
    #   loss  = (sum((W2^T W2) * (A^T A)) - 2 sum(W2 * X^T A) + ||X||^2) / 2N,
    #   grad1 = delta^T X_tilde / N.
    # A^T A, X^T A and delta^T X_tilde are sums over rows, so a step adds them up block by
    # block (_sampled_grads). x may hold only the r <= D leading columns of inputs whose other
    # columns are zero, as the data's range in the covariance eigenbasis does. b is W2^T W2;
    # returns the block's (A^T A, (X^T A)^T) and delta
    phi, dphi = ACTIVATIONS[model.activation]
    a = phi(z)
    part = (a.T @ a, a.T @ x)           # (X^T A)^T: BLAS runs this orientation faster
    delta = a @ b
    delta -= x @ model.w2[:x.shape[1]]   # the rows of W2 that meet the data
    if dphi is not None:
        delta *= dphi(z)
    return part, delta


def _w1_qr(w1):
    # (R, R^-1) of the thin QR W1^T = Q R, for the Gaussian step's low-rank draw, where H < D
    # and R is well conditioned (its smallest diagonal above QR_RANK_TOL of its largest): Q is
    # not formed, the step applies it as W1^T R^-1. At H >= D, or for a rank-deficient W1 (two
    # equal rows) or one holding a NaN, R^-1 does not exist: there Q = I, R = W1^T, and the
    # result is (W1^T, None)
    h, d = w1.shape
    if h < d:
        rq = np.linalg.qr(w1.T, mode="r")
        diag = np.abs(np.diagonal(rq))
        if diag.min() > QR_RANK_TOL * diag.max():
            return rq, np.linalg.inv(rq)
    return w1.T, None


def _sampled_grads(model: Autoencoder, x, noise: NoiseModel, rng, ws=None, with_loss=True):
    # Backprop loss and gradients on one fresh corruption E of x, its r <= D leading columns
    # (see _gram_form) while E covers all D; the gradients land in "g1"/"g2", the draw in
    # "noise", and with_loss=False returns None for the loss. A step is four N x r x H
    # products (Z, X W2, A^T X, delta^T X_tilde) plus O((N + D) H^2), over row blocks.
    # Laplace noise is drawn STEP_BLOCK_ROWS rows at a time, and each block of X_tilde = X + E
    # is formed in the draw's buffer and used while it is in cache: no N x D array is made.
    # Its gradients are summed over those row blocks, so a Laplace step's last bits follow
    # STEP_BLOCK_ROWS; its draw's do not. A noise-free or Gaussian step reads X in place as
    # one block. Gaussian noise is drawn only where the step sees it, as E W1^T and
    # delta^T E: with W1^T = Q R (Q is D x k) and delta = U R_d (R_d is m x H,
    # m = min(N, H)), E Q is N x k i.i.d. noise, and the rest of delta^T E,
    # delta^T E (I - Q Q^T), is independent of it and distributed as R_d^T G (I - Q Q^T)
    # with G m x D i.i.d. noise. So Z = X W1^T + (E Q) R and
    # N grad1 = delta^T X + (delta^T E Q) Q^T + R_d^T G (I - Q Q^T), from N k + m D normals
    # in one draw: the same distribution as the full draw, not the same stream; its bits
    # follow LAPACK's QR of W1^T and of delta. Q is applied as W1^T R^-1 (_w1_qr). Where
    # R^-1 does not exist Q = I, R = W1^T and m = 0: E Q is the whole N x D draw and there
    # is no G term. The QR of delta needs all N rows, which one block has. A noise-free or
    # Gaussian step keeps the clean X W1^T in "xw1", which a hidden-layer record reads; a
    # Laplace step's Z is of the corrupted rows, so it keeps nothing there.
    ws = Workspace() if ws is None else ws
    w1, w2 = model.w1, model.w2
    (n, r), (h, d) = x.shape, w1.shape
    grad1, grad2 = ws("g1", w1.shape), ws("g2", w2.shape)
    laplace, gaussian = noise.kind == "laplace", noise.kind == "gaussian"
    if gaussian:
        rq, rinv = _w1_qr(w1)
        k, m = rq.shape[0], 0 if rinv is None else min(n, h)
        draw = _draw_noise(rng, noise, (n * k + m * d,), ws)
        eq, g = draw[:n * k].reshape(n, k), draw[n * k:].reshape(-1, d)
    b = w2.T @ w2                     # H x H
    rows = STEP_BLOCK_ROWS if laplace else n
    for start in range(0, n, rows):
        xb = x[start:start + rows]
        x_tilde = xb
        if laplace:
            x_tilde = _draw_noise(rng, noise, xb.shape, ws, xb)
            x_tilde += xb
        z = np.matmul(x_tilde, w1[:, :r].T, out=None if laplace else ws("xw1", (n, h)))
        if gaussian:
            z = z + eq @ rq
        part, delta = _gram_form(model, xb, z, b)
        if start == 0:      # the first block's products start the sums: one block keeps their bits
            c, atx = part
            np.matmul(delta.T, x_tilde, out=grad1[:, :r])
        else:
            c += part[0]
            atx += part[1]
            grad1[:, :r] += delta.T @ x_tilde
    loss = None
    if with_loss:
        loss = 0.5 / n * (float(np.sum(b * c)) - 2.0 * float(np.sum(w2[:r].T * atx))
                          + float(np.vdot(x, x)))
    np.matmul(w2, c, out=grad2)
    grad2[:r] -= atx.T
    grad2 /= n
    del part, c, atx    # not held through the Gaussian terms, where a step's memory peaks
    grad1[:, r:] = 0.0
    if gaussian:
        s = delta.T @ eq                                  # delta^T E Q
        if rinv is None:                                  # Q = I
            grad1 += s
        else:                                             # Q = W1^T R^-1
            rdg = np.linalg.qr(delta, mode="r").T @ g     # R_d^T G, H x D
            s -= (rdg @ w1.T) @ rinv                      # delta^T E Q - R_d^T G Q
            grad1 += rdg
            grad1 += (s @ rinv.T) @ w1
    grad1 /= n
    return loss, grad1, grad2


def _beyond_limit(w1, w2):
    # every comparison with NaN is false, and max/min propagate it, so a NaN or an infinity
    # in either matrix counts as beyond the divergence limit
    return not all(w.max() <= DIVERGENCE_LIMIT and w.min() >= -DIVERGENCE_LIMIT for w in (w1, w2))


class _WeightSpace:
    # descend's step on the iterated weights themselves: grads(with_loss) gives
    # the objective's (loss, grad1, grad2), the decay is added to them, the update is
    # W -= alpha g, and the divergence check reads every entry
    def __init__(self, model: Autoencoder, grads, alpha, gamma):
        self.w1, self.w2, self.grads, self.alpha, self.gamma = (model.w1, model.w2, grads,
                                                                alpha, gamma)

    def gradient(self, with_loss):
        loss, self.g1, self.g2 = self.grads(with_loss)
        if self.gamma > 0.0:
            self.g1 += self.w1 * self.gamma
            self.g2 += self.w2 * self.gamma
        return loss

    def update(self):
        self.g1 *= self.alpha
        self.g2 *= self.alpha
        self.w1 -= self.g1
        self.w2 -= self.g2

    def diverged(self):
        return _beyond_limit(self.w1, self.w2)

    def form(self):
        pass


class _SampleSpace:
    # descend's noise-free eigenbasis step in sample space, on X = XV_r (N x r, r <= D) with
    # K = X X^T (N x N, 8 N^2 bytes) formed once per leg. The iterates are the N x H
    #   Z = X W1^T <- beta Z - (alpha/N) K delta,   Y = X W2 <- beta Y - (alpha/N) (Y C - K A),
    # with beta = 1 - alpha gamma, A = phi(Z), C = A^T A and delta = (A b - Y) * phi'(Z), so a
    # step's one data-sized product is K [delta | A], 2 N^2 H against the weight-space step's
    # 4 N r H. The weights are held as W1 = beta^t W1_0 + P^T X and W2 = W2_0 M + X^T F, X's
    # columns past r being zero, with
    #   P <- beta P - (alpha/N) delta,  F <- beta F - (alpha/N) (F C - A),  M <- beta M - (alpha/N) M C,
    # each O(N H^2 + H^3). b = W2^T W2 = M^T B_0 M + M^T Y_0^T F + F^T Y and the loss
    # (sum(b C) - 2 sum(Y A) + ||X||^2) / 2N read no X. form() writes the weights into the
    # model's arrays, for a record and the divergence check. Z is the workspace's "xw1", the
    # clean pre-activation a hidden-layer record reads.
    def __init__(self, model: Autoencoder, x, ws, alpha, gamma):
        (n, r), h = x.shape, model.w1.shape[0]
        self.model, self.x, self.r = model, x, r
        self.phi, self.dphi = ACTIVATIONS[model.activation]
        self.beta, self.eta = 1.0 - alpha * gamma, alpha / n
        self.k = x @ x.T
        self.w1_0, self.w2_0 = model.w1.copy(), model.w2.copy()
        self.w1_sq, self.x_sq = float(np.vdot(self.w1_0, self.w1_0)), float(np.vdot(x, x))
        self.z0 = x @ self.w1_0[:, :r].T
        self.y0 = x @ self.w2_0[:r]
        self.z = ws("xw1", (n, h))
        self.z[...] = self.z0
        self.y = self.y0.copy()
        self.b0 = self.w2_0.T @ self.w2_0
        self.b = self.b0
        self.p, self.f, self.m, self.c = np.zeros((n, h)), np.zeros((n, h)), np.eye(h), 1.0
        self.da = np.empty((n, 2 * h))      # [delta | A], the operand of the step's K product
        self.kda = np.empty((n, 2 * h))

    def gradient(self, with_loss):
        h = self.b.shape[0]
        delta, a = self.da[:, :h], self.da[:, h:]
        a[...] = self.phi(self.z)
        self.cc = a.T @ a
        loss = None
        if with_loss:
            loss = 0.5 / self.z.shape[0] * (float(np.sum(self.b * self.cc))
                                            - 2.0 * float(np.sum(self.y * a)) + self.x_sq)
        np.matmul(a, self.b, out=delta)
        delta -= self.y
        if self.dphi is not None:
            delta *= self.dphi(self.z)
        return loss

    def update(self):
        beta, eta, cc, h = self.beta, self.eta, self.cc, self.b.shape[0]
        kda = np.matmul(self.k, self.da, out=self.kda)
        delta, a, kd, ka = self.da[:, :h], self.da[:, h:], kda[:, :h], kda[:, h:]
        # each state S <- beta S - (alpha/N) T, every T taken from the old states
        terms = (self.y @ cc - ka, kd, delta, self.f @ cc - a, self.m @ cc)
        for state, term in zip((self.y, self.z, self.p, self.f, self.m), terms):
            state *= beta
            state -= eta * term
        self.c *= beta
        m = self.m
        self.b = m.T @ self.b0 @ m + m.T @ (self.y0.T @ self.f) + self.f.T @ self.y

    def norms(self):
        # (||W1||^2, ||W2||^2) at O(N H), forming neither: ||W2||^2 = tr b, and ||W1||^2 =
        # c^2 ||W1_0||^2 + 2 c <Z_0, P> + <P, K P> with c = beta^t and K P = Z - c Z_0
        c = self.c
        w1_sq = (c * c * self.w1_sq + c * float(np.vdot(self.z0, self.p))
                 + float(np.vdot(self.p, self.z)))
        return w1_sq, float(np.trace(self.b))

    def diverged(self):
        # max |W| <= ||W||_F, so only a norm at half the limit or more (or NaN) forms the
        # weights for the elementwise check: the leg stops at the epoch that check would
        bound = (0.5 * DIVERGENCE_LIMIT) ** 2
        if all(sq < bound for sq in self.norms()):
            return False
        self.form()
        return _beyond_limit(self.model.w1, self.model.w2)

    def form(self):
        w1, w2, r = self.model.w1, self.model.w2, self.r
        np.multiply(self.w1_0, self.c, out=w1)
        w1[:, :r] += self.p.T @ self.x
        np.matmul(self.w2_0, self.m, out=w2)
        w2[:r] += self.x.T @ self.f


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


def _check_spectrum(data, spectrum: Spectrum, cov=None):
    # the eigenbasis step trusts the spectrum, so it must diagonalise S = X^T X; data is a
    # Dataset or an N x D array, whose X^T X u is streamed over row blocks (gram_product)
    v, lams = spectrum.eigenvectors, spectrum.eigenvalues
    bound = SPECTRUM_TOL * float(np.max(np.abs(lams)))
    d = v.shape[0]
    s = covariance(data) if cov is None else _tied(cov, (d, d), lambda u: gram_product(data, u),
                                                   bound, "covariance", "X^T X")
    # over row blocks of S, which are contiguous: a few block x D temporaries, not four D x D;
    # np.max, unlike Python's max, keeps a NaN
    peaks = []
    for start in range(0, d, SPECTRUM_CHECK_ROWS):
        rows = slice(start, start + SPECTRUM_CHECK_ROWS)
        block = s[rows] @ v
        block -= v[rows] * lams
        peaks.append(np.max(np.abs(block, out=block)))
    residual = float(np.max(peaks))
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
    otherwise), both read from the data in row blocks, so image counts are
    never formed into X; it holds V^T W2 column-major. Otherwise X is read
    (dataset.samples, formed on first read from counts) and every step
    backpropagates through one fresh corruption drawn from the seeded
    stream, in Gram form (_sampled_grads). Either objective, ||X||^2
    included, is formed only at recorded epochs; every step forms its
    gradients, the one after the last update too. A leg with a readout of
    the hidden layer takes XV as xv (tied to the data like cov) or forms it
    once per run and, if noise-free or gaussian (rotation-invariant), iterates on
    (W1 V, V^T W2) against XV_r, the r columns of XV that hold data
    (_data_range): its large products are N x r x H, four a step. A
    noise-free one steps in sample space instead (_SampleSpace) where that
    takes fewer flops over the leg: there a step's one large product,
    K [delta | A], is 2 N^2 H against those 4 N r H, and K = XV_r XV_r^T,
    N x N, is formed once per leg at N^2 r flops and held through it. So a
    leg of many epochs steps in sample space at N < 2 r, as at N = r <= D,
    and holds 2 MB for K at N = 500; at N = 20 000 >= 2 r, where K would be
    3.2 GB, it steps on the weights, as does a leg of 0 epochs. Its weights
    are formed from that state only at records, the last epoch's among
    them, and where the divergence check needs them. A laplace leg, and a linear one, which
    would pay an N x D x D product and hold XV beside X for it, train in
    pixel space against X. Eigenbasis weights are rotated back at the end.
    The divergence check reads the iterated weights, entry by entry, and
    fails on a NaN or an infinity in either matrix; a sample-space leg
    reads them only once a norm bound reaches half the limit.

    The run owns one Workspace that every step writes into (see Workspace
    and _sampled_grads); a laplace leg corrupts X in row blocks and holds no
    N x D corrupted batch.

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
    d, n = dataset.d, dataset.n
    # the record arrays come first: a request too large to record fails here (MemoryError),
    # before any step
    times = record_times(config.epochs, config.record_every)
    modes, norms, losses = np.empty((times.size, d)), np.empty(times.size), np.empty(times.size)
    v = spectrum.eigenvectors
    if config.init == "orthogonal":
        init = init_orthogonal(d, config.hidden_dim, spectrum, config.init_scale, config.seed)
    else:
        init = init_small_random(d, config.hidden_dim, config.init_scale, config.seed)
    init = replace(init, activation=activation)
    rotated = marginalized or (pre_activation and config.noise.kind != "laplace")
    if marginalized:     # reads the data in row blocks: an image file's X is never formed
        _check_spectrum(dataset, spectrum, cov)
        eps_eff = epsilon_from_noise(config.noise, n)
        lams = spectrum.eigenvalues
    else:
        x = dataset.samples
    if pre_activation:
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
    worst_off = 0.0 if track_offdiag else np.nan

    if marginalized:
        def grads(with_loss):
            return marginalized_loss_and_grads(model, lams, n, eps_eff, ws, with_loss)
    else:
        def grads(with_loss):
            return _sampled_grads(model, x, config.noise, rng, ws, with_loss)
    leg = _WeightSpace(model, grads, alpha, gamma)
    if rotated and not marginalized and config.noise.kind == "none":
        # the flops of the leg's data-sized products: N^2 r for K once and 2 N^2 H a step in
        # sample space, against 4 N r H a step on the weights; over many epochs, N < 2 r
        r, h, epochs = x.shape[1], config.hidden_dim, config.epochs
        if n * n * r + 2 * n * n * h * epochs < 4 * n * r * h * epochs:
            leg = _SampleSpace(model, x, ws, alpha, gamma)

    def record(row, loss):
        nonlocal worst_off
        leg.form()
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
            modes[row] = readout(xv, ws["xw1"] if rotated else x @ w1.T, w2r)
        else:
            modes[row] = readout(w1r, w2r)
        norms[row] = np.sum(w1r * w1r) + np.sum(w2r * w2r)
        losses[row] = loss
        if track_offdiag:
            m = w2r @ w1r
            np.fill_diagonal(m, 0.0)
            worst_off = max(worst_off, float(np.max(np.abs(m))))

    record(0, leg.gradient(True))
    row = 0
    for epoch in range(1, config.epochs + 1):
        leg.update()
        if leg.diverged():
            raise DivergenceError(f"run diverged at epoch {epoch}", step=epoch)
        recorded = epoch % config.record_every == 0 or epoch == config.epochs
        loss = leg.gradient(recorded)
        if recorded:
            row += 1
            record(row, loss)
    if rotated:     # the last record formed a sample-space leg's final weights
        w1, w2 = w1 @ v.T, v @ w2
    return Run(times=times, modes=modes,
               norms=Trajectory(times=times, values=norms, kind="simulated", mode_index=-1),
               losses=losses, max_offdiag=worst_off,
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
