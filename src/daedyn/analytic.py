"""Closed-form learning dynamics for noisy and weight-decayed linear autoencoders.

Learning decouples per eigen-direction of the input covariance into scalar
dynamics for w = w2 * w1. This module holds the exact trajectory solutions,
their fixed points, the noise/decay equivalence map, and optimal-rate ratios.

Conventions: noise enters through the effective strength eps (N * component
variance), weight decay through gamma_eff (N * user-facing penalty), and time
is measured in epochs against the constant tau = N / alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateTrajectoryError, UnsupportedModeError

C0_MIN = 1e-9          # below this the hyperbolic coordinates divide by ~0
OVERFLOW_ARG = 700.0   # exp saturation horizon; beyond it w(t) is the fixed point
CSV_BLOCK_ROWS = 1024  # float-table rows formatted per write: bounds the text held at once

TRAJECTORY_KINDS = ("analytic_dae", "analytic_wdae", "simulated", "estimated")


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic input-corruption family: none, gaussian(variance) or laplace(scale)."""

    kind: str
    variance: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "laplace"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.variance < 0.0:
            raise ValueError(f"negative noise variance {self.variance}")
        if self.scale < 0.0:
            raise ValueError(f"negative noise scale {self.scale}")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def gaussian(cls, variance):
        return cls(kind="gaussian", variance=float(variance))

    @classmethod
    def laplace(cls, scale):
        return cls(kind="laplace", scale=float(scale))


def epsilon_from_noise(model: NoiseModel, n: int) -> float:
    """Effective noise strength: 0, N * sigma^2 (gaussian) or 2 N b^2 (laplace)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if model.kind == "none":
        return 0.0
    if model.kind == "gaussian":
        return n * model.variance
    return 2.0 * n * model.scale ** 2


@dataclass(frozen=True)
class ScalarMode:
    """One eigen-direction's dynamics state.

    c0 is the conserved |w2^2 - w1^2| of the exact flow and theta0 the initial
    hyperbolic angle; both sign branches of the conserved quantity collapse to
    the same product trajectory, so only c0 and the signed product enter.
    """

    lam: float
    epsilon: float
    tau: float
    w1_0: float
    w2_0: float
    c0: float = field(init=False)
    theta0: float = field(init=False)

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"eigenvalue must be >= 0, got {self.lam}")
        if self.epsilon < 0.0:
            raise ValueError(f"effective noise must be >= 0, got {self.epsilon}")
        if self.tau <= 0.0:
            raise ValueError(f"time constant must be > 0, got {self.tau}")
        c0 = abs(self.w2_0 ** 2 - self.w1_0 ** 2)
        theta0 = math.asinh(2.0 * self.w2_0 * self.w1_0 / c0) if c0 > 0.0 else math.nan
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "theta0", theta0)

    @classmethod
    def from_product(cls, lam, epsilon, tau, c0, w0):
        """Build a mode from the conserved quantity and initial product directly."""
        if c0 < 0.0:
            raise ValueError(f"c0 must be >= 0, got {c0}")
        w2 = math.sqrt(0.5 * (math.hypot(c0, 2.0 * w0) + c0))
        w1 = w0 / w2 if w2 > 0.0 else 0.0
        return cls(lam=lam, epsilon=epsilon, tau=tau, w1_0=w1, w2_0=w2)

    @property
    def w0(self) -> float:
        return self.w2_0 * self.w1_0


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed mapped values w(t) for one mode, analytic or simulated."""

    times: np.ndarray
    values: np.ndarray
    kind: str
    mode_index: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("trajectory values must be finite")
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def dae_trajectory(mode: ScalarMode, t):
    """Exact mapped value w(t) for a noisy mode; accepts scalar or array epochs.

    Solves the hyperbolic-angle form of the per-mode flow with
    beta = c0 (1 + eps / lambda), zeta = sqrt(beta^2 + 4),
    delta = tanh(theta0 / 2) and E = exp(zeta lambda t / tau):

        theta_t = 2 atanh[ ((1 - E)(zeta^2 - beta^2 - 2 beta delta)
                            - 2 (1 + E) zeta delta)
                           / ((1 - E)(2 beta + 4 delta) - 2 (1 + E) zeta) ]
        w(t)    = (c0 / 2) sinh(theta_t)

    Internally everything is scaled by 1/E so no exponent ever overflows;
    zeta^2 - beta^2 is replaced by the identity value 4. Past the exp
    saturation horizon the fixed point lambda / (lambda + eps) is returned
    directly (the trajectory is within ~1e-300 of it).
    """
    if mode.lam <= 0.0:
        raise UnsupportedModeError(
            "closed form requires lambda > 0; modes with zero eigenvalue only "
            "decay and need the numeric simulator fallback")
    if mode.c0 <= C0_MIN:
        raise DegenerateTrajectoryError(
            f"c0 = {mode.c0:.3e} <= {C0_MIN}; hyperbolic coordinates are "
            "unusable, use the numeric simulator fallback")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("epochs must be >= 0")
    lam, eps, tau, c0 = mode.lam, mode.epsilon, mode.tau, mode.c0
    beta = c0 * (1.0 + eps / lam)
    zeta = math.sqrt(beta * beta + 4.0)
    delta = math.tanh(mode.theta0 / 2.0)
    # zeta * lam * t / tau in that order, its bytes unchanged; an inf rate times t = 0 is NaN
    rate = zeta * lam
    if not math.isfinite(rate):
        raise OverflowError(f"the closed form's rate zeta * lambda overflows at lambda={lam:g}")
    arg = rate * t_arr / tau
    u = np.exp(-arg)
    num = (u - 1.0) * (4.0 - 2.0 * beta * delta) - 2.0 * (u + 1.0) * zeta * delta
    den = (u - 1.0) * (2.0 * beta + 4.0 * delta) - 2.0 * (u + 1.0) * zeta
    theta_t = 2.0 * np.arctanh(num / den)
    w = 0.5 * c0 * np.sinh(theta_t)
    w = np.where(arg > OVERFLOW_ARG, lam / (lam + eps), w)
    return w if w.ndim else float(w)


def wdae_trajectory(lam, gamma_eff, tau, w0, t):
    """Exact mapped value under weight decay, from equal initial weights w1 = w2.

    Implements w(t) = xi E / (E - 1 + xi / w0) with xi = 1 - gamma_eff / lambda
    and E = exp(2 xi lambda t / tau); the lambda factor in the exponent comes
    from integrating the underlying flow and is required for the solution to
    satisfy it at every eigenvalue, not just lambda = 1. For xi < 0 the same
    expression decays to zero; xi = 0 degenerates to the algebraic decay
    w0 / (1 + 2 lambda w0 t / tau).
    """
    if lam <= 0.0:
        raise UnsupportedModeError("closed form requires lambda > 0")
    if gamma_eff < 0.0:
        raise ValueError(f"effective decay must be >= 0, got {gamma_eff}")
    if tau <= 0.0:
        raise ValueError(f"time constant must be > 0, got {tau}")
    if w0 <= 0.0:
        raise ValueError(f"initial product must be > 0 (formula divides by it), got {w0}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValueError("epochs must be >= 0")
    xi = 1.0 - gamma_eff / lam
    if xi > 0.0:
        u = np.exp(-2.0 * xi * lam * t_arr / tau)   # 1/E, stays in (0, 1]
        w = xi / (1.0 - u + u * (xi / w0))
    elif xi < 0.0:
        e = np.exp(2.0 * xi * lam * t_arr / tau)    # decays from 1 toward 0
        w = xi * e / (e - 1.0 + xi / w0)
    else:
        w = w0 / (1.0 + 2.0 * lam * w0 * t_arr / tau)
    return w if w.ndim else float(w)


def dae_fixed_point(lam, epsilon):
    """Asymptotic mapping lambda / (lambda + eps)."""
    if lam < 0.0 or epsilon < 0.0:
        raise ValueError("lambda and epsilon must be >= 0")
    if lam + epsilon <= 0.0:
        raise UnsupportedModeError("fixed point undefined for lambda = epsilon = 0")
    return lam / (lam + epsilon)


def wdae_fixed_point(lam, gamma_eff):
    """Asymptotic mapping 1 - gamma_eff / lambda, clamped at the zero attractor."""
    if lam <= 0.0:
        raise UnsupportedModeError("fixed point requires lambda > 0")
    if gamma_eff < 0.0:
        raise ValueError(f"effective decay must be >= 0, got {gamma_eff}")
    return max(0.0, 1.0 - gamma_eff / lam)


def equivalent_decay(lam, epsilon):
    """Effective decay with the same fixed point as noise eps: lambda eps / (lambda + eps)."""
    if lam < 0.0 or epsilon < 0.0:
        raise ValueError("lambda and epsilon must be >= 0")
    if lam + epsilon <= 0.0:
        raise UnsupportedModeError("undefined for lambda = epsilon = 0")
    return lam * epsilon / (lam + epsilon)


def optimal_rates(lam, epsilon, gamma_eff, tau):
    """Stability-optimal learning rates and their ratio.

    Returns (alpha_eps, alpha_gamma, R) with alpha_eps = tau / (2 lambda + 3 eps),
    alpha_gamma = tau / (2 lambda + gamma_eff) and R = alpha_eps / alpha_gamma.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if epsilon < 0.0 or gamma_eff < 0.0:
        raise ValueError("epsilon and gamma_eff must be >= 0")
    if tau <= 0.0:
        raise ValueError(f"time constant must be > 0, got {tau}")
    alpha_eps = tau / (2.0 * lam + 3.0 * epsilon)
    alpha_gamma = tau / (2.0 * lam + gamma_eff)
    return alpha_eps, alpha_gamma, alpha_eps / alpha_gamma


def scalar_loss_and_grad(w1, w2, lam, epsilon, tau):
    """Per-mode loss and its exact gradients.

    loss = lam/(2 tau) (1 - w2 w1)^2 + eps/(2 tau) (w2 w1)^2; the negated
    gradients scaled by tau are the right-hand sides of the per-mode flow.
    """
    if tau <= 0.0:
        raise ValueError(f"time constant must be > 0, got {tau}")
    w = w2 * w1
    loss = lam / (2.0 * tau) * (1.0 - w) ** 2 + epsilon / (2.0 * tau) * w ** 2
    g1 = -(lam * w2 * (1.0 - w) - epsilon * w2 ** 2 * w1) / tau
    g2 = -(lam * w1 * (1.0 - w) - epsilon * w1 ** 2 * w2) / tau
    return loss, g1, g2


def dae_series(mode, times, mode_index=1) -> Trajectory:
    """Trajectory wrapper around dae_trajectory on a time grid."""
    return Trajectory(times=np.asarray(times, dtype=np.float64),
                      values=dae_trajectory(mode, times),
                      kind="analytic_dae", mode_index=mode_index)


def wdae_series(lam, gamma_eff, tau, w0, times, mode_index=1) -> Trajectory:
    """Trajectory wrapper around wdae_trajectory on a time grid."""
    return Trajectory(times=np.asarray(times, dtype=np.float64),
                      values=wdae_trajectory(lam, gamma_eff, tau, w0, times),
                      kind="analytic_wdae", mode_index=mode_index)


def first_crossing_time(times, values, threshold):
    """Earliest recorded time with value >= threshold, or None if never reached."""
    values = np.asarray(values)
    hits = np.flatnonzero(values >= threshold)
    if hits.size == 0:
        return None
    return float(np.asarray(times, dtype=np.float64)[hits[0]])


def _column_texts(values):
    """CSV field of each value, as one list per CSV_BLOCK_ROWS rows: str of an int64, repr of a
    float64 and the empty field for NaN. Each distinct bit pattern in a block is formatted once;
    bits, not values, keep 0.0 and -0.0 apart."""
    for start in range(0, values.size, CSV_BLOCK_ROWS):
        block = values[start:start + CSV_BLOCK_ROWS]
        _, first, inverse = np.unique(block.view(np.int64), return_index=True,
                                      return_inverse=True)
        texts = ["" if x != x else repr(x) for x in block[first].tolist()]
        yield list(map(texts.__getitem__, inverse.tolist()))


def _column(values):
    """values as a contiguous int64 array if they are integers, else as float64."""
    values = np.asarray(values)
    return np.ascontiguousarray(values, np.int64 if values.dtype.kind in "iu" else np.float64)


def write_columns(path, header, tables):
    """The one CSV emitter: tables of columns as rows of commas, each ending in CRLF.

    A column is a str, the same field on every row, or int64 or float64 values.
    Integers are written with str, floats as their shortest round-trip repr and NaN as an
    empty field, so output is byte-reproducible; values are formatted and written
    CSV_BLOCK_ROWS rows at a time. A table's first non-str column is a grid (a trajectory
    file's epochs): its texts are kept, one newline-joined string per block, and formatted
    again only when the next table's grid differs in dtype or bits. A header of None
    writes no header row. The parent directory is created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid, grid_blocks = None, []
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        for table in tables:
            columns = [column if isinstance(column, str) else _column(column) for column in table]
            at = next(i for i, column in enumerate(columns) if not isinstance(column, str))
            if (grid is None or grid.dtype != columns[at].dtype
                    or not np.array_equal(grid.view(np.int64), columns[at].view(np.int64))):
                grid = columns[at]
                # one string per block, not one per row: a 200 001-epoch grid kept as
                # separate texts raised a command's peak RSS by a third
                grid_blocks = ["\n".join(texts) for texts in _column_texts(grid)]
            columns = [itertools.repeat(itertools.repeat(column)) if isinstance(column, str)
                       else _column_texts(column) for column in columns]
            columns[at] = (block.split("\n") for block in grid_blocks)
            for block in zip(*columns):
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_trajectory_csv(path, trajectories):
    """Shared plot-data schema: header epoch,mode,kind,value; one row per (t, mode).

    mode is the 1-based eigen-direction rank; -1 is reserved for weight-norm
    series. Written by write_columns, so the epochs the trajectories share
    are formatted once per file and each distinct value once per block.
    """
    write_columns(path, ["epoch", "mode", "kind", "value"],
                  ([traj.times, f"{traj.mode_index},{traj.kind}", traj.values]
                   for traj in trajectories))
