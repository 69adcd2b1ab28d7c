"""Experiment CLI: analytic predictions, simulations, ingestion, CSV plot data.

Configuration comes from a flat key=value file plus command-line flags, with
precedence flag > file > default. Every experiment emits CSV plot data in the
shared epoch,mode,kind,value schema (mode -1 is the weight-norm series);
rendering is out of scope. Exit codes: 0 success, 2 config error, 3 numeric
divergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import analytic, data, nonlinear, simulate, spectrum
from .analytic import NoiseModel
from .errors import ConfigError, DegenerateTrajectoryError, DivergenceError, ParseError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

DEFAULT_LAMBDAS = [2.5, 1.0, 0.5]
DEFAULT_EPSILONS = [0.5, 1.0, 2.0]
DEFAULT_MODES = {"real-data": [1, 4, 8, 16, 32], "nonlinear": [1, 2, 3, 4]}
W0_FLOOR = 1e-15


@dataclass
class ExperimentConfig:
    """Resolved settings for one subcommand invocation."""

    experiment: str
    out: Path = Path("out")
    seed: int = 0
    lambdas: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDAS))
    epsilons: list[float] | None = None
    sigma2: float | None = None
    laplace_b: float | None = None
    gamma: float = 0.0
    n: int = 100
    alpha: float = 1.0
    epochs: int = 1000
    hidden: int = 32
    init: str = "small_random"
    init_scale: float = 1e-3
    record_every: int = 10
    modes: list[int] | None = None
    dataset: Path | None = None
    fmt: str | None = None
    center: bool = False
    scale: bool = False
    activation: str = "relu"
    w0: float = 1e-3
    weight_ratio: float = 2.0
    w1_0: float | None = None
    w2_0: float | None = None
    grid_min: float = -1.5
    grid_max: float = 1.5
    grid_points: int = 61
    paths: int = 6
    eps_points: int = 21
    eps_max: float = 10.0
    eigenvectors: bool = False
    loss_mode: str = "marginalized"
    noise_draws: int = 1

    @property
    def tau(self) -> float:
        return self.n / self.alpha

    def validate(self):
        for name, value in vars(self).items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise ConfigError(f"{name.replace('_', '-')} must be finite, got {value}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.alpha <= 0.0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.record_every < 1:
            raise ConfigError(f"record-every must be >= 1, got {self.record_every}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.sigma2 is not None and self.sigma2 < 0.0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.laplace_b is not None and self.laplace_b < 0.0:
            raise ConfigError(f"laplace-b must be >= 0, got {self.laplace_b}")
        if any(lam <= 0.0 for lam in self.lambdas):
            raise ConfigError(f"lambda grid must be positive, got {self.lambdas}")
        if self.epsilons is not None and any(e < 0.0 for e in self.epsilons):
            raise ConfigError(f"epsilon grid must be >= 0, got {self.epsilons}")
        if self.init not in ("small_random", "orthogonal"):
            raise ConfigError(f"unknown init scheme {self.init!r}")
        if self.activation not in simulate.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.experiment in ("real_data", "nonlinear", "ingest") or self.dataset is not None:
            if self.dataset is None:
                raise ConfigError("this experiment needs --dataset")
            if not Path(self.dataset).is_file():
                raise ConfigError(f"dataset file not found: {self.dataset}")
        if self.modes is not None and any(m < 1 for m in self.modes):
            raise ConfigError(f"modes are 1-based ranks, got {self.modes}")
        if self.grid_points < 2:
            raise ConfigError(f"grid-points must be >= 2, got {self.grid_points}")
        if self.paths < 0:
            raise ConfigError(f"paths must be >= 0, got {self.paths}")
        if self.eps_points < 1:
            raise ConfigError(f"eps-points must be >= 1, got {self.eps_points}")
        spec_count = sum(x is not None for x in (self.sigma2, self.laplace_b)) \
            + (self.epsilons is not None)
        if spec_count > 1:
            raise ConfigError("give at most one of --epsilon, --sigma2, --laplace-b")


def _parse_config_file(path):
    """Flat key=value lines; # starts a comment; blank lines ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# config files may use the flag spellings; normalise them to field names
_KEY_ALIASES = {"lambda": "lambdas", "epsilon": "epsilons", "format": "fmt"}

_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _coerce(key, value):
    """Convert a flag or config-file value to the type annotated on its field."""
    kind = _FIELD_TYPES[key]
    args = get_args(kind)
    if type(None) in args:      # "X | None": coerce to X
        (kind,) = (a for a in args if a is not type(None))
    try:
        if get_origin(kind) is list:
            (item,) = get_args(kind)
            return [item(x) for x in str(value).split(",") if x.strip()]
        if kind is bool:
            if isinstance(value, bool):
                return value
            if str(value).lower() in ("1", "true", "yes", "on"):
                return True
            if str(value).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def build_config(experiment, file_values, flag_values) -> ExperimentConfig:
    """Merge defaults, config-file values and explicit flags (flags win)."""
    cfg = ExperimentConfig(experiment=experiment)
    given = set()
    for source in (file_values, flag_values):
        for key, value in source.items():
            if value is None:
                continue
            key = _KEY_ALIASES.get(key, key)
            if not hasattr(cfg, key) or key == "experiment":
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _coerce(key, value))
            given.add(key)
    if experiment == "nonlinear" and cfg.activation == "tanh":
        # tanh preset: heavier cadence and its own default corruption level
        for key, value in (("record_every", 100), ("sigma2", 2.0)):
            if key not in given:
                setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _effective_epsilon(cfg: ExperimentConfig, n):
    """Scalar effective noise from whichever noise flag was given (0 if none)."""
    if cfg.sigma2 is not None:
        return analytic.epsilon_from_noise(NoiseModel.gaussian(cfg.sigma2), n)
    if cfg.laplace_b is not None:
        return analytic.epsilon_from_noise(NoiseModel.laplace(cfg.laplace_b), n)
    if cfg.epsilons is not None:
        if len(cfg.epsilons) != 1:
            raise ConfigError("this experiment needs a single epsilon value")
        return cfg.epsilons[0]
    return 0.0


def _noise_model(cfg: ExperimentConfig, n) -> NoiseModel:
    if cfg.sigma2 is not None:
        return NoiseModel.gaussian(cfg.sigma2)
    if cfg.laplace_b is not None:
        return NoiseModel.laplace(cfg.laplace_b)
    eps = _effective_epsilon(cfg, n)
    # effective units back to a per-component gaussian variance
    return NoiseModel.gaussian(eps / n) if eps > 0.0 else NoiseModel.none()


def _initial_weights(cfg: ExperimentConfig):
    """Scalar starting pair from explicit flags or the (w0, ratio) parametrisation."""
    if (cfg.w1_0 is None) != (cfg.w2_0 is None):
        raise ConfigError("give both --w1-0 and --w2-0 or neither")
    if cfg.w1_0 is not None:
        return float(cfg.w1_0), float(cfg.w2_0)
    if cfg.w0 <= 0.0 or cfg.weight_ratio <= 0.0:
        raise ConfigError("w0 and weight-ratio must be > 0")
    return float(np.sqrt(cfg.w0 / cfg.weight_ratio)), float(np.sqrt(cfg.w0 * cfg.weight_ratio))


def _record_times(cfg: ExperimentConfig):
    times = list(range(0, cfg.epochs + 1, cfg.record_every))
    if times[-1] != cfg.epochs:
        times.append(cfg.epochs)
    return np.array(times, dtype=np.float64)


def _load_dataset(cfg: ExperimentConfig) -> spectrum.Dataset:
    path = Path(cfg.dataset)
    fmt = cfg.fmt
    if fmt is None:
        name = path.name.lower()
        if name.endswith(".bin"):
            fmt = "cifar10"
        elif name.endswith(".cache"):
            fmt = "cache"
        else:
            fmt = "idx"
    if fmt == "idx":
        raw = data.load_idx(path, count_limit=cfg.n)
    elif fmt == "cifar10":
        raw = data.load_cifar10(path, count_limit=cfg.n)
    elif fmt == "cache":
        raw = data.load_matrix(path)[: cfg.n]
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}")
    return data.preprocess(raw, center=cfg.center, scale=cfg.scale)


def _theory_grid(cfg: ExperimentConfig):
    """Record times and one (mode, lambda, epsilon, gamma_eff, dae, wdae) per grid cell.

    The WDAE decay is N * gamma when --gamma is given, else the cell's matched one.
    """
    times = _record_times(cfg)
    w1_0, w2_0 = _initial_weights(cfg)
    w0 = w2_0 * w1_0
    epsilons = cfg.epsilons if cfg.epsilons is not None else list(DEFAULT_EPSILONS)
    cells = []
    for lam in cfg.lambdas:
        for eps in epsilons:
            mode_index = len(cells) + 1
            gamma_eff = cfg.n * cfg.gamma if cfg.gamma > 0.0 else analytic.equivalent_decay(lam, eps)
            mode = analytic.ScalarMode(lam=lam, epsilon=eps, tau=cfg.tau, w1_0=w1_0, w2_0=w2_0)
            cells.append((mode_index, lam, eps, gamma_eff,
                          analytic.dae_series(mode, times, mode_index=mode_index),
                          analytic.wdae_series(lam, gamma_eff, cfg.tau, w0, times,
                                               mode_index=mode_index)))
    return times, cells


def cmd_predict(cfg: ExperimentConfig):
    """Analytic DAE and matched WDAE curves over a (lambda, noise) grid."""
    _, cells = _theory_grid(cfg)
    trajectories = [series for cell in cells for series in cell[4:]]
    legend = [(mode_index, lam, eps, gamma_eff, analytic.dae_fixed_point(lam, eps),
               analytic.wdae_fixed_point(lam, gamma_eff))
              for mode_index, lam, eps, gamma_eff, _, _ in cells]
    cfg.out.mkdir(parents=True, exist_ok=True)
    analytic.write_trajectory_csv(cfg.out / "predict.csv", trajectories)
    _write_rows(cfg.out / "predict_legend.csv",
                ["mode", "lambda", "epsilon", "gamma_eff", "fixed_point_dae", "fixed_point_wdae"],
                legend)
    return [cfg.out / "predict.csv", cfg.out / "predict_legend.csv"]


def cmd_surface(cfg: ExperimentConfig):
    """Loss surface samples over (w1, w2) plus seeded gradient-descent paths."""
    lam = cfg.lambdas[0]
    eps = _effective_epsilon(cfg, cfg.n)
    gamma_eff = cfg.n * cfg.gamma
    if not (np.isfinite(cfg.grid_min) and np.isfinite(cfg.grid_max)) or cfg.grid_min >= cfg.grid_max:
        raise ConfigError("surface grid bounds must be finite with min < max")
    axis = np.linspace(cfg.grid_min, cfg.grid_max, cfg.grid_points)
    surface_rows = []
    for w1 in axis:
        for w2 in axis:
            loss, _, _ = analytic.scalar_loss_and_grad(w1, w2, lam, eps, tau=1.0)
            loss += 0.5 * gamma_eff * (w1 * w1 + w2 * w2)
            surface_rows.append((repr(float(w1)), repr(float(w2)), repr(float(loss))))
    rng = np.random.default_rng(cfg.seed)
    path_rows = []
    for path_id in range(cfg.paths):
        w1_0, w2_0 = rng.uniform(cfg.grid_min, cfg.grid_max, size=2)
        mode = analytic.ScalarMode(lam=lam, epsilon=eps, tau=cfg.tau, w1_0=w1_0, w2_0=w2_0)
        run = simulate.run_scalar_gd(mode, cfg.alpha, cfg.epochs, cfg.record_every,
                                     gamma_eff=gamma_eff)
        for t, w1, w2, w in zip(run.trajectory.times, run.w1, run.w2, run.trajectory.values):
            path_rows.append((path_id, repr(float(t)), repr(float(w1)), repr(float(w2)),
                              repr(float(w))))
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_rows(cfg.out / "surface.csv", ["w1", "w2", "loss"], surface_rows)
    _write_rows(cfg.out / "surface_paths.csv", ["path", "epoch", "w1", "w2", "value"], path_rows)
    return [cfg.out / "surface.csv", cfg.out / "surface_paths.csv"]


def cmd_simulate(cfg: ExperimentConfig):
    """One scalar gradient-descent run with the analytic overlay when available."""
    lam = cfg.lambdas[0]
    eps = _effective_epsilon(cfg, cfg.n)
    gamma_eff = cfg.n * cfg.gamma
    w1_0, w2_0 = _initial_weights(cfg)
    mode = analytic.ScalarMode(lam=lam, epsilon=eps, tau=cfg.tau, w1_0=w1_0, w2_0=w2_0)
    run = simulate.run_scalar_gd(mode, cfg.alpha, cfg.epochs, cfg.record_every,
                                 gamma_eff=gamma_eff)
    trajectories = [run.trajectory]
    if gamma_eff == 0.0:
        try:
            trajectories.append(analytic.dae_series(mode, run.trajectory.times))
        except DegenerateTrajectoryError:
            log.warning("initial weights are degenerate for the closed form; "
                        "emitting the simulated curve only")
    elif eps == 0.0 and mode.w0 > 0.0:
        trajectories.append(analytic.wdae_series(lam, gamma_eff, cfg.tau, mode.w0,
                                                 run.trajectory.times))
    cfg.out.mkdir(parents=True, exist_ok=True)
    analytic.write_trajectory_csv(cfg.out / "simulate.csv", trajectories)
    return [cfg.out / "simulate.csv"]


def cmd_compare(cfg: ExperimentConfig):
    """Matched DAE-vs-WDAE theory curves plus plateau and half-rise summary."""
    if cfg.gamma > 0.0:
        raise ConfigError("compare always uses each cell's matched decay; it takes no --gamma")
    times, cells = _theory_grid(cfg)
    trajectories = [series for cell in cells for series in cell[4:]]
    summary = []
    for mode_index, lam, eps, gamma_eff, dae, wdae in cells:
        target = 0.5 * analytic.dae_fixed_point(lam, eps)
        summary.append((mode_index, lam, eps, gamma_eff,
                        repr(float(dae.values[-1])), repr(float(wdae.values[-1])),
                        analytic.first_crossing_time(times, dae.values, target),
                        analytic.first_crossing_time(times, wdae.values, target)))
    cfg.out.mkdir(parents=True, exist_ok=True)
    analytic.write_trajectory_csv(cfg.out / "compare.csv", trajectories)
    _write_rows(cfg.out / "compare_summary.csv",
                ["mode", "lambda", "epsilon", "gamma_eff", "plateau_dae", "plateau_wdae",
                 "half_rise_dae", "half_rise_wdae"], summary)
    return [cfg.out / "compare.csv", cfg.out / "compare_summary.csv"]


def predictions_for_run(run: simulate.LinearRun, spec: spectrum.Spectrum, eps_eff,
                        gamma_eff, tau, mode_ranks):
    """Analytic per-mode series matched to a linear run's recorded epochs.

    Scalar initial conditions are measured from the run's initial weights;
    modes whose closed form is unavailable (zero eigenvalue or degenerate
    conserved quantity) are skipped with a warning.
    """
    times = run.norms.times
    measured = simulate.modes_from_linear_ae(run.init_model, spec, eps_eff, tau)
    out = []
    for rank in mode_ranks:
        mode = measured[rank - 1]
        if gamma_eff > 0.0:
            w0 = max(abs(mode.w0), W0_FLOOR)
            if mode.lam <= 0.0:
                log.warning("mode %d has zero eigenvalue; no decay prediction", rank)
                continue
            out.append(analytic.wdae_series(mode.lam, gamma_eff, tau, w0, times,
                                            mode_index=rank))
            continue
        try:
            out.append(analytic.dae_series(mode, times, mode_index=rank))
        except (DegenerateTrajectoryError, analytic.UnsupportedModeError) as exc:
            log.warning("no closed form for mode %d: %s", rank, exc)
    return out


def cmd_real_data(cfg: ExperimentConfig):
    """Predicted vs simulated per-mode trajectories on an ingested dataset."""
    dataset = _load_dataset(cfg)
    n = dataset.n
    noise = _noise_model(cfg, n)
    eps_eff = analytic.epsilon_from_noise(noise, n)
    if eps_eff > 0.0 and cfg.gamma > 0.0:
        # the predicted curves have a closed form for noise or for decay, not both
        raise ConfigError("comparison runs use either noise or weight decay, not both")
    spec = spectrum.eigendecompose(spectrum.covariance(dataset))
    modes = cfg.modes if cfg.modes is not None else list(DEFAULT_MODES["real-data"])
    if any(m > dataset.d for m in modes):
        raise ConfigError(f"mode ranks {modes} exceed input dimension {dataset.d}")
    for rank in modes:
        if rank > cfg.hidden:
            log.warning("mode %d exceeds hidden width %d and cannot be learned",
                        rank, cfg.hidden)
    train = simulate.TrainingConfig(
        learning_rate=cfg.alpha, epochs=cfg.epochs, noise=noise,
        weight_decay=cfg.gamma, init=cfg.init, init_scale=cfg.init_scale,
        seed=cfg.seed, hidden_dim=cfg.hidden, record_every=cfg.record_every,
        loss_mode=cfg.loss_mode, noise_draws=cfg.noise_draws)
    run = simulate.run_linear_ae(dataset, spec, train)
    tau = n / cfg.alpha
    simulated = [run.trajectories[rank - 1] for rank in modes]
    predicted = predictions_for_run(run, spec, eps_eff, n * cfg.gamma, tau, modes)
    cfg.out.mkdir(parents=True, exist_ok=True)
    analytic.write_trajectory_csv(cfg.out / "real_data.csv",
                                  simulated + predicted + [run.norms])
    spectrum.write_spectrum_csv(spec, cfg.out / "spectrum.csv")
    return [cfg.out / "real_data.csv", cfg.out / "spectrum.csv"]


def cmd_nonlinear(cfg: ExperimentConfig):
    """AE / WDAE / DAE nonlinear triple with shared seed; estimated-mode CSVs."""
    dataset = _load_dataset(cfg)
    spec = spectrum.eigendecompose(spectrum.covariance(dataset))
    modes = cfg.modes if cfg.modes is not None else list(DEFAULT_MODES["nonlinear"])
    if any(m > dataset.d for m in modes):
        raise ConfigError(f"mode ranks {modes} exceed input dimension {dataset.d}")
    sigma2 = cfg.sigma2 if cfg.sigma2 is not None else 3.0
    gamma = cfg.gamma if cfg.gamma > 0.0 else 0.0045
    base = dict(learning_rate=cfg.alpha, epochs=cfg.epochs, init=cfg.init,
                init_scale=cfg.init_scale, seed=cfg.seed, hidden_dim=cfg.hidden,
                record_every=cfg.record_every, loss_mode="sampled",
                noise_draws=cfg.noise_draws)
    runs = {
        "ae": simulate.TrainingConfig(noise=NoiseModel.none(), **base),
        "wdae": simulate.TrainingConfig(noise=NoiseModel.none(), weight_decay=gamma, **base),
        "dae": simulate.TrainingConfig(noise=NoiseModel.gaussian(sigma2), **base),
    }
    outputs = []
    results = {}
    for name, train in runs.items():
        estimates = nonlinear.train_nonlinear(dataset, spec, train, cfg.activation)
        results[name] = estimates
    cfg.out.mkdir(parents=True, exist_ok=True)
    for name, estimates in results.items():
        trajectories = estimates_to_trajectories(estimates, modes)
        path = cfg.out / f"nonlinear_{name}.csv"
        analytic.write_trajectory_csv(path, trajectories)
        outputs.append(path)
    return outputs


def estimates_to_trajectories(estimates, mode_ranks):
    """Shared-schema series (kind=estimated) for the retained modes of interest."""
    times = np.array([est.epoch for est in estimates])
    out = []
    for rank in mode_ranks:
        if not all(est.retained[rank - 1] for est in estimates):
            continue
        values = np.array([est.ratios[rank - 1] for est in estimates])
        out.append(analytic.Trajectory(times=times, values=values, kind="estimated",
                                       mode_index=rank))
    return out


def cmd_rates(cfg: ExperimentConfig):
    """Optimal learning rates and their ratio over a noise grid."""
    lam = cfg.lambdas[0]
    if cfg.epsilons is not None:
        eps_grid = np.asarray(cfg.epsilons, dtype=np.float64)
    else:
        eps_grid = np.linspace(0.0, cfg.eps_max, cfg.eps_points)
    rows = []
    for eps in eps_grid:
        gamma_eff = analytic.equivalent_decay(lam, eps) if lam + eps > 0.0 else 0.0
        a_eps, a_gamma, ratio = analytic.optimal_rates(lam, eps, gamma_eff, cfg.tau)
        rows.append((repr(float(eps)), repr(float(gamma_eff)), repr(float(a_eps)),
                     repr(float(a_gamma)), repr(float(ratio))))
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_rows(cfg.out / "rates.csv",
                ["epsilon", "gamma_eff", "alpha_eps", "alpha_gamma", "ratio"], rows)
    return [cfg.out / "rates.csv"]


def cmd_ingest(cfg: ExperimentConfig):
    """Parse a dataset file into the matrix cache plus its spectrum CSV."""
    dataset = _load_dataset(cfg)
    spec = spectrum.eigendecompose(spectrum.covariance(dataset))
    cfg.out.mkdir(parents=True, exist_ok=True)
    data.save_matrix(cfg.out / "data.cache", dataset.samples)
    vec_path = cfg.out / "eigenvectors.csv" if cfg.eigenvectors else None
    spectrum.write_spectrum_csv(spec, cfg.out / "spectrum.csv", vec_path)
    print(f"ingested {dataset.n} x {dataset.d} ({dataset.source}); "
          f"top eigenvalues {np.round(spec.eigenvalues[:3], 4).tolist()}")
    outputs = [cfg.out / "data.cache", cfg.out / "spectrum.csv"]
    if vec_path:
        outputs.append(vec_path)
    return outputs


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


COMMANDS = {
    "predict": ("predict", cmd_predict),
    "surface": ("surface", cmd_surface),
    "simulate": ("simulate_scalar", cmd_simulate),
    "compare": ("compare_decay", cmd_compare),
    "real-data": ("real_data", cmd_real_data),
    "nonlinear": ("nonlinear", cmd_nonlinear),
    "rates": ("rates", cmd_rates),
    "ingest": ("ingest", cmd_ingest),
}


def _add_shared_flags(parser):
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--lambda", dest="lambdas", help="comma-separated eigenvalue grid")
    parser.add_argument("--epsilon", dest="epsilons",
                        help="comma-separated effective noise grid")
    parser.add_argument("--sigma2", type=float, help="gaussian noise variance (per component)")
    parser.add_argument("--laplace-b", dest="laplace_b", type=float, help="laplace noise scale")
    parser.add_argument("--gamma", type=float, help="weight decay in user units")
    parser.add_argument("--n", type=int, help="sample count / parse limit")
    parser.add_argument("--alpha", type=float, help="learning rate")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--hidden", type=int, help="hidden width")
    parser.add_argument("--init-scale", dest="init_scale", type=float)
    parser.add_argument("--init", choices=["small_random", "orthogonal"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--dataset", type=Path, help="dataset file path")
    parser.add_argument("--format", dest="fmt", choices=["idx", "cifar10", "cache"])
    parser.add_argument("--modes", help="comma-separated 1-based mode ranks")
    parser.add_argument("--record-every", dest="record_every", type=int)
    parser.add_argument("--center", action="store_const", const=True,
                        help="subtract per-feature means before the covariance")
    parser.add_argument("--scale", action="store_const", const=True,
                        help="rescale by the global max absolute value")
    parser.add_argument("--w0", type=float, help="initial mapping value for analytic curves")
    parser.add_argument("--weight-ratio", dest="weight_ratio", type=float,
                        help="w2/w1 ratio fixing the conserved quantity")
    parser.add_argument("--w1-0", dest="w1_0", type=float)
    parser.add_argument("--w2-0", dest="w2_0", type=float)
    parser.add_argument("--activation", choices=sorted(simulate.ACTIVATIONS))
    parser.add_argument("--grid-min", dest="grid_min", type=float)
    parser.add_argument("--grid-max", dest="grid_max", type=float)
    parser.add_argument("--grid-points", dest="grid_points", type=int)
    parser.add_argument("--paths", type=int, help="descent paths on the surface")
    parser.add_argument("--eps-max", dest="eps_max", type=float)
    parser.add_argument("--eps-points", dest="eps_points", type=int)
    parser.add_argument("--eigenvectors", action="store_const", const=True,
                        help="also write the eigenvector matrix CSV")
    parser.add_argument("--loss-mode", dest="loss_mode", choices=["marginalized", "sampled"])
    parser.add_argument("--noise-draws", dest="noise_draws", type=int)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="daedyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_shared_flags(sub.add_parser(name))
    args = parser.parse_args(argv)
    command = args.command
    experiment, func = COMMANDS[command]
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        file_values = _parse_config_file(args.config) if args.config else {}
        cfg = build_config(experiment, file_values, flag_values)
        outputs = func(cfg)
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ParseError, OSError) as exc:
        print(f"I/O or parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:   # ConfigError and every invalid input the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
