"""Experiment CLI: analytic predictions, simulations, ingestion, CSV plot data.

Configuration comes from a flat key=value file plus command-line flags, with
precedence flag > file > default. Every experiment emits CSV plot data in the
shared epoch,mode,kind,value schema (mode -1 is the weight-norm series);
rendering is out of scope. Exit codes: 0 success, 2 config error, 3 numeric
divergence, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field, fields
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
# `nonlinear` defaults per activation; build_config fills in only unset keys
NONLINEAR_PRESETS = {"identity": {"sigma2": 3.0}, "relu": {"sigma2": 3.0},
                     "tanh": {"record_every": 100, "sigma2": 2.0}}
W0_FLOOR = 1e-15


# config files may use the flag spellings; normalise them to field names
_KEY_ALIASES = {"lambda": "lambdas", "epsilon": "epsilons", "format": "fmt"}


def _flag(name):
    """The command-line spelling of config field `name`, without the leading dashes."""
    return next((k for k, v in _KEY_ALIASES.items() if v == name), name).replace("_", "-")


def _setting(default, help=None, choices=None, minimum=None, positive=False):
    """A setting's default, its flag's help text, and what validate accepts: one
    of `choices`, or values (each item of a list) of at least `minimum`, and
    above 0 if `positive`."""
    return field(default=default, metadata={"help": help, "choices": choices, "min": minimum,
                                            "positive": positive})


@dataclass
class ExperimentConfig:
    """Resolved settings for one subcommand invocation.

    Every field but `experiment` is one setting, given as the flag
    `--<_flag(name)>` or as a config-file key; values from either source go
    through _coerce and validate alike.
    """

    experiment: str
    lambdas: list[float] | None = _setting(None, "comma-separated eigenvalue grid",
                                           positive=True)
    epsilons: list[float] | None = _setting(None, "comma-separated effective noise grid",
                                            minimum=0.0)
    sigma2: float | None = _setting(None, "gaussian noise variance (per component)",
                                    minimum=0.0)
    laplace_b: float | None = _setting(None, "laplace noise scale", minimum=0.0)
    gamma: float | None = _setting(None, "weight decay in user units", minimum=0.0)
    n: int = _setting(100, "sample count / parse limit", minimum=1)
    alpha: float = _setting(1.0, "learning rate", positive=True)
    epochs: int = _setting(1000, minimum=0)
    hidden: int = _setting(32, "hidden width", minimum=1)
    init_scale: float = _setting(1e-3, positive=True)
    init: str = _setting("small_random", choices=simulate.INIT_SCHEMES)
    seed: int = _setting(0, minimum=0)
    out: Path = _setting(Path("out"), "output directory")
    dataset: Path | None = _setting(None, "dataset file path")
    fmt: str | None = _setting(None, choices=("idx", "cifar10", "cache"))
    modes: list[int] | None = _setting(None, "comma-separated 1-based mode ranks", minimum=1)
    record_every: int = _setting(10, minimum=1)
    center: bool = _setting(False, "subtract per-feature means before the covariance")
    scale: bool = _setting(False, "rescale by the global max absolute value")
    w0: float = _setting(1e-3, "initial mapping value for analytic curves", positive=True)
    weight_ratio: float = _setting(2.0, "w2/w1 ratio fixing the conserved quantity",
                                   positive=True)
    w1_0: float | None = None
    w2_0: float | None = None
    activation: str = _setting("relu", choices=tuple(sorted(simulate.ACTIVATIONS)))
    grid_min: float = -1.5
    grid_max: float = 1.5
    grid_points: int = _setting(61, minimum=2)
    paths: int = _setting(6, "descent paths on the surface", minimum=0)
    eps_max: float = _setting(10.0, minimum=0.0)
    eps_points: int = _setting(21, minimum=1)
    eigenvectors: bool = _setting(False, "also write the eigenvector matrix CSV")
    loss_mode: str = _setting("marginalized", choices=simulate.LOSS_MODES)
    noise_draws: int = _setting(1, minimum=1)

    @property
    def tau(self) -> float:
        return self.n / self.alpha

    def validate(self):
        for setting in fields(self):
            value, flag = getattr(self, setting.name), _flag(setting.name)
            values = value if isinstance(value, list) else [value]
            if not values:
                raise ConfigError(f"{flag} needs at least one value")
            if value is None:
                continue
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{flag} must be finite, got {value}")
            minimum, choices = setting.metadata.get("min"), setting.metadata.get("choices")
            if minimum is not None and any(v < minimum for v in values):
                raise ConfigError(f"{flag} must be >= {minimum}, got {value}")
            if setting.metadata.get("positive") and any(v <= 0.0 for v in values):
                raise ConfigError(f"{flag} must be > 0, got {value}")
            if choices is not None and value not in choices:
                raise ConfigError(f"unknown {flag} {value!r}; choose from {', '.join(choices)}")
        if self.experiment in ("real-data", "nonlinear", "ingest") or self.dataset is not None:
            if self.dataset is None:
                raise ConfigError("this experiment needs --dataset")
            if not Path(self.dataset).is_file():
                raise ConfigError(f"dataset file not found: {self.dataset}")
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
        raise ConfigError(f"bad value for {_flag(key)}: {value!r} ({exc})") from exc


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
    if experiment == "nonlinear":
        # any one noise spec sets the corruption level, not only --sigma2
        if given & {"sigma2", "laplace_b", "epsilons"}:
            given.add("sigma2")
        for key, value in NONLINEAR_PRESETS.get(cfg.activation, {}).items():
            if key not in given:
                setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _epsilons(cfg: ExperimentConfig, n, default=None):
    """Effective noise levels from whichever noise spec was given, else default."""
    if cfg.sigma2 is not None:
        return [analytic.epsilon_from_noise(NoiseModel.gaussian(cfg.sigma2), n)]
    if cfg.laplace_b is not None:
        return [analytic.epsilon_from_noise(NoiseModel.laplace(cfg.laplace_b), n)]
    return cfg.epsilons if cfg.epsilons is not None else default


def _single(values, name, default):
    """The one value a one-mode command takes from a list setting; default if not given."""
    if values is None:
        return default
    if len(values) != 1:
        raise ConfigError(f"this experiment needs a single {name} value")
    return values[0]


def _noise_model(cfg: ExperimentConfig, n) -> NoiseModel:
    if cfg.sigma2 is not None:
        return NoiseModel.gaussian(cfg.sigma2)
    if cfg.laplace_b is not None:
        return NoiseModel.laplace(cfg.laplace_b)
    eps = _single(cfg.epsilons, "epsilon", 0.0)
    # effective units back to a per-component gaussian variance
    return NoiseModel.gaussian(eps / n) if eps > 0.0 else NoiseModel.none()


def _initial_weights(cfg: ExperimentConfig):
    """Scalar starting pair from explicit flags or the (w0, ratio) parametrisation."""
    if (cfg.w1_0 is None) != (cfg.w2_0 is None):
        raise ConfigError("give both --w1-0 and --w2-0 or neither")
    if cfg.w1_0 is not None:
        return float(cfg.w1_0), float(cfg.w2_0)
    return float(np.sqrt(cfg.w0 / cfg.weight_ratio)), float(np.sqrt(cfg.w0 * cfg.weight_ratio))


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
    else:
        raw = data.load_matrix(path)[: cfg.n]
    return data.preprocess(raw, center=cfg.center, scale=cfg.scale)


def _theory_grid(cfg: ExperimentConfig):
    """Record times and one (mode, lambda, epsilon, gamma_eff, dae, wdae) per grid cell.

    The WDAE decay is N * gamma when --gamma is given, else the cell's matched one.
    """
    times = simulate.record_times(cfg.epochs, cfg.record_every)
    w1_0, w2_0 = _initial_weights(cfg)
    w0 = w2_0 * w1_0
    epsilons = _epsilons(cfg, cfg.n, DEFAULT_EPSILONS)
    cells = []
    for lam in cfg.lambdas if cfg.lambdas is not None else DEFAULT_LAMBDAS:
        for eps in epsilons:
            mode_index = len(cells) + 1
            gamma_eff = (cfg.n * cfg.gamma if cfg.gamma is not None
                         else analytic.equivalent_decay(lam, eps))
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
    analytic.write_trajectory_csv(cfg.out / "predict.csv", trajectories)
    analytic.write_columns(cfg.out / "predict_legend.csv",
                           ["mode", "lambda", "epsilon", "gamma_eff", "fixed_point_dae",
                            "fixed_point_wdae"], [list(zip(*legend))])
    return [cfg.out / "predict.csv", cfg.out / "predict_legend.csv"]


def cmd_surface(cfg: ExperimentConfig):
    """Loss surface samples over (w1, w2) plus seeded gradient-descent paths."""
    lam = _single(cfg.lambdas, "lambda", DEFAULT_LAMBDAS[0])
    eps = _single(_epsilons(cfg, cfg.n), "epsilon", 0.0)
    gamma_eff = cfg.n * (cfg.gamma or 0.0)
    if cfg.grid_min >= cfg.grid_max:
        raise ConfigError("surface grid bounds need grid-min < grid-max")
    axis = np.linspace(cfg.grid_min, cfg.grid_max, cfg.grid_points)
    # a Python-float loop: numpy's square differs from ** 2 in the last bits of some losses
    loss = np.fromiter((analytic.scalar_loss_and_grad(w1, w2, lam, eps, tau=1.0)[0]
                        + 0.5 * gamma_eff * (w1 * w1 + w2 * w2)
                        for w1 in axis.tolist() for w2 in axis.tolist()), np.float64, axis.size ** 2)
    rng = np.random.default_rng(cfg.seed)
    runs = []
    for _ in range(cfg.paths):
        w1_0, w2_0 = rng.uniform(cfg.grid_min, cfg.grid_max, size=2)
        mode = analytic.ScalarMode(lam=lam, epsilon=eps, tau=cfg.tau, w1_0=w1_0, w2_0=w2_0)
        runs.append(simulate.run_scalar_gd(mode, cfg.alpha, cfg.epochs, cfg.record_every,
                                           gamma_eff=gamma_eff))
    analytic.write_columns(cfg.out / "surface.csv", ["w1", "w2", "loss"],
                           [[np.repeat(axis, axis.size), np.tile(axis, axis.size), loss]])
    analytic.write_columns(cfg.out / "surface_paths.csv", ["path", "epoch", "w1", "w2", "value"],
                           [[str(path_id), run.trajectory.times, run.w1, run.w2,
                             run.trajectory.values] for path_id, run in enumerate(runs)])
    return [cfg.out / "surface.csv", cfg.out / "surface_paths.csv"]


def cmd_simulate(cfg: ExperimentConfig):
    """One scalar gradient-descent run with the analytic overlay when available."""
    lam = _single(cfg.lambdas, "lambda", DEFAULT_LAMBDAS[0])
    eps = _single(_epsilons(cfg, cfg.n), "epsilon", 0.0)
    gamma_eff = cfg.n * (cfg.gamma or 0.0)
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
    elif eps > 0.0:
        log.warning("no closed form with both noise and decay; "
                    "emitting the simulated curve only")
    elif mode.w0 <= 0.0:
        log.warning("the decay closed form needs a positive initial product w1*w2, got %g; "
                    "emitting the simulated curve only", mode.w0)
    else:
        trajectories.append(analytic.wdae_series(lam, gamma_eff, cfg.tau, mode.w0,
                                                 run.trajectory.times))
    analytic.write_trajectory_csv(cfg.out / "simulate.csv", trajectories)
    return [cfg.out / "simulate.csv"]


def cmd_compare(cfg: ExperimentConfig):
    """Matched DAE-vs-WDAE theory curves plus plateau and half-rise summary."""
    if cfg.gamma is not None:
        raise ConfigError("compare always uses each cell's matched decay; it takes no --gamma")
    times, cells = _theory_grid(cfg)
    trajectories = [series for cell in cells for series in cell[4:]]
    summary = []
    for mode_index, lam, eps, gamma_eff, dae, wdae in cells:
        target = 0.5 * analytic.dae_fixed_point(lam, eps)
        rises = (analytic.first_crossing_time(times, series.values, target)
                 for series in (dae, wdae))
        # a curve that never reaches half is NaN here, which the writer leaves empty
        summary.append((mode_index, lam, eps, gamma_eff,
                        float(dae.values[-1]), float(wdae.values[-1]),
                        *(math.nan if rise is None else rise for rise in rises)))
    analytic.write_trajectory_csv(cfg.out / "compare.csv", trajectories)
    analytic.write_columns(cfg.out / "compare_summary.csv",
                           ["mode", "lambda", "epsilon", "gamma_eff", "plateau_dae",
                            "plateau_wdae", "half_rise_dae", "half_rise_wdae"],
                           [list(zip(*summary))])
    return [cfg.out / "compare.csv", cfg.out / "compare_summary.csv"]


def predictions_for_run(run: simulate.Run, spec: spectrum.Spectrum, eps_eff,
                        gamma_eff, tau, mode_ranks):
    """Analytic per-mode series matched to a linear run's recorded epochs.

    Scalar initial conditions are measured from the run's initial weights;
    modes whose closed form is unavailable (zero eigenvalue or degenerate
    conserved quantity) are skipped with a warning.
    """
    times = run.times
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


def _training_inputs(cfg: ExperimentConfig):
    """Dataset, spectrum, requested mode ranks, noise and effective noise of a training command."""
    dataset = _load_dataset(cfg)
    spec = spectrum.eigendecompose(spectrum.covariance(dataset))
    modes = cfg.modes if cfg.modes is not None else list(DEFAULT_MODES[cfg.experiment])
    if any(m > dataset.d for m in modes):
        raise ConfigError(f"mode ranks {modes} exceed input dimension {dataset.d}")
    noise = _noise_model(cfg, dataset.n)
    return dataset, spec, modes, noise, analytic.epsilon_from_noise(noise, dataset.n)


def _training_config(cfg: ExperimentConfig, noise, weight_decay) -> simulate.TrainingConfig:
    return simulate.TrainingConfig(
        learning_rate=cfg.alpha, epochs=cfg.epochs, noise=noise, weight_decay=weight_decay,
        init=cfg.init, init_scale=cfg.init_scale, seed=cfg.seed, hidden_dim=cfg.hidden,
        record_every=cfg.record_every, loss_mode=cfg.loss_mode, noise_draws=cfg.noise_draws)


def cmd_real_data(cfg: ExperimentConfig):
    """Predicted vs simulated per-mode trajectories on an ingested dataset."""
    dataset, spec, modes, noise, eps_eff = _training_inputs(cfg)
    n = dataset.n
    gamma = cfg.gamma or 0.0
    if eps_eff > 0.0 and gamma > 0.0:
        # the predicted curves have a closed form for noise or for decay, not both
        raise ConfigError("comparison runs use either noise or weight decay, not both")
    for rank in modes:
        if rank > cfg.hidden:
            log.warning("mode %d exceeds hidden width %d and cannot be learned",
                        rank, cfg.hidden)
        elif rank == cfg.hidden:
            # the last mode the network can hold couples to the unlearnable ones
            log.warning("mode %d sits at hidden width %d; its simulated curve can lag "
                        "the closed form", rank, cfg.hidden)
    run = simulate.run_linear_ae(dataset, spec, _training_config(cfg, noise, gamma))
    simulated = [run.trajectory(rank) for rank in modes]
    predicted = predictions_for_run(run, spec, eps_eff, n * gamma, n / cfg.alpha, modes)
    analytic.write_trajectory_csv(cfg.out / "real_data.csv",
                                  simulated + predicted + [run.norms])
    spectrum.write_spectrum_csv(spec, cfg.out / "spectrum.csv")
    return [cfg.out / "real_data.csv", cfg.out / "spectrum.csv"]


def cmd_nonlinear(cfg: ExperimentConfig):
    """AE / WDAE / DAE nonlinear triple with shared seed; estimated-mode CSVs."""
    dataset, spec, modes, noise, eps_eff = _training_inputs(cfg)
    gamma = cfg.gamma
    if gamma is None:   # the decay matching the DAE leg's mode-1 fixed point
        gamma = (analytic.equivalent_decay(float(spec.eigenvalues[0]), eps_eff) / dataset.n
                 if eps_eff > 0.0 else 0.0)

    def estimated(leg_noise, decay):
        # only the series outlives a leg, so its weights are freed before the next one trains
        run = nonlinear.train_nonlinear(dataset, spec, _training_config(cfg, leg_noise, decay),
                                        cfg.activation)
        # a mode below the eigenvalue floor reads NaN throughout and is left out
        return [run.trajectory(rank, kind="estimated") for rank in modes
                if not np.isnan(run.modes[:, rank - 1]).any()]

    series = {"ae": estimated(NoiseModel.none(), 0.0),
              "wdae": estimated(NoiseModel.none(), gamma), "dae": estimated(noise, 0.0)}
    outputs = [cfg.out / f"nonlinear_{name}.csv" for name in series]
    for path, trajectories in zip(outputs, series.values()):
        analytic.write_trajectory_csv(path, trajectories)
    return outputs


def cmd_rates(cfg: ExperimentConfig):
    """Optimal learning rates and their ratio over a noise grid."""
    lam = _single(cfg.lambdas, "lambda", DEFAULT_LAMBDAS[0])
    eps_grid = _epsilons(cfg, cfg.n, np.linspace(0.0, cfg.eps_max, cfg.eps_points).tolist())
    rows = []
    for eps in eps_grid:
        gamma_eff = analytic.equivalent_decay(lam, eps)
        rows.append((eps, gamma_eff, *analytic.optimal_rates(lam, eps, gamma_eff, cfg.tau)))
    analytic.write_columns(cfg.out / "rates.csv",
                           ["epsilon", "gamma_eff", "alpha_eps", "alpha_gamma", "ratio"],
                           [list(zip(*rows))])
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


COMMANDS = {
    "predict": cmd_predict,
    "surface": cmd_surface,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "real-data": cmd_real_data,
    "nonlinear": cmd_nonlinear,
    "rates": cmd_rates,
    "ingest": cmd_ingest,
}


def _add_shared_flags(parser):
    """--config plus one flag per config field; every value reaches _coerce as given."""
    parser.add_argument("--config", help="flat key=value config file")
    for setting in fields(ExperimentConfig):
        if setting.name == "experiment":
            continue
        flag, help_text = "--" + _flag(setting.name), setting.metadata.get("help")
        if _FIELD_TYPES[setting.name] is bool:
            parser.add_argument(flag, action="store_const", const=True, help=help_text)
        else:
            choices = setting.metadata.get("choices")
            metavar = "{%s}" % ",".join(choices) if choices else setting.name.upper()
            parser.add_argument(flag, help=help_text, metavar=metavar)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="daedyn", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    _add_shared_flags(parser)
    args = parser.parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        file_values = _parse_config_file(args.config) if args.config else {}
        cfg = build_config(args.command, file_values, flag_values)
        outputs = COMMANDS[args.command](cfg)
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ParseError, OSError) as exc:
        print(f"I/O or parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:   # ConfigError and every invalid input the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # Python's float ** and / raise where numpy returns inf
        print(f"config error: the inputs overflow float arithmetic "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_CONFIG
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
