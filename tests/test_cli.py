"""Command-line workflows: config precedence, CSV outputs, exit codes, determinism."""

import csv

import numpy as np
import pytest

from daedyn import cli, spectrum
from daedyn.analytic import read_trajectory_csv
from daedyn.cli import ExperimentConfig, build_config, main
from daedyn.errors import ConfigError


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def _series(path):
    return {(t.mode_index, t.kind): t for t in read_trajectory_csv(path)}


# --- config plumbing ----------------------------------------------------------

def test_config_precedence_flag_over_file_over_default(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha=0.25\nepochs=50   # trailing comment\n\nseed=3\n")
    file_values = cli._parse_config_file(cfg_file)
    cfg = build_config("rates", file_values, {"alpha": 0.5})
    assert cfg.alpha == 0.5       # flag wins
    assert cfg.epochs == 50       # file beats default
    assert cfg.seed == 3
    assert cfg.record_every == 10  # untouched default


def test_config_file_accepts_flag_spellings(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("lambda=2.5,1.0\nepsilon=0.5\nformat=cache\n")
    cfg = build_config("predict", cli._parse_config_file(cfg_file), {})
    assert cfg.lambdas == [2.5, 1.0]
    assert cfg.epsilons == [0.5]
    assert cfg.fmt == "cache"


def test_noise_specs_are_mutually_exclusive_in_files(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epsilon=0.5\nlaplace-b=0.2\n")
    with pytest.raises(ConfigError, match="at most one"):
        build_config("predict", cli._parse_config_file(cfg_file), {})


def test_tanh_preset_same_from_file_and_flag(tmp_path, d16_cache):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("activation=tanh\n")
    flags = {"dataset": str(d16_cache)}
    from_file = build_config("nonlinear", cli._parse_config_file(cfg_file), flags)
    from_flag = build_config("nonlinear", {}, {**flags, "activation": "tanh"})
    assert from_file == from_flag
    assert (from_file.record_every, from_file.sigma2) == (100, 2.0)
    # an explicit record_every wins over the preset, from either source, and
    # the preset still fills in the corruption level nobody set
    cfg_file.write_text("activation=tanh\nrecord-every=7\n")
    for cfg in (build_config("nonlinear", cli._parse_config_file(cfg_file), flags),
                build_config("nonlinear", {"record_every": "7"}, {**flags, "activation": "tanh"}),
                build_config("nonlinear", {}, {**flags, "activation": "tanh", "record_every": 7})):
        assert (cfg.record_every, cfg.sigma2) == (7, 2.0)
    assert build_config("nonlinear", {}, flags).record_every == 10   # relu: no preset


def test_config_file_rejects_garbage(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha 0.25\n")
    with pytest.raises(ConfigError, match="key=value"):
        cli._parse_config_file(cfg_file)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config("rates", {"velocity": "9"}, {})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        build_config("rates", {}, {"alpha": -1.0})
    with pytest.raises(ConfigError):
        build_config("real_data", {}, {})  # dataset required
    with pytest.raises(ConfigError):
        build_config("predict", {}, {"epsilons": "1.0", "sigma2": 0.5})


def test_cli_returns_config_error_exit_code(tmp_path, capsys):
    assert main(["real-data", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_returns_io_error_exit_code(tmp_path, capsys):
    bogus = tmp_path / "missing.idx"
    bogus.write_bytes(b"\x00\x00\x08\x01garbage")
    code = main(["ingest", "--dataset", str(bogus), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_IO


@pytest.mark.parametrize("argv", [
    ["predict", "--w1-0", "0.1", "--w2-0", "0.1"],
    ["real-data", "--dataset", "{cache}", "--init", "orthogonal", "--hidden", "40",
     "--modes", "1,2", "--epochs", "5"],
    ["surface", "--paths", "-3"],
    ["rates", "--eps-points", "0"],
    ["real-data", "--dataset", "{cache}", "--epsilon", "1,50", "--hidden", "4",
     "--modes", "1,2", "--epochs", "5"],
    ["surface", "--gamma", "inf", "--epochs", "5"],
    ["ingest"],
    ["compare", "--gamma", "0.5", "--epochs", "5"],
], ids=["degenerate-predict", "overcomplete-orthogonal", "negative-paths", "zero-eps-points",
        "real-data-epsilon-list", "infinite-gamma", "ingest-without-dataset", "compare-gamma"])
def test_cli_invalid_inputs_exit_2_without_traceback(argv, tmp_path, d16_cache, capsys):
    argv = [a.format(cache=d16_cache) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("noise", [["--sigma2", "0.5"], ["--epsilon", "1"],
                                   ["--laplace-b", "0.1"]], ids=["sigma2", "epsilon", "laplace-b"])
def test_real_data_rejects_every_noise_spec_with_decay(noise, tmp_path, d16_cache):
    base = ["real-data", "--dataset", str(d16_cache), "--hidden", "4", "--modes", "1,2",
            "--epochs", "5", "--out", str(tmp_path / "out")]
    assert main(base + noise + ["--gamma", "0.01"]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    # either one alone still runs; a zero noise level is no noise
    assert main(base + noise) == cli.EXIT_OK
    assert main(base + ["--gamma", "0.01"]) == cli.EXIT_OK
    assert main(base + ["--sigma2", "0", "--gamma", "0.01"]) == cli.EXIT_OK


def test_real_data_rejects_a_spectrum_that_does_not_diagonalise_the_data(
        tmp_path, d16_cache, monkeypatch, capsys):
    def unrotated(s):
        # the right eigenvalues in the wrong basis
        return spectrum.Spectrum(np.eye(s.shape[0]), np.sort(np.linalg.eigvalsh(s))[::-1])

    monkeypatch.setattr(spectrum, "eigendecompose", unrotated)
    code = main(["real-data", "--dataset", str(d16_cache), "--hidden", "4", "--modes", "1,2",
                 "--epochs", "5", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "does not diagonalise" in capsys.readouterr().err


def test_nonlinear_noise_draws_reach_the_dae_leg(tmp_path, d16_cache):
    base = ["nonlinear", "--dataset", str(d16_cache), "--hidden", "4", "--modes", "1,2",
            "--alpha", "0.05", "--epochs", "20", "--record-every", "5"]
    assert main(base + ["--out", str(tmp_path / "one")]) == cli.EXIT_OK
    assert main(base + ["--noise-draws", "2", "--out", str(tmp_path / "two")]) == cli.EXIT_OK
    for leg, same in (("ae", True), ("wdae", True), ("dae", False)):
        name = f"nonlinear_{leg}.csv"
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()) is same, leg


@pytest.mark.parametrize("noise", [("epsilon=0.5", "epsilons", [float]),
                                   ("sigma2=0.5", "sigma2", float),
                                   ("laplace-b=0.5", "laplace_b", float)],
                         ids=["epsilon", "sigma2", "laplace-b"])
def test_config_file_sets_every_field_with_its_type(noise, tmp_path):
    from pathlib import Path

    dataset = tmp_path / "d.cache"
    dataset.write_bytes(b"")
    noise_line, noise_field, noise_kind = noise
    lines = {
        "out": ("out=results", Path), "seed": ("seed=4", int),
        "lambdas": ("lambda=2.5,1", [float]), "gamma": ("gamma=0.25", float),
        "n": ("n=50", int), "alpha": ("alpha=0.5", float), "epochs": ("epochs=7", int),
        "hidden": ("hidden=3", int), "init": ("init=orthogonal", str),
        "init_scale": ("init-scale=0.01", float), "record_every": ("record-every=2", int),
        "modes": ("modes=1,2", [int]), "dataset": (f"dataset={dataset}", Path),
        "fmt": ("format=cache", str), "center": ("center=yes", bool),
        "scale": ("scale=0", bool), "activation": ("activation=tanh", str),
        "w0": ("w0=0.02", float), "weight_ratio": ("weight-ratio=3", float),
        "w1_0": ("w1-0=0.1", float), "w2_0": ("w2-0=0.2", float),
        "grid_min": ("grid-min=-1", float), "grid_max": ("grid-max=1", float),
        "grid_points": ("grid-points=5", int), "paths": ("paths=2", int),
        "eps_points": ("eps-points=3", int), "eps_max": ("eps-max=4", float),
        "eigenvectors": ("eigenvectors=true", bool), "loss_mode": ("loss-mode=sampled", str),
        "noise_draws": ("noise-draws=2", int),
        noise_field: (noise_line, noise_kind),
    }
    # every field is set except the two noise specs this case leaves out
    unset = set(ExperimentConfig.__dataclass_fields__) - {"experiment"} - set(lines)
    assert unset == {"epsilons", "sigma2", "laplace_b"} - {noise_field}
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("\n".join(line for line, _ in lines.values()) + "\n")
    cfg = build_config("predict", cli._parse_config_file(cfg_file), {})
    for name, (_, kind) in lines.items():
        value = getattr(cfg, name)
        if isinstance(kind, list):
            assert isinstance(value, list) and value, name
            assert all(type(v) is kind[0] for v in value), name
        else:
            assert isinstance(value, kind) and (kind is Path or type(value) is kind), name
    assert cfg.lambdas == [2.5, 1.0] and cfg.modes == [1, 2]
    assert cfg.center is True and cfg.scale is False and cfg.eigenvectors is True
    assert cfg.dataset == dataset and cfg.out == Path("results")


def test_cli_returns_divergence_exit_code(tmp_path, capsys):
    code = main(["simulate", "--lambda", "1.0", "--epsilon", "0",
                 "--n", "1", "--alpha", "1e6", "--epochs", "5000",
                 "--w1-0", "1.0", "--w2-0", "3.0", "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGENCE


# --- predict / compare / rates --------------------------------------------------

def test_predict_plateaus_match_fixed_points(tmp_path):
    out = tmp_path / "out"
    code = main(["predict", "--lambda", "1.0", "--epsilon", "0,1",
                 "--epochs", "60000", "--n", "100", "--alpha", "1.0",
                 "--record-every", "500", "--out", str(out)])
    assert code == 0
    series = _series(out / "predict.csv")
    assert series[(1, "analytic_dae")].values[-1] == pytest.approx(1.0, abs=1e-6)
    assert series[(2, "analytic_dae")].values[-1] == pytest.approx(0.5, abs=1e-6)
    legend = _rows(out / "predict_legend.csv")
    assert float(legend[1]["gamma_eff"]) == pytest.approx(0.5, abs=1e-12)


def test_predict_matched_decay_same_plateau_later_half_rise(tmp_path):
    out = tmp_path / "out"
    assert main(["predict", "--lambda", "1.0", "--epsilon", "1.0",
                 "--epochs", "40000", "--n", "100", "--alpha", "1.0",
                 "--record-every", "100", "--out", str(out)]) == 0
    series = _series(out / "predict.csv")
    dae = series[(1, "analytic_dae")]
    wdae = series[(1, "analytic_wdae")]
    assert dae.values[-1] == pytest.approx(wdae.values[-1], abs=1e-4)
    target = 0.5 * dae.values[-1]
    from daedyn.analytic import first_crossing_time
    t_dae = first_crossing_time(dae.times, dae.values, target)
    t_wdae = first_crossing_time(wdae.times, wdae.values, target)
    assert t_dae <= t_wdae


def test_compare_summary_orders_half_rise(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "--lambda", "0.5,1.0,2.5", "--epsilon", "0.5,1,2",
                 "--epochs", "60000", "--n", "100", "--alpha", "1.0",
                 "--record-every", "200", "--out", str(out)]) == 0
    for row in _rows(out / "compare_summary.csv"):
        assert float(row["plateau_dae"]) == pytest.approx(float(row["plateau_wdae"]), abs=1e-4)
        assert float(row["half_rise_dae"]) <= float(row["half_rise_wdae"])


def test_rates_grid_reference_values(tmp_path):
    out = tmp_path / "out"
    assert main(["rates", "--lambda", "1.0", "--epsilon", "0,1,2,5",
                 "--n", "100", "--alpha", "1.0", "--out", str(out)]) == 0
    rows = _rows(out / "rates.csv")
    assert float(rows[0]["ratio"]) == 1.0
    assert float(rows[1]["ratio"]) == pytest.approx(0.5, abs=1e-12)
    ratios = [float(r["ratio"]) for r in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


# --- surface --------------------------------------------------------------------

def test_surface_minimum_sits_on_hyperbola_and_paths_reach_it(tmp_path):
    out = tmp_path / "out"
    assert main(["surface", "--lambda", "1.0", "--epsilon", "5.0",
                 "--grid-min", "-1.5", "--grid-max", "1.5", "--grid-points", "41",
                 "--n", "100", "--alpha", "1.0", "--epochs", "4000",
                 "--record-every", "40", "--paths", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    rows = _rows(out / "surface.csv")
    spacing = 3.0 / 40
    # global minimum cell lies on the minimum-loss manifold w2 w1 = 1/6
    best = min(rows, key=lambda r: float(r["loss"]))
    w1, w2 = float(best["w1"]), float(best["w2"])
    assert abs(w1 * w2 - 1.0 / 6.0) <= spacing * (abs(w1) + abs(w2)) + spacing ** 2
    # saddle at the origin is stationary but higher loss than path endpoints
    origin = [r for r in rows if float(r["w1"]) == 0.0 and float(r["w2"]) == 0.0]
    paths = _rows(out / "surface_paths.csv")
    finals = {}
    for row in paths:
        finals[row["path"]] = row
    for row in finals.values():
        assert abs(float(row["value"]) - 1.0 / 6.0) <= 2e-2
        if origin:
            end_loss = 0.5 * (1 - float(row["value"])) ** 2 + 2.5 * float(row["value"]) ** 2
            assert float(origin[0]["loss"]) > end_loss


def test_surface_zero_noise_minimum_on_unit_hyperbola(tmp_path):
    out = tmp_path / "out"
    assert main(["surface", "--lambda", "1.0", "--epsilon", "0",
                 "--grid-points", "31", "--epochs", "100", "--paths", "0",
                 "--out", str(out)]) == 0
    rows = _rows(out / "surface.csv")
    spacing = 3.0 / 30
    best = min(rows, key=lambda r: float(r["loss"]))
    w1, w2 = float(best["w1"]), float(best["w2"])
    assert abs(w1 * w2 - 1.0) <= spacing * (abs(w1) + abs(w2)) + spacing ** 2


# --- dataset-backed commands ----------------------------------------------------

def test_ingest_writes_cache_and_spectrum(tmp_path, mnist_like_paths):
    images, _ = mnist_like_paths
    out = tmp_path / "out"
    assert main(["ingest", "--dataset", str(images), "--n", "64",
                 "--eigenvectors", "--out", str(out)]) == 0
    from daedyn.data import load_matrix
    cached = load_matrix(out / "data.cache")
    assert cached.shape == (64, 784)
    spectrum_rows = _rows(out / "spectrum.csv")
    assert len(spectrum_rows) == 784
    assert (out / "eigenvectors.csv").exists()
    # cache can be re-ingested through the cache format path
    out2 = tmp_path / "out2"
    assert main(["ingest", "--dataset", str(out / "data.cache"), "--format", "cache",
                 "--out", str(out2)]) == 0


def test_real_data_noise_free_modes_reach_one(tmp_path):
    from daedyn.data import synthetic_dataset, save_matrix

    ds = synthetic_dataset([2.5, 1.8, 1.2, 0.9], 300, seed=2)
    cache = tmp_path / "ds.cache"
    save_matrix(cache, ds.samples)
    out = tmp_path / "out"
    assert main(["real-data", "--dataset", str(cache), "--format", "cache",
                 "--n", "300", "--alpha", "0.5", "--epochs", "12000",
                 "--hidden", "4", "--modes", "1,2,3,4", "--record-every", "400",
                 "--init-scale", "1e-3", "--seed", "6", "--out", str(out)]) == 0
    series = _series(out / "real_data.csv")
    for rank in (1, 2, 3, 4):
        sim = series[(rank, "simulated")]
        assert sim.values[-1] == pytest.approx(1.0, abs=1e-3)
        pred = series[(rank, "analytic_dae")]
        assert pred.values[-1] == pytest.approx(1.0, abs=1e-3)
    assert (-1, "simulated") in series  # weight-norm rows


def test_real_data_matched_decay_reaches_same_mode1_plateau(tmp_path):
    from daedyn.data import synthetic_dataset, save_matrix
    from daedyn.spectrum import covariance, eigendecompose
    from daedyn.analytic import equivalent_decay

    ds = synthetic_dataset([2.5, 1.2, 0.6, 0.3], 250, seed=4)
    spec = eigendecompose(covariance(ds))
    cache = tmp_path / "ds.cache"
    save_matrix(cache, ds.samples)
    eps = 1.0
    sigma2 = eps / ds.n
    gamma = equivalent_decay(float(spec.eigenvalues[0]), eps) / ds.n
    common = ["real-data", "--dataset", str(cache), "--format", "cache",
              "--n", "250", "--alpha", "0.5", "--epochs", "25000",
              "--hidden", "4", "--modes", "1", "--record-every", "1000",
              "--init-scale", "1e-3", "--seed", "6"]
    out_dae = tmp_path / "dae"
    out_wdae = tmp_path / "wdae"
    assert main(common + ["--sigma2", repr(sigma2), "--out", str(out_dae)]) == 0
    assert main(common + ["--gamma", repr(gamma), "--out", str(out_wdae)]) == 0
    dae = _series(out_dae / "real_data.csv")[(1, "simulated")]
    wdae = _series(out_wdae / "real_data.csv")[(1, "simulated")]
    assert abs(dae.values[-1] - wdae.values[-1]) <= 1e-3


def test_real_data_rejects_noise_and_decay_together(tmp_path, mnist_like_paths):
    images, _ = mnist_like_paths
    code = main(["real-data", "--dataset", str(images), "--sigma2", "0.5",
                 "--gamma", "0.1", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_nonlinear_zero_epoch_emits_one_row_per_mode(tmp_path, mnist_like_paths):
    images, _ = mnist_like_paths
    out = tmp_path / "out"
    assert main(["nonlinear", "--dataset", str(images), "--n", "128",
                 "--epochs", "0", "--hidden", "16", "--modes", "1,2,3,4",
                 "--alpha", "0.01", "--out", str(out)]) == 0
    for name in ("ae", "dae", "wdae"):
        series = read_trajectory_csv(out / f"nonlinear_{name}.csv")
        assert {t.mode_index for t in series} == {1, 2, 3, 4}
        assert all(t.values.size == 1 and t.kind == "estimated" for t in series)


def test_cli_outputs_are_deterministic(tmp_path, mnist_like_paths):
    images, _ = mnist_like_paths
    args = ["real-data", "--dataset", str(images), "--n", "200", "--sigma2", "0.5",
            "--alpha", "0.02", "--epochs", "300", "--hidden", "8",
            "--modes", "1,2", "--record-every", "50", "--seed", "11"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("real_data.csv", "spectrum.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_experiment_config_tau():
    cfg = ExperimentConfig(experiment="rates", n=200, alpha=0.5)
    assert cfg.tau == 400.0
