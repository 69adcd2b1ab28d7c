"""Command-line workflows: config precedence, CSV outputs, exit codes, determinism."""

import csv
import dataclasses

import numpy as np
import pytest

from oracles import read_trajectory_csv, write_surface_csv_rows

from daedyn import analytic, cli, data, spectrum
from daedyn.analytic import NoiseModel
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
        build_config("real-data", {}, {})  # dataset required
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
    ["nonlinear", "--dataset", "{cache}", "--epsilon", "1,50", "--hidden", "4",
     "--modes", "1,2", "--epochs", "5"],
    ["compare", "--gamma", "0", "--epochs", "5"],
    ["simulate", "--lambda", "1,7", "--epochs", "5"],
    ["surface", "--lambda", "1,7", "--epochs", "5"],
    ["rates", "--lambda", "1,7"],
    ["simulate", "--lambda", ",", "--epochs", "5"],
    ["surface", "--lambda", ",", "--epochs", "5"],
    ["rates", "--lambda", ","],
    ["predict", "--lambda", ",", "--epochs", "5"],
    ["predict", "--epsilon", ",", "--epochs", "5"],
    ["real-data", "--dataset", "{cache}", "--modes", ",", "--hidden", "4", "--epochs", "5"],
    ["real-data", "--dataset", "{cache}", "--init-scale", "1e200", "--hidden", "4",
     "--modes", "1", "--epochs", "0"],
    ["real-data", "--dataset", "{cache}", "--init-scale", "1e200", "--hidden", "4",
     "--modes", "1", "--epochs", "3"],
    ["real-data", "--dataset", "{cache}", "--init-scale", "1e13", "--hidden", "4",
     "--modes", "1", "--epochs", "0"],
    ["nonlinear", "--dataset", "{cache}", "--init-scale", "1e200", "--hidden", "4",
     "--modes", "1", "--epochs", "0"],
    ["predict", "--config", "{config}", "--epochs", "5"],
    ["ingest", "--dataset", "{cache}", "--config", "{config}"],
    ["predict", "--config", "{png_config}", "--epochs", "5"],
    ["predict", "--init", "bogus", "--epochs", "5"],
    ["rates", "--eps-max", "-1"],
    ["predict", "--seed", "-1", "--epochs", "5"],
    ["surface", "--seed", "-1", "--epochs", "5", "--grid-points", "3"],
    ["predict", "--noise-draws", "0", "--epochs", "5"],
    ["predict", "--init-scale", "-1", "--epochs", "5"],
    ["surface", "--w0", "0", "--epochs", "5", "--grid-points", "3"],
    ["rates", "--weight-ratio", "-2"],
    ["predict", "--laplace-b", "1e200", "--epochs", "5"],
    ["simulate", "--w1-0", "1e200", "--w2-0", "1e200", "--epochs", "5"],
    ["surface", "--grid-max", "1e200", "--paths", "0", "--grid-points", "3", "--epochs", "5"],
    ["rates", "--lambda", "1.7e308"],
], ids=["degenerate-predict", "overcomplete-orthogonal", "negative-paths", "zero-eps-points",
        "real-data-epsilon-list", "infinite-gamma", "ingest-without-dataset", "compare-gamma",
        "nonlinear-epsilon-list", "compare-zero-gamma", "simulate-lambda-list",
        "surface-lambda-list", "rates-lambda-list", "simulate-empty-lambda",
        "surface-empty-lambda", "rates-empty-lambda", "predict-empty-lambda",
        "predict-empty-epsilon", "real-data-empty-modes", "real-data-huge-init-0-epochs",
        "real-data-huge-init-3-epochs", "real-data-init-past-limit", "nonlinear-huge-init",
        "predict-config-loss-mode", "ingest-config-loss-mode", "predict-config-format",
        "predict-bogus-init", "rates-negative-eps-max", "predict-negative-seed",
        "surface-negative-seed", "predict-zero-noise-draws", "predict-negative-init-scale",
        "surface-zero-w0", "rates-negative-weight-ratio", "predict-overflowing-laplace-b",
        "simulate-overflowing-init", "surface-overflowing-grid", "rates-overflowing-lambda"])
def test_cli_invalid_inputs_exit_2_without_traceback(argv, tmp_path, d16_cache, capsys):
    config = tmp_path / "loss_mode.cfg"
    config.write_text("loss_mode=other\n")
    png_config = tmp_path / "format.cfg"
    png_config.write_text("format=png\n")
    argv = [a.format(cache=d16_cache, config=config, png_config=png_config) for a in argv] + [
        "--out", str(tmp_path / "out")]
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


def test_nonlinear_noise_preset_yields_to_any_noise_spec(d16_cache):
    flags = {"dataset": str(d16_cache)}
    for activation, preset in (("relu", 3.0), ("identity", 3.0), ("tanh", 2.0)):
        flags["activation"] = activation
        assert build_config("nonlinear", {}, flags).sigma2 == preset
        assert build_config("nonlinear", {}, {**flags, "sigma2": 0.5}).sigma2 == 0.5
        for spec in ({"laplace_b": 5.0}, {"epsilons": "100"}):
            assert build_config("nonlinear", {}, {**flags, **spec}).sigma2 is None, spec


NONLINEAR_SMALL = ["nonlinear", "--hidden", "4", "--modes", "1,2", "--alpha", "0.05",
                   "--epochs", "20", "--record-every", "5"]


@pytest.mark.parametrize("noise", [["--sigma2", "0.5"], ["--epsilon", "100"],
                                   ["--laplace-b", "5"]], ids=["sigma2", "epsilon", "laplace-b"])
def test_nonlinear_honours_every_noise_flag(noise, tmp_path, d16_cache):
    # an explicit decay keeps the WDAE leg independent of the noise level
    base = NONLINEAR_SMALL + ["--dataset", str(d16_cache), "--gamma", "0.01"]
    assert main(base + ["--out", str(tmp_path / "preset")]) == cli.EXIT_OK
    assert main(base + noise + ["--out", str(tmp_path / "flag")]) == cli.EXIT_OK
    for leg, same in (("ae", True), ("wdae", True), ("dae", False)):
        name = f"nonlinear_{leg}.csv"
        assert ((tmp_path / "preset" / name).read_bytes()
                == (tmp_path / "flag" / name).read_bytes()) is same, leg
    # tanh's preset noise level no longer collides with an explicit spec
    assert main(base + noise + ["--activation", "tanh", "--out", str(tmp_path / "tanh")]) \
        == cli.EXIT_OK


def test_nonlinear_default_decay_is_the_matched_decay(tmp_path, d16_cache):
    from daedyn.analytic import equivalent_decay
    from daedyn.data import load_matrix, preprocess

    ds = preprocess(load_matrix(d16_cache))
    lam1 = float(spectrum.eigendecompose(spectrum.covariance(ds)).eigenvalues[0])
    gamma = equivalent_decay(lam1, ds.n * 3.0) / ds.n
    base = NONLINEAR_SMALL + ["--dataset", str(d16_cache)]
    assert main(base + ["--out", str(tmp_path / "default")]) == cli.EXIT_OK
    assert main(base + ["--gamma", repr(gamma), "--out", str(tmp_path / "explicit")]) \
        == cli.EXIT_OK
    assert ((tmp_path / "default" / "nonlinear_wdae.csv").read_bytes()
            == (tmp_path / "explicit" / "nonlinear_wdae.csv").read_bytes())
    # without noise there is nothing to match, and an explicit 0 is no decay even with
    # noise: either way the WDAE leg is the AE leg
    for name, flags in (("clean", ["--sigma2", "0"]), ("no-decay", ["--gamma", "0"])):
        assert main(base + flags + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
        assert ((tmp_path / name / "nonlinear_wdae.csv").read_bytes()
                == (tmp_path / name / "nonlinear_ae.csv").read_bytes()), name


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


# one valid and one malformed value per setting, as given after its flag or its `key=`;
# True is a flag that takes no value, None a setting that has no malformed value
SETTING_VALUES = {
    "lambdas": ("2.5,1", "x"), "epsilons": ("0.5", "-1"), "sigma2": ("0.5", "abc"),
    "laplace_b": ("0.5", "abc"), "gamma": ("0.25", "abc"), "n": ("50", "1.5"),
    "alpha": ("0.5", "abc"), "epochs": ("7", "x"), "hidden": ("3", "0"),
    "init_scale": ("0.01", "abc"), "init": ("orthogonal", "bogus"), "seed": ("4", "x"),
    "out": ("results", None), "dataset": ("{dataset}", "{missing}"), "fmt": ("cache", "png"),
    "modes": ("1,2", "a"), "record_every": ("2", "0"), "center": (True, "maybe"),
    "scale": (True, "maybe"), "w0": ("0.02", "nan"), "weight_ratio": ("3", "inf"),
    "w1_0": ("0.1", "abc"), "w2_0": ("0.2", "abc"), "activation": ("tanh", "sigmoid"),
    "grid_min": ("-1", "abc"), "grid_max": ("1", "nan"), "grid_points": ("5", "1"),
    "paths": ("2", "-1"), "eps_max": ("4", "-1"), "eps_points": ("3", "0"),
    "eigenvectors": (True, "maybe"), "loss_mode": ("sampled", "other"),
    "noise_draws": ("2", "x"),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)
                                  if f.name != "experiment"])
def test_every_setting_is_one_flag_and_one_config_key(name, tmp_path, monkeypatch, capsys):
    # a field with no entry above, or with no flag, fails here
    valid, malformed = SETTING_VALUES[name]
    dataset = tmp_path / "d.cache"
    dataset.write_bytes(b"")
    key = cli._flag(name)

    def run(value, from_file):
        value = value if value is True else value.format(
            dataset=dataset, missing=tmp_path / "missing.cache")
        if from_file:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"{key}={'true' if value is True else value}\n")
            argv = ["predict", "--config", str(cfg_file)]
        else:
            argv = ["predict", "--" + key] + ([] if value is True else [value])
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "predict", lambda cfg: seen.append(cfg) or [])
        return main(argv), seen, capsys.readouterr().err

    (flag_code, flag_cfgs, _), (file_code, file_cfgs, _) = run(valid, False), run(valid, True)
    assert flag_code == file_code == cli.EXIT_OK
    assert flag_cfgs == file_cfgs
    assert getattr(flag_cfgs[0], name) != getattr(ExperimentConfig("predict"), name)
    if malformed is None:
        return
    # a flag that takes no value cannot carry a malformed one
    sources = [True] if valid is True else [True, False]
    for code, cfgs, err in (run(malformed, from_file) for from_file in sources):
        assert code == cli.EXIT_CONFIG and not cfgs
        assert err.startswith("config error:") and key in err, err


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


def test_predict_zero_gamma_is_no_decay(tmp_path):
    out = tmp_path / "out"
    assert main(["predict", "--gamma", "0", "--epochs", "50", "--out", str(out)]) == 0
    legend = _rows(out / "predict_legend.csv")
    assert len(legend) == 9
    assert all(float(row["gamma_eff"]) == 0.0 for row in legend)
    assert all(float(row["fixed_point_wdae"]) == 1.0 for row in legend)


@pytest.mark.parametrize("command", ["predict", "compare", "rates"])
@pytest.mark.parametrize("noise", [(["--sigma2", "0.01"], NoiseModel.gaussian(0.01)),
                                   (["--laplace-b", "0.3"], NoiseModel.laplace(0.3))],
                         ids=["sigma2", "laplace-b"])
def test_theory_commands_honour_every_noise_flag(command, noise, tmp_path):
    # the flag writes what its level in effective units (N sigma2 or 2 N b^2) writes
    flag, model = noise
    base = [command, "--n", "100", "--epochs", "20", "--record-every", "5"]
    runs = {"flag": flag, "default": [],
            "epsilon": ["--epsilon", repr(analytic.epsilon_from_noise(model, 100))]}
    for name, flags in runs.items():
        assert main(base + flags + ["--out", str(tmp_path / name)]) == 0, name
    names = sorted(path.name for path in (tmp_path / "flag").glob("*.csv"))
    assert names
    for name in names:
        written = (tmp_path / "flag" / name).read_bytes()
        assert written == (tmp_path / "epsilon" / name).read_bytes(), name
        assert written != (tmp_path / "default" / name).read_bytes(), name


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


def test_compare_summary_leaves_half_rise_empty_when_never_reached(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "--lambda", "1", "--epsilon", "0.5,2", "--epochs", "0",
                 "--out", str(out)]) == 0
    lines = (out / "compare_summary.csv").read_bytes().split(b"\r\n")
    assert lines[0].endswith(b",half_rise_dae,half_rise_wdae") and lines[-1] == b""
    assert len(lines) == 4 and all(line.endswith(b",,") for line in lines[1:3])


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


@pytest.mark.parametrize("epochs", ["1000", "0"])
def test_surface_csvs_match_the_row_writer(epochs, tmp_path):
    # at 101 points some losses differ in the last bits if the grid is vectorised
    flags = {"gamma": "0.1", "paths": "3", "epochs": epochs, "epsilons": "1",
             "grid_points": "101"}
    assert main(["surface", *(f"--{cli._flag(k)}={v}" for k, v in flags.items()),
                 "--out", str(tmp_path / "cli")]) == cli.EXIT_OK
    cfg = build_config("surface", {}, flags)
    write_surface_csv_rows(tmp_path, cfg, cli.DEFAULT_LAMBDAS[0], 1.0, cfg.n * cfg.gamma)
    for name in ("surface.csv", "surface_paths.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


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


def test_real_data_warns_for_modes_at_and_beyond_the_hidden_width(tmp_path, d16_cache, caplog):
    with caplog.at_level("WARNING", logger="daedyn.cli"):
        assert main(["real-data", "--dataset", str(d16_cache), "--hidden", "4",
                     "--modes", "1,3,4,5", "--epochs", "5", "--out", str(tmp_path)]) == 0
    warned = [r.getMessage() for r in caplog.records if r.name == "daedyn.cli"]
    assert any(m.startswith("mode 4 sits at hidden width 4") for m in warned), warned
    assert any(m.startswith("mode 5 exceeds hidden width 4") for m in warned), warned
    assert not any(m.startswith(("mode 1 ", "mode 3 ")) for m in warned), warned


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


def test_nonlinear_leaves_out_modes_past_the_data_rank(tmp_path):
    # D=10 samples spanning 6 directions: modes 7-10 sit below the eigenvalue floor
    rng = np.random.default_rng(4)
    basis = np.linalg.qr(rng.standard_normal((10, 6)))[0]
    cache = tmp_path / "rank6.cache"
    data.save_matrix(cache, rng.standard_normal((80, 6)) @ basis.T)
    out = tmp_path / "out"
    assert main(NONLINEAR_SMALL + ["--dataset", str(cache), "--modes", "1,6,7,10",
                                   "--out", str(out)]) == cli.EXIT_OK
    for name in ("ae", "wdae", "dae"):
        series = read_trajectory_csv(out / f"nonlinear_{name}.csv")
        assert [t.mode_index for t in series] == [1, 6], name
        assert all(np.isfinite(t.values).all() and t.values.size == 5 for t in series)


@pytest.mark.parametrize("flags, reason", [
    (["--epsilon", "1"], None),
    (["--gamma", "0.01"], None),
    (["--epsilon", "1", "--gamma", "0.01"], "both noise and decay"),
    (["--gamma", "0.01", "--w1-0", "-0.1", "--w2-0", "0.1"], "positive initial product"),
], ids=["noise", "decay", "noise-and-decay", "negative-product"])
def test_simulate_says_when_it_drops_the_analytic_overlay(flags, reason, tmp_path, caplog):
    with caplog.at_level("WARNING", logger="daedyn.cli"):
        assert main(["simulate", "--epochs", "50", *flags, "--out", str(tmp_path)]) == 0
    warned = [r.getMessage() for r in caplog.records if r.name == "daedyn.cli"]
    kinds = {t.kind for t in read_trajectory_csv(tmp_path / "simulate.csv")}
    if reason is None:
        assert not warned and len(kinds) == 2
    else:
        assert any(reason in m and "simulated curve only" in m for m in warned), warned
        assert kinds == {"simulated"}


def test_cli_outputs_are_deterministic(tmp_path, mnist_like_paths):
    images = str(mnist_like_paths[0])
    runs = {
        "real-data": ["real-data", "--dataset", images, "--n", "200", "--sigma2", "0.5",
                      "--alpha", "0.02", "--epochs", "300", "--hidden", "8",
                      "--modes", "1,2", "--record-every", "50", "--seed", "11"],
        "nonlinear": ["nonlinear", "--dataset", images, "--n", "100", "--hidden", "8",
                      "--alpha", "0.02", "--epochs", "20", "--record-every", "5", "--seed", "11"],
        "ingest": ["ingest", "--dataset", images, "--n", "100", "--eigenvectors"],
        "predict": ["predict", "--epochs", "500"],
        "compare": ["compare", "--epochs", "500"],
        "simulate": ["simulate", "--epsilon", "0.5", "--epochs", "500"],
        "surface": ["surface", "--grid-points", "11", "--paths", "2", "--epochs", "100",
                    "--seed", "11"],
        "rates": ["rates"],
    }
    assert set(runs) == set(cli.COMMANDS)
    for command, args in runs.items():
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        names = sorted(path.name for path in out_a.glob("*.csv"))
        assert names and names == sorted(path.name for path in out_b.glob("*.csv")), command
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (command, name)


def test_experiment_config_tau():
    cfg = ExperimentConfig(experiment="rates", n=200, alpha=0.5)
    assert cfg.tau == 400.0
