"""Property test of the CLI exit-code contract: 0 ok, 2 config, 3 divergence, 4 I/O or parse.

Every subcommand is driven with each listed flag value on its own and with
drawn combinations of valid, out-of-range and malformed values on a small
cache; whatever the input, the run must end with one of the four contract
codes and never with a traceback.
"""

import argparse
import contextlib
import io

import pytest

from daedyn import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONTRACT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGENCE, cli.EXIT_IO}

# None marks a flag that takes no value; --epochs stays small so a run is quick (every
# command forms its record times before its first step, so a huge one fails at once, as
# test_cli's test_a_request_past_any_address_space_exits_2_without_traceback checks).
# 10^14 sizes an array past any machine's address space, which fails at once with exit 2
FLAG_VALUES = {
    "--lambda": ["1", "2.5,0.5", "0", "-1", "nan", "x", ",", "1.7e308"],
    "--epsilon": ["0", "1", "1,50", "-1", "inf", ","],
    "--sigma2": ["0", "0.5", "-1", "nan"],
    "--laplace-b": ["0.1", "-1", "1e200"],
    "--gamma": ["0", "0.01", "-1", "inf"],
    "--n": ["0", "1", "32", "1000"],
    "--alpha": ["0.01", "1", "1e9", "0", "nan"],
    "--hidden": ["0", "1", "4", "40", "100000000000000"],
    "--init-scale": ["1e-3", "0", "-1", "1e200"],
    "--init": ["small_random", "orthogonal", "bogus"],
    "--seed": ["0", "7", "-1"],
    "--format": ["idx", "cache", "cifar10", "png"],
    "--modes": ["1", "1,2", "0", "17", "a", ","],
    "--record-every": ["0", "1", "2"],
    "--center": [None],
    "--scale": [None],
    "--eigenvectors": [None],
    "--w0": ["1e-3", "0", "-1", "nan"],
    "--weight-ratio": ["2", "1", "0", "inf"],
    "--w1-0": ["0.1", "0", "-0.5"],
    "--w2-0": ["0.1", "0"],
    "--activation": ["relu", "tanh", "identity", "sigmoid"],
    "--grid-min": ["-1", "nan", "2"],
    "--grid-max": ["1", "inf", "-2", "1e200"],
    "--grid-points": ["1", "2", "5", "100000000000000"],
    "--paths": ["-1", "0", "2"],
    "--eps-max": ["10", "0", "-1", "inf", "nan"],
    "--eps-points": ["0", "1", "5", "100000000000000"],
    "--loss-mode": ["marginalized", "sampled", "other"],
}
# flags of retired settings: argparse refuses each as an unrecognized argument
RETIRED_FLAG_VALUES = {
    "--noise-draws": ["0", "1", "2"],
}


@pytest.fixture(scope="module")
def inputs(d16_cache, tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    garbage = root / "garbage.cache"
    garbage.write_bytes(b"\x01\x00")
    bad_config = root / "bad.cfg"
    bad_config.write_text("alpha 0.5\n")
    return {"cache": d16_cache, "garbage": garbage, "missing": root / "missing.idx",
            "config": bad_config, "out": root / "out"}


def _assert_exits_with_a_contract_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in CONTRACT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(data=st.data())
def test_every_flag_combination_exits_with_a_contract_code(command, data, inputs):
    argv = [command, "--out", str(inputs["out"]),
            "--epochs", data.draw(st.sampled_from(["0", "1", "5", "-1"]), label="epochs")]
    dataset = data.draw(st.sampled_from(["cache", "cache", "cache", "garbage", "missing", None]),
                        label="dataset")
    if dataset is not None:
        argv += ["--dataset", str(inputs[dataset])]
    if data.draw(st.integers(0, 9), label="config") == 0:
        argv += ["--config", str(inputs["config"])]
    flags = data.draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), unique=True, max_size=6),
                      label="flags")
    for flag in flags:
        value = data.draw(st.sampled_from(FLAG_VALUES[flag]), label=flag)
        argv += [flag] if value is None else [flag, value]
    _assert_exits_with_a_contract_code(argv)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("flag, value", [
    (flag, value) for flag, values in {**FLAG_VALUES, **RETIRED_FLAG_VALUES}.items()
    for value in values])
def test_every_flag_value_exits_with_a_contract_code(command, flag, value, inputs):
    # each table entry once on its own, which the drawn combinations may miss
    argv = [command, "--out", str(inputs["out"]), "--epochs", "0",
            "--dataset", str(inputs["cache"])] + ([flag] if value is None else [flag, value])
    if flag not in RETIRED_FLAG_VALUES:
        _assert_exits_with_a_contract_code(argv)
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_flag_values_cover_every_shared_flag():
    parser = argparse.ArgumentParser()
    cli._add_shared_flags(parser)
    registered = {option for action in parser._actions for option in action.option_strings}
    # the test draws these four itself
    assert registered - {"-h", "--help"} == set(FLAG_VALUES) | {
        "--out", "--epochs", "--dataset", "--config"}
