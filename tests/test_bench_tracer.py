"""The benchmark tracer still installs on the package the source tree builds."""

import importlib.util
from pathlib import Path

import numpy as np

from daedyn import analytic, data, nonlinear, simulate, spectrum
from daedyn.analytic import NoiseModel
from daedyn.simulate import TrainingConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    # the tracer looks every target up by name, so a renamed or deleted
    # function would break `bench/run.py --trace 1`
    spans = _load_spans()
    modules = {"analytic": analytic, "data": data, "nonlinear": nonlinear,
               "simulate": simulate, "spectrum": spectrum}
    originals = {(m, attr): getattr(modules[m], attr) for m, attr, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for (m, attr), original in originals.items():
            assert getattr(modules[m], attr) is not original, (m, attr)
        ds = data.synthetic_dataset([2.0, 1.0, 0.5], 40, seed=1)
        spec = spectrum.eigendecompose(spectrum.covariance(ds))
        cfg = TrainingConfig(learning_rate=0.1, epochs=3, noise=NoiseModel.gaussian(0.1),
                             hidden_dim=2, record_every=1)
        simulate.run_linear_ae(ds, spec, cfg)
        nonlinear.train_nonlinear(ds, spec, cfg, "relu")
    finally:
        tracer.uninstall()
    for (m, attr), original in originals.items():
        assert getattr(modules[m], attr) is original, (m, attr)
    names = {span[0] for span in tracer.spans}
    assert {"spectrum.covariance", "simulate.run_linear_ae",
            "nonlinear.train_nonlinear"} <= names
    metrics = spans.layer_metrics(tracer.spans, 1, 2)
    assert np.isfinite([value for value, _ in metrics.values()]).all()
