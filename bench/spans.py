"""Span recording around calls into the daedyn modules, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers from outside the
package; nothing under src/ is edited. Helpers that a module imported by name
(nonlinear's `_draw_noise`) are wrapped in the importing module too, under the
span name of the function's home module. Spans stay in memory and are written
out once, when the run ends. A span records its name, start, end, parent span,
the sequence repetition it belongs to, and any work count computed from its
arguments; every wrapped function reports a call count, so a call that a
later refactor moves shows up as a count of 0 rather than as a speed-up.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "spectrum", "simulate", "nonlinear", "analytic")


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _saved_bytes(args, kwargs, result):
    return 8 + np.asarray(args[1]).size * 8


def _dimension(args, kwargs, result):
    return int(np.asarray(args[0]).shape[0])


def _marginal_flop(args, kwargs, result):
    # two flops per multiply-add of the nine matrix products in
    # marginalized_loss_and_grads: W1 S and W2^T S (H D^2 each) and seven
    # products of H^2 D each
    h, d = args[0].w1.shape
    return 2 * (2 * h * d * d + 7 * h * h * d)


def _noise_values(args, kwargs, result):
    return 0 if result is None else int(result.size)


def _modes_recorded(args, kwargs, result):
    return int(result[0].shape[0])


def _modes_estimated(args, kwargs, result):
    return int(result.ratios.shape[0])


def _scalar_steps(args, kwargs, result):
    return int(args[2])


def _points(position):
    return lambda args, kwargs, result: int(np.size(args[position]))


def _csv_rows(args, kwargs, result):
    return sum(len(traj.times) for traj in args[1])


# (module, attribute, span name, work count); span names carry the home module
TARGETS = (
    ("data", "load_idx", "data.load_idx", _file_bytes),
    ("data", "load_matrix", "data.load_matrix", _file_bytes),
    ("data", "save_matrix", "data.save_matrix", _saved_bytes),
    ("data", "preprocess", "data.preprocess", None),
    ("spectrum", "covariance", "spectrum.covariance", None),
    ("spectrum", "eigendecompose", "spectrum.eigendecompose", _dimension),
    ("spectrum", "_jacobi", "spectrum._jacobi", None),
    ("spectrum", "write_spectrum_csv", "spectrum.write_spectrum_csv", None),
    ("simulate", "run_linear_ae", "simulate.run_linear_ae", None),
    ("simulate", "marginalized_loss_and_grads", "simulate.marginalized_loss_and_grads",
     _marginal_flop),
    ("simulate", "_sampled_grads", "simulate._sampled_grads", None),
    ("simulate", "_rotated_diag", "simulate._rotated_diag", _modes_recorded),
    ("simulate", "_draw_noise", "simulate._draw_noise", _noise_values),
    ("nonlinear", "_draw_noise", "simulate._draw_noise", _noise_values),
    ("simulate", "modes_from_linear_ae", "simulate.modes_from_linear_ae", None),
    ("simulate", "run_scalar_gd", "simulate.run_scalar_gd", _scalar_steps),
    ("nonlinear", "train_nonlinear", "nonlinear.train_nonlinear", None),
    ("nonlinear", "backprop_grads", "nonlinear.backprop_grads", None),
    ("nonlinear", "estimate_identity_map", "nonlinear.estimate_identity_map", _modes_estimated),
    ("analytic", "dae_trajectory", "analytic.dae_trajectory", _points(1)),
    ("analytic", "wdae_trajectory", "analytic.wdae_trajectory", _points(4)),
    ("analytic", "scalar_loss_and_grad", "analytic.scalar_loss_and_grad", None),
    ("analytic", "write_trajectory_csv", "analytic.write_trajectory_csv", _csv_rows),
)
SPAN_NAMES = ("cli.main",) + tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class ClampCounter(logging.Handler):
    """Counts eigenvalues the spectrum module reports as clamped to zero."""

    def __init__(self):
        super().__init__()
        self.clamped = 0

    def emit(self, record):
        match = re.match(r"clamped (\d+) ", record.getMessage())
        if match:
            self.clamped += int(match.group(1))


class Tracer:
    """Wraps module attributes with span-recording functions while installed."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent, rep, work]
        self.rep = 0
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rep, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result
        return traced

    def install(self, modules):
        for module_name, attr, name, work in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "rep", "work")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, reps, modes_emitted):
    """Per-layer metrics for one workload from the recorded spans.

    Totals and counts are per sequence (divided by the number of traced
    repetitions); per-call percentiles pool every call. Self time is a span's
    duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {name: {"dur": [], "self": 0.0, "work": 0} for name in SPAN_NAMES}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        entry = by_name[name]
        entry["dur"].append(end - start)
        entry["self"] += end - start - child_time[i]
        entry["work"] += work or 0

    def total(name):
        return sum(by_name[name]["dur"]) / reps

    def calls(name):
        return len(by_name[name]["dur"]) // reps

    def work(name):
        return by_name[name]["work"] // reps

    def ms(name, q):
        return 1e3 * _pct(by_name[name]["dur"], q)

    def ratio(num, den):
        return num / den if den else 0.0

    # noise percentiles and counts cover only the draws that produced noise
    draw_ms = [1e3 * (end - start) for name, start, end, _, _, work in spans
               if name == "simulate._draw_noise" and work]
    traced_wall = total("cli.main")
    layer_self = {layer: sum(e["self"] for n, e in by_name.items() if n.startswith(layer + "."))
                  / reps for layer in LAYERS}
    parse_s = total("data.load_idx") + total("data.load_matrix")
    parse_bytes = work("data.load_idx") + work("data.load_matrix")
    eig_calls = calls("spectrum.eigendecompose")
    jacobi_calls = calls("spectrum._jacobi")
    grad_calls = calls("simulate.marginalized_loss_and_grads")
    record_calls = calls("simulate._rotated_diag")
    estimate_calls = calls("nonlinear.estimate_identity_map")
    points = work("analytic.dae_trajectory") + work("analytic.wdae_trajectory")
    closed_form_s = total("analytic.dae_trajectory") + total("analytic.wdae_trajectory")
    metrics = {
        "data.parse_s": (parse_s, "s"),
        "data.parse_mb_per_s": (ratio(parse_bytes / 1e6, parse_s), "MB/s"),
        "data.parse_bytes": (parse_bytes, "bytes"),
        "data.save_s": (total("data.save_matrix"), "s"),
        "data.save_bytes": (work("data.save_matrix"), "bytes"),
        "spectrum.cov_s": (total("spectrum.covariance"), "s"),
        "spectrum.eig_s": (total("spectrum.eigendecompose"), "s"),
        "spectrum.eig_jacobi_calls": (jacobi_calls, "count"),
        "spectrum.eig_lapack_calls": (eig_calls - jacobi_calls, "count"),
        "spectrum.eig_dim": (ratio(work("spectrum.eigendecompose"), eig_calls), "count"),
        "spectrum.eigenpairs_computed": (work("spectrum.eigendecompose"), "count"),
        "simulate.grad_ms_p50": (ms("simulate.marginalized_loss_and_grads", 50), "ms"),
        "simulate.grad_ms_p99": (ms("simulate.marginalized_loss_and_grads", 99), "ms"),
        "simulate.grad_calls": (grad_calls, "count"),
        "simulate.grad_flop": (ratio(work("simulate.marginalized_loss_and_grads"), grad_calls),
                               "flop"),
        "simulate.record_ms_p50": (ms("simulate._rotated_diag", 50), "ms"),
        "simulate.record_calls": (record_calls, "count"),
        "simulate.record_useful_ratio": (
            ratio(modes_emitted * record_calls, work("simulate._rotated_diag")), "ratio"),
        "simulate.sampled_grad_ms_p50": (ms("simulate._sampled_grads", 50), "ms"),
        "simulate.noise_draw_ms_p50": (_pct(draw_ms, 50), "ms"),
        "simulate.noise_draws": (len(draw_ms) // reps, "count"),
        # values per noisy draw, i.e. per epoch of a noisy run
        "simulate.noise_values": (ratio(by_name["simulate._draw_noise"]["work"], len(draw_ms)),
                                  "count"),
        "simulate.loop_self_s": (by_name["simulate.run_linear_ae"]["self"] / reps, "s"),
        "simulate.scalar_step_us": (1e6 * ratio(total("simulate.run_scalar_gd"),
                                                work("simulate.run_scalar_gd")), "us"),
        "simulate.scalar_steps": (work("simulate.run_scalar_gd"), "count"),
        "nonlinear.backprop_ms_p50": (ms("nonlinear.backprop_grads", 50), "ms"),
        "nonlinear.backprop_ms_p99": (ms("nonlinear.backprop_grads", 99), "ms"),
        "nonlinear.estimate_ms_p50": (ms("nonlinear.estimate_identity_map", 50), "ms"),
        "nonlinear.estimate_calls": (estimate_calls, "count"),
        "nonlinear.estimate_useful_ratio": (
            ratio(modes_emitted * estimate_calls, work("nonlinear.estimate_identity_map")),
            "ratio"),
        "nonlinear.loop_self_s": (by_name["nonlinear.train_nonlinear"]["self"] / reps, "s"),
        "analytic.closed_form_ns_per_point": (1e9 * ratio(closed_form_s, points), "ns"),
        "analytic.points": (points, "count"),
        "analytic.csv_us_per_row": (
            1e6 * ratio(total("analytic.write_trajectory_csv"),
                        work("analytic.write_trajectory_csv")), "us"),
        "analytic.csv_rows": (work("analytic.write_trajectory_csv"), "count"),
        "cli.self_s": (layer_self["cli"], "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (ratio(layer_self[layer], traced_wall), "ratio")
    for name in SPAN_NAMES:
        metrics[f"calls.{name}"] = (calls(name), "count")
    return metrics
