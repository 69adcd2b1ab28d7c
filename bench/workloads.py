"""The four benchmark workloads: inputs, CLI command sequences and output checks.

Each workload is a sequence of `daedyn` subcommands. The full sequence trains
for the workload's epoch count; the set-up sequence is the same commands with
`--epochs 0`. Checks read only the CSVs the commands wrote and the inputs the
benchmark generated, and return one (label, passed, detail) entry per check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

GAP_BOUND = 0.05        # criterion 07's rule: per-mode RMS gap <= 5% of the fixed point
SPECTRUM_RTOL = 1e-9    # CLI eigenvalues vs numpy.linalg.eigvalsh, relative to the top one
PLATEAU_RTOL = 1e-3     # theory_grid: final closed-form value vs the legend fixed point


class CheckError(Exception):
    """An output file is missing or does not have the expected shape."""


@dataclass
class Context:
    """Generated inputs and the values the checks compare against."""

    seed: int
    files: dict                     # role -> path
    records: list                   # one file record (bytes, sha256, seed) per input
    reference: dict = field(default_factory=dict)


@dataclass
class Outcome:
    checks: list                    # (label, passed, detail)
    theory_gap_rel: float | None = None
    findings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_epochs: int               # gradient steps in one full sequence
    modes_emitted: int              # modes written per record / estimate
    prepare: Callable[[Path, int], Context]
    commands: Callable[[Context, Path, bool], list]
    check: Callable[[Context, Path], Outcome]


def read_trajectories(path):
    """{(mode, kind): (times, values)} from an epoch,mode,kind,value CSV."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["epoch", "mode", "kind", "value"]:
            raise CheckError(f"{path}: unexpected header {header!r}")
        for epoch, mode, kind, value in reader:
            times, values = groups.setdefault((int(mode), kind), ([], []))
            times.append(float(epoch))
            values.append(float(value))
    return {key: (np.array(t), np.array(v)) for key, (t, v) in groups.items()}


def read_table(path):
    """Header plus float rows of a plain CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [[float(x) for x in row] for row in reader]
    if header is None or not rows:
        raise CheckError(f"{path}: empty table")
    return header, np.array(rows)


def count_csv_rows(directory):
    """Data rows (header excluded) over every CSV under a directory."""
    total = 0
    for path in sorted(Path(directory).rglob("*.csv")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def _spectrum_check(path, samples):
    _, table = read_table(path)
    got = table[:, 1]
    want = np.sort(np.linalg.eigvalsh(samples.T @ samples))[::-1]
    err = float(np.max(np.abs(got - want)) / want[0])
    return ("spectrum.csv matches numpy eigvalsh", err <= SPECTRUM_RTOL, f"max rel err {err:.2e}")


def _mode_gaps(groups, eigenvalues, eps, modes):
    """Per-mode RMS(simulated - analytic) / fixed point, on the shared record times."""
    gaps = {}
    for rank in modes:
        t_sim, sim = groups[(rank, "simulated")]
        t_ana, ana = groups[(rank, "analytic_dae")]
        if not np.array_equal(t_sim, t_ana):
            raise CheckError(f"mode {rank}: simulated and analytic record times differ")
        lam = eigenvalues[rank - 1]
        gaps[rank] = float(np.sqrt(np.mean((sim - ana) ** 2)) / (lam / (lam + eps)))
    return gaps


def _gap_checks(gaps):
    return [(f"mode {rank} gap <= {GAP_BOUND:.0%} of fixed point", gap <= GAP_BOUND, f"{gap:.4f}")
            for rank, gap in gaps.items()]


# --- linear_mnist -----------------------------------------------------------

LINEAR_N, LINEAR_SIGMA2, LINEAR_EPOCHS = 1000, 0.5, 1500
LINEAR_MODES = (1, 4, 8, 16, 32)


def _prepare_images(work, seed, rows):
    path, pixels, record = inputs.make_images(work, seed)
    return Context(seed=seed, files={"images": path}, records=[record],
                   reference={"samples": pixels[:rows]})


def _linear_commands(ctx, out, full):
    return [["real-data", "--dataset", str(ctx.files["images"]), "--format", "idx",
             "--n", str(LINEAR_N), "--hidden", "32", "--sigma2", str(LINEAR_SIGMA2),
             "--alpha", "0.01", "--init", "small_random", "--seed", str(ctx.seed),
             "--modes", ",".join(map(str, LINEAR_MODES)),
             "--epochs", str(LINEAR_EPOCHS if full else 0), "--out", str(out)]]


def _linear_check(ctx, out):
    checks = [_spectrum_check(out / "spectrum.csv", ctx.reference["samples"])]
    _, spec = read_table(out / "spectrum.csv")
    gaps = _mode_gaps(read_trajectories(out / "real_data.csv"), spec[:, 1],
                      LINEAR_N * LINEAR_SIGMA2, LINEAR_MODES)
    return Outcome(checks=checks + _gap_checks(gaps), theory_gap_rel=max(gaps.values()))


# --- nonlinear_relu ---------------------------------------------------------

NONLINEAR_N, NONLINEAR_SIGMA2, NONLINEAR_EPOCHS = 500, 3.0, 400
NONLINEAR_MODES = (1, 2, 3, 4)
NONLINEAR_LEGS = ("ae", "wdae", "dae")


def _prepare_nonlinear(work, seed):
    from daedyn.analytic import equivalent_decay

    ctx = _prepare_images(work, seed, NONLINEAR_N)
    x = ctx.reference["samples"]
    lam1 = float(np.linalg.eigvalsh(x.T @ x)[-1])
    # criterion 09's matched decay; the CLI default (0.0045) is far weaker
    ctx.reference["gamma"] = equivalent_decay(lam1, NONLINEAR_N * NONLINEAR_SIGMA2) / NONLINEAR_N
    return ctx


def _nonlinear_commands(ctx, out, full):
    return [["nonlinear", "--dataset", str(ctx.files["images"]), "--format", "idx",
             "--activation", "relu", "--n", str(NONLINEAR_N), "--hidden", "48",
             "--alpha", "0.02", "--sigma2", str(NONLINEAR_SIGMA2),
             "--gamma", repr(ctx.reference["gamma"]), "--seed", str(ctx.seed),
             "--epochs", str(NONLINEAR_EPOCHS if full else 0), "--out", str(out)]]


def _nonlinear_check(ctx, out):
    series = {leg: read_trajectories(out / f"nonlinear_{leg}.csv") for leg in NONLINEAR_LEGS}
    checks = []
    for rank in NONLINEAR_MODES:
        plateau = {leg: float(np.mean(series[leg][(rank, "estimated")][1][-8:]))
                   for leg in NONLINEAR_LEGS}
        detail = ", ".join(f"{leg} {value:.4f}" for leg, value in plateau.items())
        checks.append((f"mode {rank} plateau dae < ae", plateau["dae"] < plateau["ae"], detail))
        checks.append((f"mode {rank} plateau wdae < ae", plateau["wdae"] < plateau["ae"], detail))
    rise = {}
    for leg in ("dae", "wdae"):
        times, values = series[leg][(1, "estimated")]
        hits = np.flatnonzero(values >= 0.5 * np.mean(values[-8:]))
        rise[leg] = float(times[hits[0]]) if hits.size else math.inf
    checks.append(("mode 1 half-rise dae <= wdae", rise["dae"] <= rise["wdae"],
                   f"dae {rise['dae']}, wdae {rise['wdae']}"))
    return Outcome(checks=checks)


# --- sampled_small_d --------------------------------------------------------

SAMPLED_LAPLACE_B, SAMPLED_EPOCHS = 0.0225, 600
SAMPLED_HIDDEN = 16
SAMPLED_MODES = (1, 2, 4, 8, 16)
SAMPLED_CHECKED = tuple(m for m in SAMPLED_MODES if m < SAMPLED_HIDDEN)


def _prepare_sampled(work, seed):
    path, samples, record = inputs.make_synthetic_cache(work, seed)
    return Context(seed=seed, files={"cache": path}, records=[record],
                   reference={"samples": samples})


def _sampled_commands(ctx, out, full):
    n = str(inputs.SYNTH_N)
    return [
        ["ingest", "--dataset", str(ctx.files["cache"]), "--format", "cache", "--n", n,
         "--epochs", "0", "--out", str(out / "ingest")],
        ["real-data", "--dataset", str(out / "ingest" / "data.cache"), "--format", "cache",
         "--n", n, "--loss-mode", "sampled", "--laplace-b", str(SAMPLED_LAPLACE_B),
         "--hidden", str(SAMPLED_HIDDEN), "--alpha", "10", "--seed", str(ctx.seed),
         "--modes", ",".join(map(str, SAMPLED_MODES)),
         "--epochs", str(SAMPLED_EPOCHS if full else 0), "--out", str(out / "real")],
    ]


def _sampled_check(ctx, out):
    cache_same = (out / "ingest" / "data.cache").read_bytes() == ctx.files["cache"].read_bytes()
    spectra_same = ((out / "ingest" / "spectrum.csv").read_bytes()
                    == (out / "real" / "spectrum.csv").read_bytes())
    checks = [
        ("ingested cache is byte-identical to the input", cache_same, ""),
        _spectrum_check(out / "ingest" / "spectrum.csv", ctx.reference["samples"]),
        ("real-data spectrum equals ingest spectrum", spectra_same, ""),
    ]
    _, spec = read_table(out / "real" / "spectrum.csv")
    eps = 2.0 * inputs.SYNTH_N * SAMPLED_LAPLACE_B ** 2
    gaps = _mode_gaps(read_trajectories(out / "real" / "real_data.csv"), spec[:, 1], eps,
                      SAMPLED_MODES)
    checked = {rank: gaps[rank] for rank in SAMPLED_CHECKED}
    # the rank at the hidden-width edge is reported, not gated: it has not
    # finished rising at this run length and its gap is a known finding
    findings = {f"mode_{rank}_gap_rel": gaps[rank] for rank in SAMPLED_MODES
                if rank not in checked}
    return Outcome(checks=checks + _gap_checks(checked), theory_gap_rel=max(checked.values()),
                   findings=findings)


# --- theory_grid ------------------------------------------------------------

GRID_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 2.5)
GRID_EPSILONS = (0.1, 0.25, 0.5, 0.75, 1.0)
GRID_EPOCHS = 16000
SCALAR_STEPS = 200_000
SURFACE_PATHS, SURFACE_STEPS = 40, 20_000


def _prepare_grid(work, seed):
    return Context(seed=seed, files={}, records=[])


def _grid_commands(ctx, out, full):
    grid = ["--lambda", ",".join(map(str, GRID_LAMBDAS)),
            "--epsilon", ",".join(map(str, GRID_EPSILONS)), "--record-every", "1"]
    epochs = (lambda count: ["--epochs", str(count if full else 0)])
    return [
        ["predict", *grid, *epochs(GRID_EPOCHS), "--out", str(out / "predict")],
        ["compare", *grid, *epochs(GRID_EPOCHS), "--out", str(out / "compare")],
        ["simulate", "--lambda", "1", "--epsilon", "1", "--record-every", "1",
         *epochs(SCALAR_STEPS), "--out", str(out / "simulate")],
        ["surface", "--lambda", "1", "--epsilon", "1", "--grid-points", "201",
         "--paths", str(SURFACE_PATHS), "--record-every", "10", "--seed", str(ctx.seed),
         *epochs(SURFACE_STEPS), "--out", str(out / "surface")],
        ["rates", "--lambda", "1", "--eps-max", "10", "--eps-points", "2001", "--epochs", "0",
         "--out", str(out / "rates")],
    ]


def _grid_check(ctx, out):
    checks = []
    _, legend = read_table(out / "predict" / "predict_legend.csv")
    curves = read_trajectories(out / "predict" / "predict.csv")
    worst = 0.0
    for mode, lam, eps, _, fp_dae, fp_wdae in legend:
        for kind, fixed in (("analytic_dae", fp_dae), ("analytic_wdae", fp_wdae)):
            worst = max(worst, abs(curves[(int(mode), kind)][1][-1] - fixed) / fixed)
        worst = max(worst, abs(fp_dae - lam / (lam + eps)) / fp_dae)
    checks.append((f"{len(legend)} predict curves end at their legend fixed points",
                   len(legend) == len(GRID_LAMBDAS) * len(GRID_EPSILONS) and worst <= PLATEAU_RTOL,
                   f"worst rel err {worst:.2e}"))
    _, rates = read_table(out / "rates" / "rates.csv")
    steps = np.diff(rates[:, 4])
    checks.append(("rates ratio strictly decreasing in epsilon", bool(np.all(steps < 0.0)),
                   f"largest step {steps.max():.3e}"))
    gaps = _mode_gaps(read_trajectories(out / "simulate" / "simulate.csv"), [1.0], 1.0, (1,))
    return Outcome(checks=checks + _gap_checks(gaps), theory_gap_rel=gaps[1])


WORKLOADS = {
    w.name: w for w in (
        Workload("linear_mnist",
                 "the paper's MNIST experiment: marginalised D=784 training, simulate dominates",
                 LINEAR_EPOCHS, len(LINEAR_MODES),
                 lambda work, seed: _prepare_images(work, seed, LINEAR_N),
                 _linear_commands, _linear_check),
        Workload("nonlinear_relu",
                 "ReLU AE/WDAE/DAE triple: backprop, gaussian draws and the per-mode estimator",
                 3 * NONLINEAR_EPOCHS, len(NONLINEAR_MODES),
                 _prepare_nonlinear, _nonlinear_commands, _nonlinear_check),
        Workload("sampled_small_d",
                 "ingest then sampled Laplace training at D=128: Jacobi eigensolver, cache I/O",
                 SAMPLED_EPOCHS, len(SAMPLED_MODES),
                 _prepare_sampled, _sampled_commands, _sampled_check),
        Workload("theory_grid",
                 "closed forms, scalar descent and CSV emission carry the load; no dataset",
                 SCALAR_STEPS + SURFACE_PATHS * SURFACE_STEPS, 0,
                 _prepare_grid, _grid_commands, _grid_check),
    )
}
