"""daedyn benchmark: CLI workloads end to end, and a traced run for per-layer numbers.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a checkout that holds src/daedyn. The benchmark generates its inputs
from the seed, then:

- with --trace 0, runs the workload's command sequence through the `daedyn`
  CLI, one child process per command: full sequences until --seconds have
  passed, at least two, each after a set-up sequence (every command with
  --epochs 0), and at least three set-up sequences. It prints wall_s,
  setup_s, epochs_per_s, rows_per_s, peak_rss_mb, theory_gap_rel and
  fail_ratio;
- with --trace 1, calls cli.main in-process, alternating an untraced and a
  traced sequence, and prints the per-layer metrics from the traced spans.

Every output is checked. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1 when
any check failed and 2 when the checkout has no daedyn sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, below the CPU count: on a shared machine the speed-up of a
# second thread depends on whether a neighbour holds the other core, and that
# made two-thread times drift by up to a third between runs.
BLAS_THREADS = 1
MIN_SETUP_SAMPLES = 3
MIN_FULL_SAMPLES = 2
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 150.0
DEADLINE_S = 120.0      # stop starting new samples after this much measuring

# Reads [argv, log path] lines; forks and execs each command with its output
# appended to the log, then prints the child's pid, and once it has ended, its
# exit code and peak RSS in KiB.
SPAWNER = """
import json, os, sys
for line in sys.stdin:
    argv, log = json.loads(line)
    pid = os.fork()
    if pid == 0:
        try:
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    print(pid, flush=True)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)
"""


class Tally:
    """Attempted and failed commands and checks; failures keep a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.checks = {}          # label -> detail of its latest evaluation

    def record(self, label, passed, detail=""):
        self.attempted += 1
        self.checks[label] = ("pass" if passed else "FAIL", detail)
        if not passed:
            self.failures.append(f"{label}: {detail}".rstrip(": "))

    def extend(self, outcome_checks):
        for label, passed, detail in outcome_checks:
            self.record(label, passed, detail)


def set_blas_threads():
    """Set the BLAS thread count for this process and its children; returns the CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def environment(seed, nproc, records):
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except KeyError:
        openblas = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {"nproc": nproc, "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "git_sha": git_sha(), "src_sha256": src_hash.hexdigest(),
            "seed": seed, "inputs": records}


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def child_env():
    """This process's environment with src/ first on PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def reset(directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def csv_hashes(directory):
    return {path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*.csv"))}


class Spawner:
    """Runs CLI commands as children of a small helper process.

    Linux carries a parent's peak RSS into the ru_maxrss of a child it
    vforks, so children spawned by this process (numpy, parsed CSVs) would
    report the benchmark's memory instead of their own. The helper imports
    nothing heavy, so each command's peak RSS is its own.
    """

    def __init__(self, env, log_path):
        self.log_path = str(log_path)
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", SPAWNER], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """Returns (exit code, peak RSS in KiB) of one `daedyn` command."""
        argv = [sys.executable, "-m", "daedyn.cli", *argv]
        self.proc.stdin.write(json.dumps([argv, self.log_path]) + "\n")
        self.proc.stdin.flush()
        pid = int(self.proc.stdout.readline())
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            code, peak_kb = map(int, self.proc.stdout.readline().split())
        finally:
            killer.cancel()
        return code, peak_kb

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)


def run_sequence(commands, spawner, tally):
    """Run each command as a child process; returns (wall seconds, peak RSS in MB).

    A command after a failed one is counted as failed without being run.
    """
    peak_kb = 0
    failed = False
    start = time.perf_counter()
    for argv in commands:
        label = f"daedyn {argv[0]} exits 0"
        if failed:
            tally.record(label, False, "skipped after an earlier failure")
            continue
        code, child_kb = spawner.run(argv)
        peak_kb = max(peak_kb, child_kb)
        failed = code != 0
        tally.record(label, not failed, f"exit code {code}, see {spawner.log_path}")
    return time.perf_counter() - start, peak_kb / 1024.0


def checked(workload, ctx, out, tally):
    """Run the workload's output checks, counting an unreadable output as one failure."""
    from workloads import CheckError

    try:
        outcome = workload.check(ctx, out)
    except (OSError, CheckError, KeyError, ValueError, IndexError) as exc:
        tally.record("outputs readable", False, f"{type(exc).__name__}: {exc}")
        return None
    tally.extend(outcome.checks)
    return outcome


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def measure_end_to_end(workload, ctx, seconds, work, tally):
    from workloads import count_csv_rows

    spawner = Spawner(child_env(), work / "commands.log")
    full_out, setup_out = work / "full", work / "setup"
    walls, setups, peaks = [], [], []
    first = None
    outcome = None
    start = time.perf_counter()

    def setup_sample():
        reset(setup_out)
        wall, _ = run_sequence(workload.commands(ctx, setup_out, False), spawner, tally)
        setups.append(wall)

    try:
        while True:
            setup_sample()      # paired with each full sample, so both see the same load
            reset(full_out)
            wall, peak = run_sequence(workload.commands(ctx, full_out, True), spawner, tally)
            walls.append(wall)
            peaks.append(peak)
            hashes = csv_hashes(full_out)
            if first is None:
                first = hashes
                outcome = checked(workload, ctx, full_out, tally)
                rows_full = count_csv_rows(full_out)
                rows_setup = count_csv_rows(setup_out)
            else:
                tally.record("CSVs byte-identical to the first run of this seed",
                             hashes == first, "CSV bytes differ")
            elapsed = time.perf_counter() - start
            if elapsed > DEADLINE_S or (len(walls) >= MIN_FULL_SAMPLES
                                        and elapsed + walls[-1] > seconds):
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            setup_sample()
    finally:
        spawner.close()

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    train_s = wall_s - setup_s
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "epochs_per_s": (workload.train_epochs / train_s, "1/s"),
        "rows_per_s": ((rows_full - rows_setup) / train_s, "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    notes = [f"wall_s: median of {len(walls)} full sequences; {tail_text}",
             "wall samples: " + " ".join(f"{w:.3f}" for w in walls),
             f"setup_s: median of {len(setups)} sequences run with --epochs 0",
             "setup samples: " + " ".join(f"{w:.3f}" for w in setups),
             f"epochs_per_s: {workload.train_epochs} epochs / (wall_s - setup_s)",
             f"rows_per_s: ({rows_full} - {rows_setup}) CSV rows / (wall_s - setup_s)"]
    if outcome is not None and outcome.theory_gap_rel is not None:
        notes.append(f"theory_gap_rel: {outcome.theory_gap_rel:.6f} (exact per seed)")
    if outcome is not None:
        notes.extend(f"finding {key}: {value:.6f}" for key, value in outcome.findings.items())
    return metrics, notes


def inprocess_sequence(main, commands, log, tally):
    """Call cli.main once per command; returns the wall time of the sequence."""
    start = time.perf_counter()
    for argv in commands:
        try:
            with contextlib.redirect_stdout(log):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed command, not a crash
            code = f"{type(exc).__name__}: {exc}"
        tally.record(f"daedyn {argv[0]} returns 0 in-process", code == 0, f"returned {code}")
    return time.perf_counter() - start


def import_seconds(env):
    probe = "import time; t = time.perf_counter(); import daedyn.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def measure_traced(workload, ctx, seconds, work, tally):
    import logging

    import spans

    import_s = import_seconds(child_env())
    from daedyn import analytic, cli, data, nonlinear, simulate, spectrum

    modules = {"analytic": analytic, "data": data, "nonlinear": nonlinear,
               "simulate": simulate, "spectrum": spectrum}
    root = logging.getLogger()
    root.addHandler(logging.FileHandler(work / "daedyn.log"))
    root.setLevel(logging.INFO)
    clamps = spans.ClampCounter()
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    off_dir, on_dir = work / "untraced", work / "traced"
    untraced, traced = [], []
    start = time.perf_counter()
    with open(work / "stdout.log", "w") as log:
        while True:
            reset(off_dir)
            untraced.append(inprocess_sequence(cli.main, workload.commands(ctx, off_dir, True),
                                               log, tally))
            reset(on_dir)
            tracer.rep = len(traced)
            tracer.install(modules)
            logging.getLogger("daedyn.spectrum").addHandler(clamps)
            try:
                traced.append(inprocess_sequence(traced_main,
                                                 workload.commands(ctx, on_dir, True), log, tally))
            finally:
                logging.getLogger("daedyn.spectrum").removeHandler(clamps)
                tracer.uninstall()
            if len(traced) == 1:
                checked(workload, ctx, on_dir, tally)
            tally.record("traced CSVs byte-identical to untraced",
                         csv_hashes(on_dir) == csv_hashes(off_dir), "CSV bytes differ")
            elapsed = time.perf_counter() - start
            if elapsed > DEADLINE_S or elapsed + untraced[-1] + traced[-1] > seconds:
                break
    tracer.dump(work / "spans.json")
    reps = len(traced)
    metrics = spans.layer_metrics(tracer.spans, reps, workload.modes_emitted)
    metrics["spectrum.clamped"] = (clamps.clamped / reps, "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                 "ratio")
    shares = {layer: metrics[f"{layer}.share"][0] for layer in spans.LAYERS}
    notes = [f"{reps} traced and {len(untraced)} untraced in-process sequences",
             "dominant layer: " + max(shares, key=shares.get),
             "shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())]
    return metrics, notes


def run_workload(args, nproc):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    ctx = workload.prepare(work / "inputs", args.seed)
    env_record = environment(args.seed, nproc, ctx.records)
    tally = Tally()
    measure = measure_traced if args.trace else measure_end_to_end
    metrics, notes = measure(workload, ctx, args.seconds, work, tally)
    for name in ("inputs", "full", "setup", "traced", "untraced"):
        shutil.rmtree(work / name, ignore_errors=True)

    failed = len(tally.failures)
    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio: {failed}/{tally.attempted} = {failed / tally.attempted:.4f}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env_record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        {"env": env_record, "checks": tally.checks, "notes": notes, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own child process; the last line merges their results."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit code {done.returncode})")
            merged["correct"] = False
            code = code or done.returncode or 1
            continue
        code = code or done.returncode
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "daedyn" / "cli.py").is_file():
        print(f"error: {SRC / 'daedyn'} not found; run from a daedyn checkout", file=sys.stderr)
        return 2
    nproc = set_blas_threads()          # before numpy is imported anywhere
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
