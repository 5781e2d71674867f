"""Benchmark of the plaplace-levy CLI: end-to-end metrics per workload, or
per-layer metrics from a traced run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Every command runs through plaplace_levy.cli.main in a fresh
single-threaded child process (BLAS thread pools pinned to 1), one child at
a time, and its outputs are checked against the outputs recorded from the
seed commit (perfbench/reference).  Repetitions of the command fill the
time budget and the medians are reported; repetition i runs benchmark seed
N + i, so that one run's median spans several jump-path seeds and the
differences in work between seeds average out.  Between children the runner
times a fixed calibration kernel (calibration.py) and reports every
timing in seconds at the reference host's speed, so that drift of a shared
host's speed does not show as a change of the program.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0   setup_s, run_s, path_steps_per_s, peak_rss_mb, ok_share
--trace 1   per-layer counters from alternating untraced and traced runs;
            the traced output tree must be byte-identical to the untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

from workloads import WORKLOADS, cli_seed, compare, extract, load_reference, newton_tol

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)  # before numpy is loaded for the calibration kernel
import calibration  # noqa: E402

SETUP_PROBES = 2  # setup-only children per untraced run, after one warm-up
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s


@dataclass
class Child:
    mode: str
    exit_code: int
    setup_s: float | None
    run_s: float | None
    wall_s: float
    rss_mb: float
    out_dir: str
    problems: list = field(default_factory=list)
    trace: dict | None = None
    digest: str = ""
    seed: int | None = None  # benchmark seed, set by Host.run
    speed: float = 1.0  # calibration.REFERENCE_S / kernel time around the child
    cost_s: float = 0.0  # wall time of the child plus its calibration sample

    @property
    def cal_setup_s(self) -> float | None:
        return None if self.setup_s is None else self.setup_s * self.speed

    @property
    def cal_run_s(self) -> float | None:
        return None if self.run_s is None else self.run_s * self.speed


class Host:
    """Runs children one at a time and samples the calibration kernel
    before the first and after each, so every child is bracketed by two
    samples of the host's current speed."""

    def __init__(self):
        self.samples = [calibration.sample()]

    def run(self, workload, seed: int, mode: str, tag: str, timeout: float) -> Child:
        """Run the command for benchmark seed `seed`."""
        start = time.monotonic()
        child = run_child(workload, cli_seed(seed), mode, tag, timeout)
        child.seed = seed
        self.samples.append(calibration.sample())
        child.speed = calibration.REFERENCE_S / statistics.fmean(self.samples[-2:])
        child.cost_s = time.monotonic() - start
        return child


def tree_digest(out_dir: str) -> tuple:
    """(sha256 over relative paths and bytes, total bytes) of an output tree."""
    h, total = hashlib.sha256(), 0
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0" + data + b"\0")
            total += len(data)
    return h.hexdigest(), total


def run_child(workload, seed: int, mode: str, tag: str, timeout: float) -> Child:
    """Run one command in a fresh child and collect its timings and rusage."""
    out_dir = os.path.join(WORK, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(WORK, f"{tag}.result.json")
    log_path = os.path.join(WORK, f"{tag}.log")
    argv = [sys.executable, "-I", CHILD, ROOT, result_path, mode,
            *workload.cli_args(seed, out_dir)]
    env = {**os.environ, **THREAD_ENV}
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - spawned
    child = Child(mode=mode, exit_code=proc.returncode, setup_s=None, run_s=None,
                  wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, out_dir=out_dir)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        if "Traceback" in fh.read():
            child.problems.append("traceback in child output")
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        child.setup_s = result["entry"] - spawned
        child.run_s = result["exit"] - result["entry"]
        child.trace = result.get("trace")
    except (OSError, ValueError, KeyError):
        child.problems.append(f"no timing result (exit code {child.exit_code})")
    return child


def check(child: Child, workload, reference: dict) -> None:
    """Append to child.problems every way its outputs differ from the
    reference run of the seed commit."""
    if child.mode == "setup":
        if child.exit_code != 0:
            child.problems.append(f"setup exit code {child.exit_code}")
        return
    if child.exit_code != reference["exit_code"]:
        child.problems.append(
            f"exit code {child.exit_code} != reference {reference['exit_code']}")
    try:
        actual = extract(workload.command, child.out_dir)
        tol = newton_tol(child.out_dir)
    except (OSError, ValueError, KeyError) as err:
        child.problems.append(f"unreadable outputs: {err!r}")
        return
    child.problems += compare(actual, reference["values"], tol)
    child.digest = tree_digest(child.out_dir)[0]


def median(values):
    return statistics.median(values) if values else float("nan")


def schedule(seconds: float, started: float, durations: list) -> bool:
    """Start another repetition only if the typical one still fits."""
    elapsed = time.monotonic() - started
    return elapsed + median(durations) <= seconds and elapsed < HARD_LIMIT_S / 2


def untraced(workload, seed, seconds, started, host):
    probes, runs = [], []
    remaining = lambda: HARD_LIMIT_S - (time.monotonic() - started)
    host.run(workload, seed, "setup", "warmup", remaining())  # compiles bytecode
    for i in range(SETUP_PROBES):
        probes.append(host.run(workload, seed, "setup", f"setup{i}", remaining()))
    while not runs or schedule(seconds, started, [c.cost_s for c in runs]):
        runs.append(host.run(workload, seed + len(runs), "run", f"run{len(runs)}",
                             remaining()))
    children = probes + runs
    for c in children:
        check(c, workload, load_reference(workload.name, c.seed))
    same_tree(runs)
    timed = [c for c in runs if c.run_s is not None]
    if not timed:
        return children, None
    run_s = median([c.cal_run_s for c in timed])
    metrics = {
        "setup_s": (median([c.cal_setup_s for c in children if c.setup_s is not None]),
                    "s"),
        "run_s": (run_s, "s"),
        "path_steps_per_s": (workload.path_steps / run_s, "1/s"),
        "peak_rss_mb": (median([c.rss_mb for c in runs]), "MB"),
    }
    return children, metrics


def same_tree(children) -> None:
    """Criterion-11 reproducibility: every checked run of one seed, traced
    or not, writes the same bytes."""
    first = {}
    for c in children:
        if c.digest and first.setdefault(c.seed, c.digest) != c.digest:
            c.problems.append(f"{c.mode} output tree differs from the first run's")


def layer_metrics(traced: list, plain: list) -> dict:
    def span(name, key):
        if key in ("calls", "distinct"):  # exact counts, equal in every traced run
            return traced[0].trace["spans"][name][key]
        return median([c.trace["spans"][name][key] for c in traced])

    def per_distinct(name):
        distinct = span(name, "distinct")
        return span(name, "calls") / distinct if distinct else 0.0

    steps = span("scheme.step_solve", "calls")
    return {
        "config.load.s": (span("config.load", "s"), "s"),
        "scheme.simulate_path.calls": (span("scheme.simulate_path", "calls"), "count"),
        "scheme.simulate_path.self_s": (span("scheme.simulate_path", "self_s"), "s"),
        "scheme.step_solve.calls": (steps, "count"),
        "scheme.step_solve.s": (span("scheme.step_solve", "s"), "s"),
        "scheme.step_solve.us_per_call": (
            1e6 * span("scheme.step_solve", "s") / steps if steps else 0.0, "us"),
        "scheme.prepare_initial.calls": (span("scheme.prepare_initial", "calls"), "count"),
        "scheme.prepare_initial.s": (span("scheme.prepare_initial", "s"), "s"),
        "scheme.prepare_initial.calls_per_distinct": (
            per_distinct("scheme.prepare_initial"), "ratio"),
        "levy.sample_prm.calls": (span("levy.sample_prm", "calls"), "count"),
        "levy.sample_prm.s": (span("levy.sample_prm", "s"), "s"),
        "levy.sample_prm.calls_per_distinct": (per_distinct("levy.sample_prm"), "ratio"),
        "levy.compensated_increment.calls": (
            span("levy.compensated_increment", "calls"), "count"),
        "levy.compensated_increment.s": (span("levy.compensated_increment", "s"), "s"),
        "grid.dual_norm_estimate.calls": (span("grid.dual_norm_estimate", "calls"), "count"),
        "grid.dual_norm_estimate.s": (span("grid.dual_norm_estimate", "s"), "s"),
        "grid.norms.calls": (span("grid.norms", "calls"), "count"),
        "grid.norms.s": (span("grid.norms", "s"), "s"),
        "estimates.generate_ensemble.self_s": (
            span("estimates.generate_ensemble", "self_s"), "s"),
        "estimates.apriori_check.s": (span("estimates.apriori_check", "s"), "s"),
        "estimates.aldous_scaling.self_s": (span("estimates.aldous_scaling", "self_s"), "s"),
        "estimates.uniqueness_check.self_s": (
            span("estimates.uniqueness_check", "self_s"), "s"),
        "estimates.isometry_check.self_s": (span("estimates.isometry_check", "self_s"), "s"),
        "control.saa_minimize.self_s": (span("control.saa_minimize", "self_s"), "s"),
        "control.cost_J.calls": (span("control.cost_J", "calls"), "count"),
        "control.cost_J.s": (span("control.cost_J", "s"), "s"),
        "control.failed_candidates": (traced[0].trace["failed_candidates"], "count"),
        "cli.self_s": (span("cli", "self_s"), "s"),
        "cli.bytes_written": (tree_digest(traced[0].out_dir)[1], "bytes"),
        "trace.overhead_s": (median([c.cal_run_s for c in traced])
                             - median([c.cal_run_s for c in plain]), "s"),
    }


def traced_run(workload, seed, seconds, started, host):
    plain, traced = [], []
    remaining = lambda: HARD_LIMIT_S - (time.monotonic() - started)
    pair = []
    while not plain or schedule(seconds, started, pair):
        n = seed + len(plain)
        u = host.run(workload, n, "run", f"run{len(plain)}", remaining())
        t = host.run(workload, n, "trace", f"trace{len(traced)}", remaining())
        plain.append(u)
        traced.append(t)
        pair = [u.cost_s + t.cost_s]
    children = plain + traced
    for c in children:
        check(c, workload, load_reference(workload.name, c.seed))
    same_tree(children)
    for c in traced:
        if c.trace is None:
            c.problems.append("traced child reported no counters")
        elif c.trace["missing"]:
            print(f"note: not found for tracing: {', '.join(c.trace['missing'])}",
                  file=sys.stderr)
    good = [c for c in traced if c.trace is not None and c.run_s is not None]
    good_plain = [c for c in plain if c.run_s is not None]
    if not good or not good_plain:
        return children, None
    return children, layer_metrics(good, good_plain)


def environment(load_before, host) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": THREAD_ENV,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "calibration_s": {
            "reference": calibration.REFERENCE_S,
            "samples": len(host.samples) if host else 0,
            "median": median(host.samples) if host else None,
            "min": min(host.samples) if host else None,
            "max": max(host.samples) if host else None,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "plaplace_levy", "cli.py")):
        print(f"error: no package source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    load_before = os.getloadavg()
    started = time.monotonic()
    host = None
    print(f"perfbench {workload.name}: {workload.command}, benchmark seeds from "
          f"{args.seed}, budget {args.seconds:g} s, trace {args.trace}")
    try:
        host = Host()
        run = traced_run if args.trace else untraced
        children, metrics = run(workload, args.seed, args.seconds, started, host)
    finally:
        env = environment(load_before, host)
        shutil.rmtree(WORK, ignore_errors=True)

    for c in children:
        status = "ok" if not c.problems else "FAILED: " + "; ".join(c.problems[:5])
        timing = (f"setup {c.setup_s:.3f} s run {c.run_s:.3f} s "
                  f"x speed {c.speed:.3f}" if c.run_s is not None else "no timing")
        print(f"  {c.mode:5s} seed {c.seed} exit {c.exit_code} {timing} rss {c.rss_mb:.1f} MB {status}")
    failed = sum(1 for c in children if c.problems)
    attempted = len(children)
    if metrics is None:
        print("error: no run produced timings or counters", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
