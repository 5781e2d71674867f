"""Self-test of the benchmark's tracing, per workload.

usage: python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload: one untraced and two traced runs of the same seed.
  - all three match the recorded reference outputs;
  - the traced output trees are byte-identical to the untraced one;
  - every span the workload must use reports calls > 0, which catches a
    name binding the tracer missed;
  - every *.calls and *.calls_per_distinct counter repeats exactly between
    the two traced runs, and equals the count the workload definition
    states (workloads.Workload.expected_counts).
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, ROOT, WORK, check, layer_metrics, run_child, same_tree
from workloads import WORKLOADS, cli_seed, load_reference

COUNTERS = (".calls", ".calls_per_distinct", "failed_candidates")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    LAYER_METRICS = {m["name"] for m in json.load(fh)["per_layer"]}
with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
    PREDICTED = set(json.load(fh)["layer_metrics"])


def selftest(workload, seed: int) -> list:
    reference = load_reference(workload.name, seed)
    s = cli_seed(seed)
    plain = run_child(workload, s, "run", "plain", timeout=900)
    traced = [run_child(workload, s, "trace", f"trace{i}", timeout=900) for i in range(2)]
    failures = []
    for c in [plain] + traced:
        check(c, workload, reference)
    same_tree([plain] + traced)
    for c in [plain] + traced:
        failures += [f"{c.mode}: {p}" for p in c.problems]
    if failures or any(c.trace is None for c in traced):
        return failures or ["traced run reported no counters"]

    if traced[0].trace["missing"]:
        failures.append(f"functions not found: {traced[0].trace['missing']}")
    spans = traced[0].trace["spans"]
    failures += [f"{name}: 0 calls" for name in workload.uses if not spans[name]["calls"]]
    runs = [layer_metrics([t], [plain]) for t in traced]
    for name, (value, _) in runs[0].items():
        if name.endswith(COUNTERS) and runs[1][name][0] != value:
            failures.append(f"{name}: {value} then {runs[1][name][0]}")
    for name, want in workload.expected_counts.items():
        if runs[0][name][0] != want:
            failures.append(f"{name}: {runs[0][name][0]} != stated {want}")
    if set(runs[0]) != LAYER_METRICS:
        failures.append(f"traced metrics differ from BENCHMARK.json: "
                        f"{sorted(set(runs[0]) ^ LAYER_METRICS)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = PREDICTED == LAYER_METRICS
    if not ok:
        print(f"predictions.json and BENCHMARK.json per_layer differ: "
              f"{sorted(PREDICTED ^ LAYER_METRICS)}")
    for name in args.workload or sorted(WORKLOADS):
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        failures = selftest(WORKLOADS[name], args.seed)
        ok = ok and not failures
        print(f"{name}: {'ok' if not failures else 'FAILED'}")
        for line in failures:
            print(f"  {line}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
