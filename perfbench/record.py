"""Record the reference outputs that every benchmark run is checked against.

usage: python3 perfbench/record.py [--workload NAME ...]

Run once at the commit whose outputs define "correct" (the seed commit of
the benchmark), from the root of a checkout.  For every workload and every
one of the N_REFERENCE_SEEDS CLI seeds it runs the command untimed and
writes perfbench/reference/<workload>.json with the exit code and the
pinned output values (see workloads.extract).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import WORK, run_child
from workloads import N_REFERENCE_SEEDS, WORKLOADS, cli_seed, extract, reference_path

JOBS = 2  # untimed, so two children at a time on a 2-core machine


def record_one(workload, index: int) -> tuple:
    seed = cli_seed(index)
    child = run_child(workload, seed, "run", f"{workload.name}-{index}", timeout=900)
    if child.problems:
        raise RuntimeError(f"{workload.name} seed {seed}: {child.problems}")
    values = extract(workload.command, child.out_dir)
    shutil.rmtree(child.out_dir)
    print(f"{workload.name} seed {seed}: exit {child.exit_code}, {child.run_s:.1f} s",
          flush=True)
    return str(seed), {"exit_code": child.exit_code, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            entries = list(pool.map(lambda i: record_one(workload, i),
                                    range(N_REFERENCE_SEEDS)))
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "cli_seeds": dict(entries)}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
