"""Workload definitions and the output correctness check shared by the
benchmark runner, the reference recorder and the self-test.

A benchmark seed n selects reference seed n mod N_REFERENCE_SEEDS.  The CLI
receives SEED_STRIDE times that index as its --seed, so different benchmark
seeds drive disjoint ranges of jump-path seeds (verify uses seed .. seed+99
for paths and seed+7919 .. seed+17918 for the isometry draws).
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_DIR = os.path.join(HERE, "reference")

N_REFERENCE_SEEDS = 16
SEED_STRIDE = 1_000_003
N_STEPS = 16  # every workload config uses 16 steps


def cli_seed(seed: int) -> int:
    return SEED_STRIDE * (seed % N_REFERENCE_SEEDS)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    paths: int | None  # --paths override; None keeps the config's n_paths
    path_solves: int  # simulate_path calls per command, from the definition
    uses: tuple  # traced spans that must report calls > 0
    expected_counts: dict = field(default_factory=dict)

    @property
    def path_steps(self) -> int:
        return self.path_solves * N_STEPS

    def cli_args(self, seed: int, out_dir: str) -> list:
        args = [self.command, "--config", os.path.join(CONFIG_DIR, self.config),
                "--seed", str(seed), "--out", out_dir]
        if self.paths is not None:
            args += ["--paths", str(self.paths)]
        return args


_COMMON = ("cli", "config.load", "scheme.simulate_path", "scheme.step_solve",
           "scheme.prepare_initial", "levy.sample_prm",
           "levy.compensated_increment", "grid.norms")

WORKLOADS = {
    w.name: w
    for w in (
        # ensemble 50 + uniqueness 2 x 20 + 2 x 50 path solves; 10,000
        # single-step isometry draws; 2 probes x 4 windows x 100 dual norms
        Workload(
            name="verify-1d", command="verify", config="sample.ini", paths=50,
            path_solves=190,
            uses=_COMMON + ("grid.dual_norm_estimate", "estimates.generate_ensemble",
                            "estimates.apriori_check", "estimates.aldous_scaling",
                            "estimates.uniqueness_check", "estimates.isometry_check"),
            expected_counts={
                "scheme.simulate_path.calls": 190,
                "scheme.step_solve.calls": 3040,
                "scheme.prepare_initial.calls": 190,
                "scheme.prepare_initial.calls_per_distinct": 95.0,
                "levy.sample_prm.calls": 10190,
                "levy.compensated_increment.calls": 13040,
                "grid.dual_norm_estimate.calls": 400,
            },
        ),
        # 200 Nelder-Mead candidates x 1 common seed
        Workload(
            name="optimize-1d", command="optimize", config="sample.ini", paths=1,
            path_solves=200,
            uses=_COMMON + ("control.saa_minimize", "control.cost_J"),
            expected_counts={
                "scheme.simulate_path.calls": 200,
                "scheme.step_solve.calls": 3200,
                "scheme.prepare_initial.calls_per_distinct": 200.0,
                "levy.sample_prm.calls": 200,
                "levy.sample_prm.calls_per_distinct": 200.0,
                "control.cost_J.calls": 200,
            },
        ),
        Workload(
            name="simulate-2d", command="simulate", config="simulate-2d.ini",
            paths=4, path_solves=4,
            uses=_COMMON + ("estimates.apriori_check",),
            expected_counts={
                "scheme.simulate_path.calls": 4,
                "scheme.step_solve.calls": 64,
                "levy.sample_prm.calls_per_distinct": 1.0,
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# correctness: pinned outputs of the seed commit, compared to a tolerance
# derived from the step solver's newton_tol

# A Newton step stops at weighted residual newton_tol; the weight h^dim is at
# least 1/1024 on these grids and 16 steps accumulate, so converged states
# may move by up to ~1e4 newton_tol when a correct change reorders sums.
STATE_TOL_FACTOR = 1e4
# Values below this scale are compared absolutely (e.g. the ~0 L^1 distance
# of identical uniqueness pairs).
ABS_FLOOR = 1e-2


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def extract(command: str, out_dir: str) -> dict:
    """Flat dict of the outputs that the reference pins for this command."""
    if command == "simulate":
        summary = _load(out_dir, "simulate_summary.json")
        ens = summary["ensemble"]
        out = {f"statistics.{k}": v for k, v in ens["statistics"].items()}
        out["violation"] = ens["violation"]
        out["total_jumps"] = summary["total_jumps"]
        return out
    if command == "optimize":
        res = _load(out_dir, "optimize_result.json")
        return {"best_J": res["best_J"], "best_coeffs": res["best_coeffs"],
                "n_evaluations": res["n_evaluations"]}
    if command == "verify":
        out = {}
        summary = _load(out_dir, "verify_summary.json")
        out["all_passed"] = summary["all_passed"]
        for name, flag in summary["checks"].items():
            out[f"{name}.passed"] = flag
        apriori = _load(out_dir, "verify_apriori.json")
        for key in ("sup_E_l2", "E_incr_sq_sum", "E_grad_lp_time_integral", "fitted_C"):
            out[f"apriori.{key}"] = apriori["statistics"][key]
        for probe in ("aldous_t1", "aldous_t2"):
            rep = _load(out_dir, f"verify_{probe}.json")
            out[f"{probe}.fitted_slope"] = rep["fitted_slope"]
            out[f"{probe}.measured"] = rep["measured"]
        iso = _load(out_dir, "verify_isometry.json")
        out["isometry.mc_value"] = iso["mc_value"]
        out["isometry.exact_value"] = iso["exact_value"]
        uniq = _load(out_dir, "verify_uniqueness.json")
        for case in ("identical", "distinct"):
            out[f"uniqueness.{case}.max_l1"] = uniq[case]["max_l1"]
        return out
    raise ValueError(f"no reference extraction for command {command!r}")


def newton_tol(out_dir: str) -> float:
    parser = configparser.ConfigParser()
    parser.read(os.path.join(out_dir, "config_used.ini"), encoding="utf-8")
    return parser.getfloat("scheme", "newton_tol")


def compare(actual: dict, expected: dict, tol: float) -> list:
    """Mismatch descriptions; empty when every pinned output agrees.

    Floats agree within STATE_TOL_FACTOR * tol relative to max(|ref|,
    ABS_FLOOR).  Control coefficients are minimizers of a smooth cost, so
    they are only determined to the square root of the cost's tolerance.
    Integers, flags and list lengths must match exactly.
    """
    state_tol = STATE_TOL_FACTOR * tol
    coeff_tol = math.sqrt(state_tol)
    problems = []

    def check(key, a, e, atol_of):
        if isinstance(e, (bool, int)):
            if type(a) is not type(e) or a != e:
                problems.append(f"{key}: {a!r} != reference {e!r}")
        elif isinstance(e, list):
            if not isinstance(a, list) or len(a) != len(e):
                problems.append(f"{key}: {a!r} != reference {e!r}")
                return
            for i, (ai, ei) in enumerate(zip(a, e)):
                check(f"{key}[{i}]", ai, ei, atol_of)
        elif not isinstance(a, (int, float)) or isinstance(a, bool) \
                or not abs(a - e) <= atol_of(e):
            problems.append(f"{key}: {a!r} != reference {e!r} (tol {atol_of(e):.1e})")

    for key, e in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        if key == "best_coeffs":
            check(key, actual[key], e, lambda _e: coeff_tol)
        else:
            check(key, actual[key], e, lambda e_: state_tol * max(abs(e_), ABS_FLOOR))
    return problems


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> dict:
    """{"exit_code": int, "values": {...}} recorded for this benchmark seed."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        table = json.load(fh)
    return table["cli_seeds"][str(cli_seed(seed))]
