"""Command-line entry point: simulate | verify | optimize | converge.

Every command loads one INI config (``--config``), applies the optional
``--seed/--paths/--out`` overrides, and writes machine-readable outputs
(RFC-4180 CSV, strict JSON with stable key order and a schema_version
field) that are bitwise-reproducible from (config, seed).  JSON has no token
for inf or NaN, so a number that is not finite is written as null (for
example `fitted_C` when the data size ||u0||^2 + ||U||^p underflows to 0).

Exit codes: 0 success, 1 checks failed (a `verify` check or the `converge`
report's `passed`), 2 invalid config or an unusable output directory, 3
step-solver failure.  The config, with what the command needs of it, is
checked before the output directory is made, so a config error leaves no
directory.  `simulate` solves all its paths as one batch before it writes
any, so when a path fails no path CSV is written, not even those of the
paths before it.

Output schemas (all JSON objects carry ``schema_version``):

simulate
    paths/path_NNNNN.csv    columns t, l2_norm, grad_lp_p, jump_count
                            (jump_count = jumps in the step ending at t)
    simulate_summary.json   {command, n_paths, seed, dt, n_steps, p,
                             total_jumps, ensemble: {n_paths, dt,
                             statistics: {sup_E_l2, E_sup_l2,
                             E_grad_lp_time_integral, E_incr_sq_sum,
                             E_interp_gap_sq, fitted_C},
                             standard_errors: {same keys}, bound_base,
                             violation}}

verify
    verify_apriori.json     ensemble report above + passed
    verify_aldous_t1.json   scaling report: {probe, grid (strictly
    verify_aldous_t2.json    decreasing), measured, fitted_slope,
                             r_squared, target_slope, passed, trivial,
                             extra}
    verify_isometry.json    {mc_value, exact_value, rel_error, tolerance,
                             n_samples, passed}
    verify_uniqueness.json  {identical: uniqueness report, distinct:
                             uniqueness report, passed}; each report is
                             {times, mean_l1, se_l1, max_l1,
                             identical_inputs, threshold, passed}
    verify_summary.json     {command, all_passed, checks: {name: bool}}

optimize
    optimize_result.json    {command, best_coeffs, best_J, J_history,
                             n_paths, common_seeds, n_evaluations, parts}

converge
    converge_report.json    {command, sweep, + scaling report fields}
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, RunConfig, parse_config, serialize_config
from .control import saa_minimize
from .estimates import (
    apriori_check,
    converge_study,
    generate_ensemble,
    verify_study,
)
from .scheme import NonConvergence

SCHEMA_VERSION = 1


def _jsonable(obj):
    """obj with numpy scalars and arrays as Python values and non-finite
    floats as None: strict JSON has no token for inf or NaN."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    return obj


def _write_json(path: str, payload: dict):
    payload = _jsonable(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        fh.write("\n")


def _ensure_out(cfg: RunConfig, override: str = None) -> str:
    """Create the output directory and write config_used.ini into it; a
    directory that cannot be made or written is a config error."""
    out = override or cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "config_used.ini"), "w", encoding="utf-8") as fh:
            fh.write(serialize_config(cfg))
    except OSError as err:
        raise ConfigError(f"output directory {out!r} is not usable: {err}")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    u0 = cfg.build_initial(grid)
    U = cfg.build_control(grid)
    ensemble = generate_ensemble(u0, U, cfg.build_levy(), scheme, cfg.n_paths, cfg.seed)

    paths_dir = os.path.join(out_dir, "paths")
    os.makedirs(paths_dir, exist_ok=True)
    l2, grad_pow = ensemble.state_norms
    times = [repr(k * scheme.dt) for k in range(scheme.n_steps + 1)]
    for i, (prm, l2_i, gp_i) in enumerate(zip(ensemble.paths, l2.tolist(), grad_pow.tolist())):
        jumps = [0, *prm.counts.tolist()]
        with open(os.path.join(paths_dir, f"path_{i:05d}.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "l2_norm", "grad_lp_p", "jump_count"])
            writer.writerows(zip(times, map(repr, l2_i), map(repr, gp_i), jumps))
    summary = {
        "command": "simulate",
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "dt": scheme.dt,
        "n_steps": scheme.n_steps,
        "p": scheme.p,
        "ensemble": asdict(apriori_check(ensemble, u0, U)),
        "total_jumps": sum(prm.jump_count() for prm in ensemble.paths),
    }
    _write_json(os.path.join(out_dir, "simulate_summary.json"), summary)
    print(f"simulate: {cfg.n_paths} paths -> {out_dir}")
    return 0


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    results, all_passed = verify_study(
        cfg.build_initial(grid), cfg.build_control(grid), cfg.build_levy(), scheme,
        cfg.n_paths, cfg.seed,
    )
    for name, payload in results.items():
        _write_json(os.path.join(out_dir, f"verify_{name}.json"), payload)
    _write_json(
        os.path.join(out_dir, "verify_summary.json"),
        {"command": "verify", "all_passed": all_passed,
         "checks": {name: payload["passed"] for name, payload in results.items()}},
    )
    print(f"verify: all_passed={all_passed} -> {out_dir}")
    return 0 if all_passed else 1


def cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    model = cfg.build_levy()
    u0 = cfg.build_initial(grid)
    spec = cfg.build_cost(grid, scheme.n_steps)
    result = saa_minimize(
        model, scheme, u0, spec, cfg.build_basis(grid), n_paths=cfg.n_paths, budget=200,
        base_seed=cfg.seed,
    )
    payload = {"command": "optimize", **asdict(result)}
    _write_json(os.path.join(out_dir, "optimize_result.json"), payload)
    print(
        f"optimize: best_J={result.best_J:.6e} after {result.n_evaluations} "
        f"evaluations -> {out_dir}"
    )
    return 0


def cmd_converge(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    sweep, probe, values, refine = cfg.converge_spec()
    rep = converge_study(
        cfg.build_initial(grid), cfg.build_control(grid), cfg.build_levy(), scheme, sweep,
        probe, values, refine, cfg.n_paths, cfg.seed,
    )
    payload = {"command": "converge", "sweep": sweep, **asdict(rep)}
    _write_json(os.path.join(out_dir, "converge_report.json"), payload)
    print(
        f"converge: {sweep}/{rep.probe} slope={rep.fitted_slope:.3f} "
        f"passed={rep.passed} -> {out_dir}"
    )
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaplace-levy",
        description="Jump-driven p-Laplacian evolution: simulate, verify, "
        "optimize, converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("verify", cmd_verify),
        ("optimize", cmd_optimize),
        ("converge", cmd_converge),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config file")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        sp.add_argument("--paths", type=int, default=None, help="override [run] n_paths")
        sp.add_argument("--out", default=None, help="override [run] out_dir")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.raw["run"]["seed"] = str(args.seed)
        if args.paths is not None:
            cfg.raw["run"]["n_paths"] = str(args.paths)
        cfg.validate(args.command)
        return args.fn(cfg, _ensure_out(cfg, args.out))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonConvergence as err:
        where = f" at step {err.step}" if err.step is not None else ""
        if err.seed is not None:
            where += f" of path seed {err.seed}"
        print(f"solver failure{where}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
