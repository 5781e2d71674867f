"""Command-line entry point: simulate | verify | optimize | converge.

Every command loads one INI config (``--config``), applies the optional
``--seed/--paths/--out`` overrides, and writes machine-readable outputs
(RFC-4180 CSV, JSON with stable key order and a schema_version field) that
are bitwise-reproducible from (config, seed).

Exit codes: 0 success, 1 checks failed (a `verify` check or the `converge`
report's `passed`), 2 invalid config, 3 step-solver failure.

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
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, check_jump_rate, parse_config, serialize_config
from .control import saa_minimize
from .estimates import (
    aldous_scaling,
    apriori_check,
    generate_ensemble,
    interp_gap_scaling,
    isometry_check,
    uniqueness_check,
)
from .grid import Field, l2_norm
from .levy import LevyModel
from .scheme import NonConvergence, simulate_path

SCHEMA_VERSION = 1


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: str, payload: dict):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False,
                  default=_np_default)
        fh.write("\n")


def _ensure_out(cfg: RunConfig, override: str = None) -> str:
    out = override or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    if cfg.n_paths < 2:
        raise ConfigError("simulate needs [run] n_paths >= 2 for ensemble statistics")
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    model = cfg.build_levy()
    u0 = cfg.build_initial(grid)
    U = cfg.build_control(grid)
    paths_dir = os.path.join(out_dir, "paths")
    os.makedirs(paths_dir, exist_ok=True)

    trajectories = []
    for i in range(cfg.n_paths):
        traj = simulate_path(u0, U, model, scheme, seed=cfg.seed + i)
        trajectories.append(traj)
        _write_path_csv(os.path.join(paths_dir, f"path_{i:05d}.csv"), traj)

    report = apriori_check(trajectories, u0, U)
    summary = {
        "command": "simulate",
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "dt": scheme.dt,
        "n_steps": scheme.n_steps,
        "p": scheme.p,
        "ensemble": report.to_dict(),
        "total_jumps": sum(t.prm.jump_count() for t in trajectories),
    }
    _write_json(os.path.join(out_dir, "simulate_summary.json"), summary)
    print(f"simulate: {cfg.n_paths} paths -> {out_dir}")
    return 0


def _write_path_csv(path: str, traj):
    cfg = traj.config
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "l2_norm", "grad_lp_p", "jump_count"])
        l2, grad_pow = traj.state_norms(cfg.p)
        for k, (l2_k, gp_k) in enumerate(zip(l2.tolist(), grad_pow.tolist())):
            jumps = traj.prm.jump_count(k - 1) if k > 0 else 0
            writer.writerow([repr(k * cfg.dt), repr(l2_k), repr(gp_k), jumps])


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    if cfg.n_paths < 2:
        raise ConfigError("verify needs [run] n_paths >= 2 for ensemble statistics")
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    model = cfg.build_levy()
    u0 = cfg.build_initial(grid)
    U = cfg.build_control(grid)

    ensemble = generate_ensemble(u0, U, model, scheme, cfg.n_paths, cfg.seed)
    results = {}

    results["apriori"] = apriori_check(ensemble, u0, U).to_dict()
    results["apriori"]["passed"] = not results["apriori"]["violation"]

    tau = scheme.T / 4.0
    thetas = [scheme.dt * 2**j for j in range(5) if tau + scheme.dt * 2**j <= scheme.T]
    if len(thetas) < 4:  # short runs: linear ladder instead of dyadic
        thetas = [scheme.dt * k for k in range(1, 5) if tau + scheme.dt * k <= scheme.T]
    if len(thetas) < 4:
        raise ConfigError("scheme too short for increment scaling (needs n_steps >= 6)")
    for probe in ("T1", "T2"):
        rep = aldous_scaling(ensemble, probe, thetas, tau=tau)
        results[f"aldous_{probe.lower()}"] = rep.to_dict()

    iso_u = u0 if np.any(u0.values) else _default_bump(grid)
    iso = isometry_check(model, iso_u, scheme.dt, 10_000, base_seed=cfg.seed + 7919)
    results["isometry"] = iso.to_dict()

    same = uniqueness_check(model, scheme, u0, u0.copy(), U,
                            n_paths=min(cfg.n_paths, 20), base_seed=cfg.seed)
    bump = _default_bump(grid)
    diff = uniqueness_check(model, scheme, u0, u0 + bump, U,
                            n_paths=cfg.n_paths, base_seed=cfg.seed)
    results["uniqueness"] = {
        "identical": same.to_dict(),
        "distinct": diff.to_dict(),
        "passed": same.passed and diff.passed,
    }

    all_passed = all(
        results[name].get("passed", True)
        for name in ("apriori", "aldous_t1", "aldous_t2", "isometry", "uniqueness")
    )
    for name, payload in results.items():
        _write_json(os.path.join(out_dir, f"verify_{name}.json"), payload)
    _write_json(
        os.path.join(out_dir, "verify_summary.json"),
        {"command": "verify", "all_passed": all_passed,
         "checks": {k: results[k].get("passed", True) for k in results}},
    )
    print(f"verify: all_passed={all_passed} -> {out_dir}")
    return 0 if all_passed else 1


def _default_bump(grid) -> Field:
    if grid.dim == 1:
        return Field.from_function(grid, lambda x: 0.3 * np.sin(3 * np.pi * x))
    return Field.from_function(
        grid, lambda x, y: 0.3 * np.sin(3 * np.pi * x) * np.sin(np.pi * y)
    )


def cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    model = cfg.build_levy()
    u0 = cfg.build_initial(grid)
    basis = cfg.build_basis(grid)
    if not basis:
        raise ConfigError("optimize needs a nonempty control basis")
    spec = cfg.build_cost(grid, scheme.n_steps)
    result = saa_minimize(
        model, scheme, u0, spec, basis, n_paths=cfg.n_paths, budget=200,
        base_seed=cfg.seed,
    )
    payload = {"command": "optimize", **result.to_dict()}
    _write_json(os.path.join(out_dir, "optimize_result.json"), payload)
    print(
        f"optimize: best_J={result.best_J:.6e} after {result.n_evaluations} "
        f"evaluations -> {out_dir}"
    )
    return 0


def cmd_converge(cfg: RunConfig, out_dir: str) -> int:
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    model = cfg.build_levy()
    u0 = cfg.build_initial(grid)
    U = cfg.build_control(grid)
    sweep = cfg.get("converge", "sweep")
    values = cfg.converge_values()
    probe = cfg.get("converge", "probe")
    refine = cfg._int("converge", "ref_refine")
    if refine < 2:
        # the reference run must be strictly finer than every sweep point
        raise ConfigError(f"[converge] ref_refine must be >= 2, got {refine}")
    if len(values) < 2:
        raise ConfigError("[converge] values needs at least two sweep points")

    if sweep == "dt":
        for dt in values:
            # the sweep runs each dt for round(T / dt) steps: the horizons
            # must agree
            n = scheme.T / dt if dt > 0 else 0.0
            if not 0.5 <= n < np.inf or abs(n - round(n)) > 1e-9 * n:
                raise ConfigError(
                    f"[converge] values: dt = {dt!r} must be a positive step dividing "
                    f"T = {scheme.T!r}"
                )
            check_jump_rate(model, dt, "[converge] values")
        if probe == "gap":
            rep = interp_gap_scaling(u0, U, model, scheme, values, cfg.n_paths, cfg.seed)
        elif probe == "self":
            rep = _self_convergence(u0, U, model, scheme, values, refine, cfg.seed)
        else:
            raise ConfigError(f"unknown converge probe {probe!r}")
    elif sweep == "eps":
        rep = _eps_sweep(cfg, u0, U, scheme, values, refine)
    else:
        raise ConfigError(f"unknown sweep parameter {sweep!r}")

    payload = {"command": "converge", "sweep": sweep, **rep.to_dict()}
    _write_json(os.path.join(out_dir, "converge_report.json"), payload)
    print(
        f"converge: {sweep}/{rep.probe} slope={rep.fitted_slope:.3f} "
        f"passed={rep.passed} -> {out_dir}"
    )
    return 0 if rep.passed else 1


def _self_convergence(u0, U, model: LevyModel, scheme, dt_values, refine, seed):
    """Terminal-state error against a refined-step reference run; only
    meaningful without noise (jump paths cannot be coupled across dt)."""
    from .estimates import ScalingReport, _loglog_fit

    if model.total_mass > 0 and not _eta_is_zero(model):
        raise ConfigError("converge probe 'self' requires eta = zero")
    T = scheme.T
    dt_values = sorted((float(v) for v in dt_values), reverse=True)
    dt_ref = min(dt_values) / refine
    # fixed smoothing weight across the sweep: the study measures the march
    smooth = min(dt_values)
    ref = simulate_path(
        u0, U, model,
        replace(scheme, dt=dt_ref, n_steps=int(round(T / dt_ref)), smoothing_dt=smooth),
        seed,
    )
    errors = []
    for dt in dt_values:
        traj = simulate_path(
            u0, U, model,
            replace(scheme, dt=dt, n_steps=int(round(T / dt)), smoothing_dt=smooth),
            seed,
        )
        errors.append(l2_norm(traj.hats[-1] - ref.hats[-1]))
    slope, r2 = _loglog_fit(dt_values, errors)
    return ScalingReport(
        probe="self", grid=dt_values, measured=errors, fitted_slope=slope,
        r_squared=r2, target_slope=1.0, passed=abs(slope - 1.0) <= 0.2,
    )


def _eta_is_zero(model: LevyModel) -> bool:
    probe = np.linspace(-2, 2, 9)
    return all(
        not np.any(model.eta(probe, z)) for z in (0.5, 1.0, 2.0)
    )


def _eps_sweep(cfg: RunConfig, u0, U, scheme, eps_values, refine):
    """Weak-error proxy for the small-jump truncation: difference of the
    mean terminal second moment against the finest-eps reference."""
    from .estimates import ScalingReport, _loglog_fit

    eps_values = sorted((float(v) for v in eps_values), reverse=True)
    if cfg.get("levy", "measure").partition(":")[0] != "density":
        raise ConfigError("eps sweep needs a density measure")

    def mean_sq(eps: float) -> float:
        model = RunConfig(
            raw={**cfg.raw, "levy": {**cfg.raw["levy"], "eps": repr(eps)}}
        ).build_levy()
        check_jump_rate(model, scheme.dt, "[converge] values")
        vals = [
            l2_norm(traj.state(-1)) ** 2
            for traj in generate_ensemble(u0, U, model, scheme, cfg.n_paths, cfg.seed)
        ]
        return float(np.mean(vals))

    ref = mean_sq(min(eps_values) / refine)
    measured = [abs(mean_sq(eps) - ref) for eps in eps_values]
    try:
        slope, r2 = _loglog_fit(eps_values, measured)
    except ValueError:
        slope, r2 = 0.0, 1.0
    return ScalingReport(
        probe="eps", grid=eps_values, measured=measured, fitted_slope=slope,
        r_squared=r2, target_slope=0.0, passed=True,
        extra={"note": "informational sweep; no rate asserted"},
    )


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
        cfg.validate()
        out_dir = _ensure_out(cfg, args.out)
        with open(os.path.join(out_dir, "config_used.ini"), "w", encoding="utf-8") as fh:
            fh.write(serialize_config(cfg))
        return args.fn(cfg, out_dir)
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
