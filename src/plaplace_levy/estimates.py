"""Monte Carlo verification harness for the scheme's quantitative structure:
moment bounds, interpolant-gap scaling, increment (tightness-style) scalings,
the second-moment identity of compensated increments, and L^1 stability of
paired paths; and the studies the `verify` and `converge` commands run on
them (`verify_study`, `converge_study`).

Pass criteria follow the shape of the underlying estimates: decay slopes and
stability of fitted constants, never absolute thresholds with unknowable
constants.  All reductions use pairwise-stable numpy sums over a fixed path
order, so reports are deterministic given the seed set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .grid import Field, Grid, _l2_norms, dual_norm_estimates, l2_norm, w1p_norm
from .levy import LevyModel, isometry_rhs, mark_sums, sample_prms, step_events
from .scheme import (Ensemble, SchemeConfig, _solved, project_control, simulate_paths,
                     simulate_runs)


class DegenerateRegressionError(ValueError):
    """Log-log fit attempted on data without usable variation."""


def _mean_se(samples: np.ndarray) -> tuple:
    samples = np.asarray(samples, dtype=float)
    m = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return m, se


def _loglog_fit(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateRegressionError("no variation in regression data")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


# ---------------------------------------------------------------------------
# moment bounds


@dataclass
class EnsembleReport:
    """Monte Carlo moment statistics of an ensemble of paths and the
    fitted constant of the combined moment bound against the data size
    ||u0||^2 + E ||U||_{W^{1,p}}^p."""

    n_paths: int
    dt: float
    statistics: dict
    standard_errors: dict
    bound_base: float
    violation: bool


def apriori_check(ensemble: Ensemble, u0: Field, U: Field) -> EnsembleReport:
    """Moment statistics of the ensemble: sup-in-time of the mean squared
    L^2 norm, mean of the pathwise sup, the time-integrated gradient p-norm,
    the exact interpolant gap, and the fitted constant of the combined bound.

    The violation flag triggers when a statistic exceeds its fitted bound by
    more than three standard errors.
    """
    M = len(ensemble)
    if M < 2:
        raise ValueError("moment statistics need at least two paths")
    cfg = ensemble.config
    l2, grad_pow = ensemble.state_norms
    sq = l2**2
    # each path's time integral summed in step order
    grad_int = np.array([cfg.dt * sum(row) for row in grad_pow[:, 1:].tolist()], dtype=float)
    incr_sq = ensemble.increments_sq_sums
    gap = ensemble.interp_gap_sq()

    mean_sq_t = sq.mean(axis=0)
    k_star = int(np.argmax(mean_sq_t))
    sup_E_l2 = float(mean_sq_t[k_star])
    se_sup = float(sq[:, k_star].std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    E_sup_l2, se_esup = _mean_se(sq.max(axis=1))
    E_grad, se_grad = _mean_se(grad_int)
    E_incr, se_incr = _mean_se(incr_sq)
    E_gap, se_gap = _mean_se(gap)

    base = l2_norm(u0) ** 2 + w1p_norm(project_control(U, cfg.control_projection), cfg.p) ** cfg.p
    combined = sup_E_l2 + E_incr + E_grad
    fitted_C = combined / base if base > 0 else (0.0 if combined == 0 else float("inf"))
    se_C = (se_sup + se_incr + se_grad) / base if base > 0 else 0.0

    stats = {
        "sup_E_l2": sup_E_l2,
        "E_sup_l2": E_sup_l2,
        "E_grad_lp_time_integral": E_grad,
        "E_incr_sq_sum": E_incr,
        "E_interp_gap_sq": E_gap,
        "fitted_C": fitted_C,
    }
    ses = {
        "sup_E_l2": se_sup,
        "E_sup_l2": se_esup,
        "E_grad_lp_time_integral": se_grad,
        "E_incr_sq_sum": se_incr,
        "E_interp_gap_sq": se_gap,
        "fitted_C": se_C,
    }
    bound = fitted_C * base
    violation = any(
        stats[k] > bound + 3.0 * ses[k] + 1e-12
        for k in ("sup_E_l2", "E_incr_sq_sum", "E_grad_lp_time_integral")
    )
    return EnsembleReport(
        n_paths=M,
        dt=cfg.dt,
        statistics=stats,
        standard_errors=ses,
        bound_base=base,
        violation=violation,
    )


def generate_ensemble(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                      n_paths: int, base_seed: int) -> Ensemble:
    """The ensemble of the path seeds base_seed .. base_seed + n_paths - 1,
    solved as one batch."""
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(base_seed, base_seed + n_paths))
    return simulate_paths(u0, U, model, cfg, paths)


# ---------------------------------------------------------------------------
# increment scalings


@dataclass
class ScalingReport:
    probe: str
    grid: list
    measured: list
    fitted_slope: float
    r_squared: float
    target_slope: float
    passed: bool
    trivial: bool = False
    extra: dict = field(default_factory=dict)


def _series_at(series_values: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Affine-in-time evaluation of per-step series (time on axis -2, so one
    series (n_steps + 1, n_nodes) or a stack of them); exact for integrals
    of piecewise-constant integrands."""
    n = series_values.shape[-2] - 1
    k = min(int(np.floor(t / dt)), n - 1)
    lam = (t - k * dt) / dt
    return (1 - lam) * series_values[..., k, :] + lam * series_values[..., k + 1, :]


def aldous_scaling(ensemble: Ensemble, probe: str, theta_grid,
                   tau: float = 0.0) -> ScalingReport:
    """Scaling in theta of process increments at deterministic times.

    probe "T1": mean dual norm of the drift-integral increment; target decay
    at least theta^(1/2).  probe "T2": mean squared dual norm of the
    martingale increment; target decay at least theta^1 (reported slope must
    stay within a band around 1 for nontrivial noise).  Slopes are log-log
    fits; the pass rule is slope >= target - 0.25.  Dual norms are
    `dual_norm_estimates` with 25 ascent iterations, one call over the
    increments of every window stacked window-major; its rows are
    independent, so each window's mean is the one a call per window gives.
    """
    if probe not in ("T1", "T2"):
        raise ValueError(f"unknown probe {probe!r}")
    theta_grid = sorted((float(t) for t in theta_grid), reverse=True)
    if len(theta_grid) < 4 or len(set(theta_grid)) != len(theta_grid):
        raise ValueError("theta_grid needs at least four distinct values")
    if theta_grid[-1] <= 0:
        raise ValueError("theta values must be positive")
    cfg = ensemble.config
    p = cfg.p
    if tau < 0 or tau + theta_grid[0] > cfg.T + 1e-12:
        raise ValueError("tau + max(theta) must stay within [0, T]")

    alpha = 1.0 if probe == "T1" else 2.0
    zeta = 0.5 if probe == "T1" else 1.0
    # (paths, times, nodes) stack of the probed series
    series = ensemble.sums
    if probe == "T1":
        series = ensemble.states - ensemble.states[:, :1] - series
    start = _series_at(series, tau, cfg.dt)
    incs = np.concatenate([_series_at(series, tau + theta, cfg.dt) - start
                           for theta in theta_grid])
    vals = dual_norm_estimates(ensemble.grid, incs, p, iters=25) ** alpha
    measured = [float(np.mean(v)) for v in vals.reshape(len(theta_grid), len(ensemble))]

    if max(measured) == 0.0:
        return ScalingReport(
            probe=probe, grid=theta_grid, measured=measured, fitted_slope=0.0,
            r_squared=1.0, target_slope=zeta, passed=True, trivial=True,
        )
    slope, r2 = _loglog_fit(theta_grid, measured)
    passed = slope >= zeta - 0.25
    return ScalingReport(
        probe=probe, grid=theta_grid, measured=measured, fitted_slope=slope,
        r_squared=r2, target_slope=zeta, passed=passed,
        extra={"alpha": alpha, "tau": tau},
    )


def interp_gap_scaling(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                       dt_grid, n_paths: int, base_seed: int) -> ScalingReport:
    """Mean interpolant gap E||u_step - u_affine||^2_{L^2(space-time)} against
    dt; the underlying bound is linear in dt, pass rule slope >= 0.8."""
    dt_grid = sorted((float(d) for d in dt_grid), reverse=True)
    if len(dt_grid) < 2 or len(set(dt_grid)) != len(dt_grid):
        raise ValueError("dt grid needs at least two distinct values")
    measured = []
    for dt in dt_grid:
        cfg_dt = replace(cfg, dt=dt, n_steps=int(round(cfg.T / dt)))
        ensemble = generate_ensemble(u0, U, model, cfg_dt, n_paths, base_seed)
        measured.append(float(np.mean(ensemble.interp_gap_sq())))
    if max(measured) == 0.0:
        return ScalingReport(
            probe="interp_gap", grid=dt_grid, measured=measured, fitted_slope=0.0,
            r_squared=1.0, target_slope=1.0, passed=True, trivial=True,
        )
    slope, r2 = _loglog_fit(dt_grid, measured)
    return ScalingReport(
        probe="interp_gap", grid=dt_grid, measured=measured, fitted_slope=slope,
        r_squared=r2, target_slope=1.0, passed=slope >= 0.8,
    )


# ---------------------------------------------------------------------------
# pathwise uniqueness / L^1 stability


@dataclass
class UniquenessReport:
    times: list
    mean_l1: list
    se_l1: list
    max_l1: float
    identical_inputs: bool
    threshold: float
    passed: bool


def uniqueness_check(a: Ensemble, b: Ensemble) -> UniquenessReport:
    """L^1 distance of paired paths: row i of b against row i of a, for the
    first len(b) rows of a, which must be driven by the same path seeds
    under the same scheme configuration (else ValueError).

    Identical inputs (equal initial states): the distance must stay below
    10 * newton_tol * n_nodes at every time (pathwise uniqueness at solver
    resolution).  Distinct inputs: the mean distance must be non-increasing
    in time up to three standard errors of each increment plus solver slack.
    """
    n_paths = len(b)
    if [p.seed for p in a.paths[:n_paths]] != [p.seed for p in b.paths]:
        raise ValueError("uniqueness_check pairs ensembles on the same path seeds")
    if a.config != b.config or a.grid != b.grid:
        raise ValueError("uniqueness_check pairs ensembles of the same scheme configuration")
    cfg, grid, states_a = a.config, a.grid, a.states[:n_paths]
    identical = np.array_equal(states_a[:, 0], b.states[:, 0])
    n_times = cfg.n_steps + 1
    # l1_norm of each paired difference
    diff = grid.take("interior", (states_a - b.states).reshape(-1, grid.n_nodes))
    dists = (np.sum(np.abs(diff), axis=-1) * grid.cell_weight).reshape(n_paths, n_times)
    mean = dists.mean(axis=0)
    se = dists.std(ddof=1, axis=0) / np.sqrt(n_paths) if n_paths > 1 else np.zeros(n_times)
    if identical:
        threshold = 10.0 * cfg.newton_tol * grid.n_nodes
        passed = bool(dists.max() <= threshold)
    else:
        threshold = 0.0
        slack = 20.0 * cfg.newton_tol * grid.n_nodes
        passed = True
        for k in range(n_times - 1):
            diff = dists[:, k + 1] - dists[:, k]
            dm, dse = _mean_se(diff)
            if dm > 3.0 * dse + slack:
                passed = False
                break
    return UniquenessReport(
        times=[k * cfg.dt for k in range(n_times)],
        mean_l1=mean.tolist(),
        se_l1=se.tolist(),
        max_l1=float(dists.max()),
        identical_inputs=bool(identical),
        threshold=threshold,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# second-moment identity of compensated increments


@dataclass
class IsometryReport:
    mc_value: float
    exact_value: float
    rel_error: float
    tolerance: float
    n_samples: int
    passed: bool


# the single-step samples of `verify`'s isometry check
_VERIFY_ISOMETRY_SAMPLES = 10_000


def isometry_check(model: LevyModel, u: Field, dt: float, n_samples: int,
                   base_seed: int = 0) -> IsometryReport:
    """Monte Carlo second moment of single-step compensated increments with
    frozen integrand against the closed-form value
    dt * integral ||eta(u; z)||^2 m(dz).  With eta = c f(u) (1 ^ |z|), the
    squared norm of sample i is (S_i - dt mark_mass)^2 ||c f(u)||^2, where
    S_i sums (1 ^ |z|) over its marks."""
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    grid = u.grid
    eta_u = model.eta_u(u.flat[grid.interior_nodes])
    # sample i is step 0 of the path of seed base_seed + i
    counts, marks = step_events(model, dt, range(base_seed, base_seed + n_samples), [0])
    norm_sq = eta_u @ eta_u * grid.cell_weight
    vals = (mark_sums(counts, marks) - dt * model.mark_mass) ** 2 * norm_sq
    exact = isometry_rhs(model, u, dt)
    mc = float(vals.mean())
    if exact == 0.0:
        rel = abs(mc)
        tol = 1e-12
        return IsometryReport(mc, exact, rel, tol, n_samples, rel <= tol)
    rel = abs(mc - exact) / exact
    # 3 relative standard errors, floored by a mild kurtosis guard
    se = vals.std(ddof=1) / np.sqrt(n_samples)
    tol = max(3.0 * se / exact, 3.0 / np.sqrt(n_samples))
    return IsometryReport(mc, exact, rel, tol, n_samples, rel <= tol)


# ---------------------------------------------------------------------------
# the studies of the `verify` and `converge` commands


def theta_ladder(cfg: SchemeConfig) -> list:
    """Window sizes of `verify`'s increment scalings at tau = T / 4: the
    dyadic steps dt 2^j (j < 5) whose windows end by T, or, when fewer than
    four do, the steps dt k (k <= 4) that do.  Fewer than four remain when
    n_steps < 6."""
    tau = cfg.T / 4.0
    thetas = [cfg.dt * 2**j for j in range(5) if tau + cfg.dt * 2**j <= cfg.T]
    if len(thetas) < 4:  # short runs: linear ladder instead of dyadic
        thetas = [cfg.dt * k for k in range(1, 5) if tau + cfg.dt * k <= cfg.T]
    return thetas


def default_bump(grid: Grid) -> Field:
    """The smooth zero-boundary perturbation `verify_study` pairs with u0 (and
    probes the isometry at when u0 = 0)."""
    if grid.dim == 1:
        return Field.from_function(grid, lambda x: 0.3 * np.sin(3 * np.pi * x))
    return Field.from_function(
        grid, lambda x, y: 0.3 * np.sin(3 * np.pi * x) * np.sin(np.pi * y)
    )


def verify_study(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                 n_paths: int, base_seed: int) -> tuple:
    """Every check of `verify` on the path seeds base_seed ..
    base_seed + n_paths - 1: the moment bounds, both increment scalings over
    `theta_ladder` at tau = T / 4, the isometry on 10,000 single-step draws,
    and L^1 uniqueness of identical (first min(n_paths, 20) seeds) and of
    bumped data against the moment ensemble, all three runs one
    `simulate_runs` stack of 2 n_paths + min(n_paths, 20) rows.  A failing
    run raises its NonConvergence where its checks start.  Returns ({check
    name: report dict with a `passed` flag}, whether all passed)."""
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(base_seed, base_seed + n_paths))
    bump = default_bump(u0.grid)
    ensemble, same, bumped = simulate_runs(
        [(u0, U, paths), (u0, U, paths[: min(n_paths, 20)]), (u0 + bump, U, paths)], model, cfg)
    ensemble = _solved(ensemble)
    results = {"apriori": asdict(apriori_check(ensemble, u0, U))}
    results["apriori"]["passed"] = not results["apriori"]["violation"]
    for probe in ("T1", "T2"):
        rep = aldous_scaling(ensemble, probe, theta_ladder(cfg), tau=cfg.T / 4.0)
        results[f"aldous_{probe.lower()}"] = asdict(rep)
    iso_u = u0 if np.any(u0.values) else bump
    results["isometry"] = asdict(isometry_check(
        model, iso_u, cfg.dt, _VERIFY_ISOMETRY_SAMPLES, base_seed=base_seed + 7919))
    # the moment ensemble is side a of both pairings
    same = uniqueness_check(ensemble, _solved(same))
    diff = uniqueness_check(ensemble, _solved(bumped))
    results["uniqueness"] = {
        "identical": asdict(same),
        "distinct": asdict(diff),
        "passed": same.passed and diff.passed,
    }
    return results, all(r["passed"] for r in results.values())


def converge_study(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                   sweep: str, probe: str, values, refine: int, n_paths: int,
                   base_seed: int) -> ScalingReport:
    """The study of `converge`: `eps_sweep` for sweep "eps"; for sweep "dt"
    the probe "gap" (`interp_gap_scaling`) or "self" (`self_convergence`)."""
    if sweep == "eps":
        return eps_sweep(u0, U, model, cfg, values, refine, n_paths, base_seed)
    if sweep != "dt" or probe not in ("gap", "self"):
        raise ValueError(f"unknown converge study: sweep {sweep!r}, probe {probe!r}")
    if probe == "gap":
        return interp_gap_scaling(u0, U, model, cfg, values, n_paths, base_seed)
    return self_convergence(u0, U, model, cfg, values, refine, base_seed)


def self_convergence(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                     dt_values, refine: int, seed: int) -> ScalingReport:
    """Terminal-state L^2 error at each dt against a run with step
    min(dt_values) / refine, all on path `seed`; only meaningful without
    noise (jump paths are not coupled across dt).  The smoothing weight is
    pinned to min(dt_values), so the sweep measures the order of the time
    march; pass rule |slope - 1| <= 0.2."""
    dt_values = sorted((float(v) for v in dt_values), reverse=True)
    smooth = min(dt_values)

    def terminal(dt: float) -> np.ndarray:
        run = replace(cfg, dt=dt, n_steps=int(round(cfg.T / dt)), smoothing_dt=smooth)
        return generate_ensemble(u0, U, model, run, 1, seed).states[0, -1]

    ref = terminal(min(dt_values) / refine)
    errors = [float(_l2_norms(u0.grid, terminal(dt) - ref)) for dt in dt_values]
    slope, r2 = _loglog_fit(dt_values, errors)
    return ScalingReport(
        probe="self", grid=dt_values, measured=errors, fitted_slope=slope,
        r_squared=r2, target_slope=1.0, passed=abs(slope - 1.0) <= 0.2,
    )


def eps_sweep(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig, eps_values,
              refine: int, n_paths: int, base_seed: int) -> ScalingReport:
    """Weak-error proxy for the small-jump truncation of a density measure:
    per eps, the distance of the mean terminal second moment E||u(T)||^2
    from its value at eps = min(eps_values) / refine, each over the path
    seeds base_seed .. base_seed + n_paths - 1.  Informational: no rate is
    asserted."""
    eps_values = sorted((float(v) for v in eps_values), reverse=True)

    def mean_sq(eps: float) -> float:
        ensemble = generate_ensemble(u0, U, replace(model, eps=eps).validate(), cfg,
                                     n_paths, base_seed)
        norms = _l2_norms(ensemble.grid, ensemble.states[:, -1]).tolist()
        return float(np.mean([v**2 for v in norms]))

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
