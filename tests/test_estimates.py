"""Verification-harness tests: moment bounds, increment scalings, isometry,
and L^1 stability."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from plaplace_levy import (
    DegenerateRegressionError,
    Ensemble,
    Field,
    Grid,
    LevyModel,
    SchemeConfig,
    aldous_scalings,
    apriori_check,
    eta_linear,
    eta_zero,
    generate_ensemble,
    interp_gap_scaling,
    isometry_check,
    l2_norm,
    linear_flux,
    prepare_initial,
    project_control,
    sample_prms,
    simulate_paths,
    uniqueness_check,
    zero_flux,
)

from _oracles import per_path_moments, state_fields


def reference_model(coef=0.5):
    return LevyModel(eta=eta_linear(coef), lambda_star=0.5, point_masses=((1.0, 1.0),))


def zero_noise_model():
    return LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=((1.0, 1.0),))


def sine_field(grid, amp=1.0, mode=1, tag="zero_boundary"):
    return Field.from_function(
        grid, lambda x: amp * np.sin(mode * np.pi * x), tag
    )


GRID = Grid(1, 16)
CFG = SchemeConfig(p=3, dt=1 / 32, n_steps=16, flux=zero_flux(1))
U0 = sine_field(GRID, amp=0.5)
UCTL = sine_field(GRID, amp=0.25, mode=2, tag="free_boundary")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("projection", ["clamp_boundary", "lift_boundary"])
def test_generate_ensemble_marches_its_one_smoothed_start(dim, projection):
    # the (u0, U) convenience is one smoothing at weight dt of u0 plus the
    # projected control, then simulate_paths on the seeds' jump paths, bitwise
    if dim == 1:
        grid, cfg = GRID, replace(CFG, control_projection=projection)
    else:
        grid = Grid(2, 5)
        cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=6, flux=linear_flux([0.4, -0.2]),
                           control_projection=projection)
    u0 = Field.from_function(grid, lambda *x: 0.5 * np.prod(np.sin(np.pi * np.array(x)), axis=0))
    # a nonzero trace, so the projection matters
    U = Field(grid, 0.1 + 0.25 * u0.values, "free_boundary")
    model = reference_model()
    ens = generate_ensemble(u0, U, model, cfg, 5, base_seed=3)
    start = prepare_initial(u0, project_control(U, projection), cfg.dt, cfg.p)
    alone = simulate_paths(start, model, cfg, sample_prms(model, cfg.dt, cfg.n_steps, range(3, 8)))
    assert np.array_equal(ens.states, alone.states)
    assert np.array_equal(ens.states[:, 0], np.broadcast_to(start.flat, (5, grid.n_nodes)))
    assert [path.seed for path in ens.paths] == [path.seed for path in alone.paths]


def test_apriori_zero_data():
    zeros = Field.zeros(GRID)
    zfree = Field.zeros(GRID, "free_boundary")
    ens = generate_ensemble(zeros, zfree, reference_model(), CFG, 4, base_seed=0)
    rep = apriori_check(ens, zeros, zfree)
    assert all(v == 0.0 for v in rep.statistics.values())
    assert not rep.violation


def test_apriori_reports_moments_and_constant():
    ens = generate_ensemble(U0, UCTL, reference_model(), CFG, 40, base_seed=1)
    rep = apriori_check(ens, U0, UCTL)
    s = rep.statistics
    assert s["sup_E_l2"] > 0 and s["E_grad_lp_time_integral"] > 0
    assert np.isfinite(s["fitted_C"]) and s["fitted_C"] > 0
    assert s["E_sup_l2"] >= s["sup_E_l2"] - 1e-12
    assert not rep.violation
    with pytest.raises(ValueError):
        apriori_check([], U0, UCTL)


def test_apriori_deterministic_case_dissipates():
    ens = generate_ensemble(U0, Field.zeros(GRID, "free_boundary"),
                            zero_noise_model(), CFG, 1, base_seed=0)
    hats = state_fields(ens)
    sup_val = max(l2_norm(f) ** 2 for f in hats)
    assert sup_val <= l2_norm(hats[0]) ** 2 + 1e-12


def test_apriori_constant_stable_under_dt_halving():
    from dataclasses import replace

    cs = []
    for k in (0, 1):
        cfg = replace(CFG, dt=CFG.dt / 2**k, n_steps=CFG.n_steps * 2**k)
        ens = generate_ensemble(U0, UCTL, reference_model(), cfg, 50, base_seed=3)
        cs.append(apriori_check(ens, U0, UCTL).statistics["fitted_C"])
    ratio = max(cs) / min(cs)
    assert ratio < 2.0


def test_aldous_trivial_on_zero_trajectories():
    zeros = Field.zeros(GRID)
    zfree = Field.zeros(GRID, "free_boundary")
    ens = generate_ensemble(zeros, zfree, reference_model(), CFG, 3, base_seed=0)
    for probe in ("T1", "T2"):
        rep = aldous_scalings(ens, (probe,), [CFG.dt * 2**j for j in range(4)])[0]
        assert rep.trivial and rep.passed


def test_aldous_t2_trivial_without_noise():
    ens = generate_ensemble(U0, UCTL, zero_noise_model(), CFG, 3, base_seed=0)
    rep = aldous_scalings(ens, ("T2",), [CFG.dt * 2**j for j in range(4)])[0]
    assert rep.trivial and rep.passed


def test_aldous_t1_smooth_path_slope_about_one():
    # probe away from the initial layer, where the drift integrand varies
    # slowly; the increment then scales nearly linearly in the window size
    ens = generate_ensemble(U0, UCTL, zero_noise_model(), CFG, 2, base_seed=0)
    thetas = [CFG.dt * 2**j for j in range(4)]
    rep = aldous_scalings(ens, ("T1",), thetas, tau=0.25)[0]
    assert rep.passed and rep.fitted_slope >= 0.5
    assert 0.7 <= rep.fitted_slope <= 1.2


def test_aldous_input_validation():
    ens = generate_ensemble(U0, UCTL, reference_model(), CFG, 2, base_seed=0)
    with pytest.raises(ValueError):
        aldous_scalings(ens, ("T3",), [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        aldous_scalings(ens, ("T1",), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        aldous_scalings(ens, ("T1",), [CFG.T * k for k in (1, 2, 3, 4)])
    with pytest.raises(ValueError):
        aldous_scalings(ens, ("T1",), [0.0, CFG.dt, 2 * CFG.dt, 3 * CFG.dt])


def test_degenerate_regression_raises():
    from plaplace_levy.estimates import _loglog_fit

    with pytest.raises(DegenerateRegressionError):
        _loglog_fit([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])


def test_interp_gap_scaling_slope():
    rep = interp_gap_scaling(
        U0, UCTL, reference_model(), CFG, [1 / 16, 1 / 32, 1 / 64], n_paths=40,
        base_seed=0,
    )
    assert rep.passed and rep.fitted_slope >= 0.8
    with pytest.raises(ValueError):
        interp_gap_scaling(U0, UCTL, reference_model(), CFG, [1 / 16], 4, 0)


def paired(model, cfg, u0_a, u0_b, U, n_paths, base_seed=0):
    """uniqueness_check of the ensembles of u0_a and u0_b on common seeds."""
    a, b = (generate_ensemble(u0, U, model, cfg, n_paths, base_seed) for u0 in (u0_a, u0_b))
    return uniqueness_check(a, b)


def test_uniqueness_identical_inputs():
    rep = paired(reference_model(), CFG, U0, U0.copy(), UCTL, n_paths=8)
    assert rep.identical_inputs and rep.passed
    assert rep.max_l1 <= rep.threshold


def test_uniqueness_zero_steps_exact():
    from dataclasses import replace

    cfg0 = replace(CFG, n_steps=0)
    rep = paired(reference_model(), cfg0, U0, U0.copy(), UCTL, n_paths=3)
    assert rep.max_l1 == 0.0 and rep.passed


def test_uniqueness_deterministic_contraction():
    bump = sine_field(GRID, amp=0.3, mode=3)
    rep = paired(zero_noise_model(), CFG, U0, U0 + bump, Field.zeros(GRID, "free_boundary"),
                 n_paths=1)
    assert not rep.identical_inputs
    assert rep.passed
    assert rep.mean_l1[-1] <= rep.mean_l1[0] + 1e-12


def test_uniqueness_stochastic_mean_contraction():
    bump = sine_field(GRID, amp=0.3, mode=3)
    rep = paired(reference_model(), CFG, U0, U0 + bump, UCTL, n_paths=60)
    assert rep.passed
    assert rep.mean_l1[-1] <= rep.mean_l1[0] + 3 * (rep.se_l1[-1] + rep.se_l1[0])


def test_uniqueness_pairs_the_first_rows_of_a_and_checks_seeds_and_config():
    from dataclasses import replace

    model = reference_model()
    a = generate_ensemble(U0, UCTL, model, CFG, 8, base_seed=0)
    b = generate_ensemble(U0 + sine_field(GRID, amp=0.3, mode=3), UCTL, model, CFG, 3, 0)
    # b's rows pair with a's first three rows
    assert asdict(uniqueness_check(a, b)) == asdict(
        uniqueness_check(generate_ensemble(U0, UCTL, model, CFG, 3, base_seed=0), b))
    with pytest.raises(ValueError, match="seeds"):
        uniqueness_check(a, generate_ensemble(U0, UCTL, model, CFG, 3, base_seed=1))
    with pytest.raises(ValueError, match="seeds"):
        uniqueness_check(b, a)  # b has fewer rows than a
    other = replace(CFG, newton_tol=1e-11)
    with pytest.raises(ValueError, match="configuration"):
        uniqueness_check(a, generate_ensemble(U0, UCTL, model, other, 3, base_seed=0))


@pytest.mark.parametrize("grows", [False, True])
def test_uniqueness_fails_where_the_distance_of_distinct_data_grows(grows):
    # hand-built ensembles from distinct starts: path i of b lies
    # (1 + 0.1 i) c_k above a's zero states at every interior node at step
    # k, so its L^1 distance is proportional to c_k; a growing c_k fails the
    # check, a shrinking one passes it
    model = reference_model()
    paths = tuple(sample_prms(model, CFG.dt, CFG.n_steps, range(3)))
    c = 0.01 * np.arange(1.0, CFG.n_steps + 2)
    if not grows:
        c = c[::-1]
    zeros = np.zeros((3, CFG.n_steps + 1, GRID.n_nodes))
    above = zeros.copy()
    above[:, :, GRID.interior_nodes] = (np.outer(1.0 + 0.1 * np.arange(3), c))[:, :, None]
    a, b = (Ensemble(states, paths, CFG, GRID, model) for states in (zeros, above))
    rep = uniqueness_check(a, b)
    assert not rep.identical_inputs and rep.threshold == 0.0
    assert rep.passed is not grows


def test_isometry_zero_field():
    rep = isometry_check(reference_model(), Field.zeros(GRID), 0.01, 1000)
    assert rep.exact_value == 0.0 and rep.passed


def test_isometry_closed_form_and_dt_linearity():
    u = sine_field(GRID)
    model = reference_model()
    rep = isometry_check(model, u, 0.01, 20_000, base_seed=0)
    assert rep.exact_value == pytest.approx(0.01 * 0.25 * l2_norm(u) ** 2)
    assert rep.passed and rep.rel_error <= 0.05
    rep2 = isometry_check(model, u, 0.02, 20_000, base_seed=0)
    assert rep2.exact_value == pytest.approx(2 * rep.exact_value)
    with pytest.raises(ValueError):
        isometry_check(model, u, 0.01, 10)


def test_reports_deterministic_given_seeds():
    ens1 = generate_ensemble(U0, UCTL, reference_model(), CFG, 10, base_seed=5)
    ens2 = generate_ensemble(U0, UCTL, reference_model(), CFG, 10, base_seed=5)
    r1 = apriori_check(ens1, U0, UCTL)
    r2 = apriori_check(ens2, U0, UCTL)
    assert asdict(r1) == asdict(r2)


def test_scaling_report_grid_strictly_decreasing():
    ens = generate_ensemble(U0, UCTL, reference_model(), CFG, 3, base_seed=0)
    rep = aldous_scalings(ens, ("T1",), [CFG.dt, 4 * CFG.dt, 2 * CFG.dt, 8 * CFG.dt])[0]
    assert all(a > b for a, b in zip(rep.grid, rep.grid[1:]))
    gap = interp_gap_scaling(U0, UCTL, reference_model(), CFG, [1 / 32, 1 / 16],
                             n_paths=3, base_seed=0)
    assert all(a > b for a, b in zip(gap.grid, gap.grid[1:]))
    with pytest.raises(ValueError):
        aldous_scalings(ens, ("T1",), [CFG.dt, CFG.dt])


def test_interp_gap_halving_factor():
    # halving dt roughly halves the mean interpolant gap (factor 2 +/- 30%,
    # drifting above 2 when the deterministic slope-2 component contributes)
    rep = interp_gap_scaling(
        U0, UCTL, reference_model(), CFG, [1 / 16, 1 / 32, 1 / 64], n_paths=120,
        base_seed=0,
    )
    for coarse, fine in zip(rep.measured, rep.measured[1:]):
        assert 1.4 <= coarse / fine <= 2.6


@pytest.mark.parametrize("measure", ["point", "invsq"])
def test_isometry_check_matches_per_sample_loop(measure):
    from plaplace_levy import eta_sine
    from plaplace_levy.levy import step_events

    if measure == "point":
        model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5, point_masses=((1.0, 3.0), (-0.4, 2.0)))
        eta_at = lambda u, z: 0.5 * u * min(1.0, abs(z))
    else:
        model = LevyModel(eta=eta_sine(0.5), lambda_star=0.5, density="invsq", eps=0.05)
        eta_at = lambda u, z: 0.5 * np.sin(u) * min(1.0, abs(z))
    u = sine_field(GRID, amp=0.8)
    dt, n = 1 / 16, 2500
    u_int = u.flat[GRID.interior_nodes]
    drift = dt * sum(lam * eta_at(u_int, z) for z, lam in zip(*model.atoms))
    # sample i is step 0 of the path of seed 11 + i, incremented one at a time
    counts, marks = step_events(model, dt, range(11, 11 + n), [0])
    first = np.concatenate([[0], np.cumsum(counts)])
    vals = []
    for i in range(n):
        inc = sum(eta_at(u_int, z) for z in marks[first[i] : first[i + 1]]) - drift
        vals.append(np.sum(inc**2) * GRID.cell_weight)
    rep = isometry_check(model, u, dt, n, base_seed=11)
    assert rep.mc_value == pytest.approx(np.mean(vals), rel=1e-12)
    assert rep.n_samples == n


def test_dual_norm_estimates_match_per_row_loop():
    from plaplace_levy import dual_norm_estimates

    rng = np.random.default_rng(41)
    for grid in (Grid(1, 16), Grid(2, 6)):
        rows = np.zeros((9, grid.n_nodes))
        rows[:, grid.interior_nodes] = rng.normal(size=(9, grid.interior_nodes.size))
        rows[3] = 0.0  # a zero row reads 0
        rows[5] *= 1e-3
        batched = dual_norm_estimates(grid, rows, 3.0, iters=25)
        for row, value in zip(rows, batched):
            (one,) = dual_norm_estimates(grid, row[None], 3.0, iters=25)
            assert value == pytest.approx(one, rel=1e-13, abs=0.0)
        assert batched[3] == 0.0
    with pytest.raises(ValueError):
        dual_norm_estimates(grid, np.ones((2, grid.n_nodes)), 3.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_row_wise_state_norms_match_per_field_norms(dim):
    from plaplace_levy import lp_grad_norm, sine_flux
    from plaplace_levy.estimates import _mean_se

    grid = Grid(dim, 16 if dim == 1 else 8)
    # enough steps that numpy's sums (sequential only below 8 terms) would
    # add in another order than the per-path loop
    cfg = SchemeConfig(p=3, dt=1 / 32, n_steps=16, flux=sine_flux([0.7] * dim))
    u0 = Field.from_function(grid, lambda *x: 0.5 * np.prod(np.sin(np.pi * np.array(x)), axis=0))
    ens = generate_ensemble(u0, Field.zeros(grid, "free_boundary"), reference_model(), cfg, 12, 5)

    def close(a, b):
        assert np.allclose(a, b, rtol=1e-13, atol=0.0)

    # the per-Field loop each row-wise pass replaces
    sq, grad_int, incr_sq = [], [], []
    l2_rows, lp_rows = ens.state_norms
    for i, (l2, lp, incr_row) in enumerate(zip(l2_rows, lp_rows, ens.increments_sq_sums)):
        hats = state_fields(ens, i)
        close(l2, [l2_norm(f) for f in hats])
        close(lp, [lp_grad_norm(f, cfg.p) ** cfg.p for f in hats])
        incr = sum(l2_norm(hats[k + 1] - hats[k]) ** 2 for k in range(cfg.n_steps))
        close(incr_row, incr)
        sq.append([l2_norm(f) ** 2 for f in hats])
        grad_int.append(cfg.dt * sum(lp_grad_norm(f, cfg.p) ** cfg.p for f in hats[1:]))
        incr_sq.append(incr)
    rep = apriori_check(ens, u0, Field.zeros(grid, "free_boundary"))
    stats = rep.statistics
    close(stats["sup_E_l2"], np.max(np.mean(sq, axis=0)))
    close(stats["E_sup_l2"], _mean_se(np.max(sq, axis=1))[0])
    close(stats["E_grad_lp_time_integral"], _mean_se(grad_int)[0])
    close(stats["E_incr_sq_sum"], _mean_se(incr_sq)[0])

    # bitwise: the stacked passes add in the order of the per-path loop
    sq, grad_int, incr_sq, gap = per_path_moments(ens.states, grid, cfg.p, cfg.dt)
    assert np.array_equal(l2_rows**2, sq)
    assert np.array_equal(ens.increments_sq_sums, incr_sq)
    assert np.array_equal(ens.interp_gap_sq(), gap)
    k_star = int(np.argmax(sq.mean(axis=0)))
    expected = {
        "sup_E_l2": (float(sq.mean(axis=0)[k_star]),
                     float(sq[:, k_star].std(ddof=1) / np.sqrt(len(sq)))),
        "E_sup_l2": _mean_se(sq.max(axis=1)),
        "E_grad_lp_time_integral": _mean_se(grad_int),
        "E_incr_sq_sum": _mean_se(incr_sq),
        "E_interp_gap_sq": _mean_se(gap),
    }
    for key, (mean, se) in expected.items():
        assert (stats[key], rep.standard_errors[key]) == (mean, se), key


def test_verify_study_solves_each_path_row_once(monkeypatch):
    # the moment ensemble is side a of both uniqueness pairings: one stack of
    # 50 rows for it, 20 for the identical data and 50 for the bumped data,
    # marched in one chunk with one Newton solve per step, after one
    # smoothing solve of the 2 distinct data u0 and u0 + bump; both increment
    # scalings take one dual-norm ascent over their 2 x 4 windows of 50 rows
    import plaplace_levy.estimates as estimates
    import plaplace_levy.scheme as scheme

    seen = {"runs": [], "march": [], "newton": [], "dual": []}
    march, newton, dual = scheme._march, scheme._newton, estimates.dual_norm_estimates
    simulate = estimates.simulate_runs

    def spy_runs(grid, starts, runs, *args):
        seen["runs"].append([len(paths) for paths in runs])
        return simulate(grid, starts, runs, *args)

    def spy_march(grid, starts, model, cfg, paths, ref):
        seen["march"].append(len(paths))
        return march(grid, starts, model, cfg, paths, ref)

    def spy_newton(solver, v, rhs, tol, max_iters, kept=None):
        seen["newton"].append(len(v))
        return newton(solver, v, rhs, tol, max_iters, kept)

    def spy_dual(grid, g, p, iters=30):
        seen["dual"].append(len(g))
        return dual(grid, g, p, iters)

    monkeypatch.setattr(estimates, "simulate_runs", spy_runs)
    monkeypatch.setattr(scheme, "_march", spy_march)
    monkeypatch.setattr(estimates, "dual_norm_estimates", spy_dual)
    monkeypatch.setattr(scheme, "_newton", spy_newton)
    results, _ = estimates.verify_study(U0, UCTL, reference_model(), CFG, 50, 0)
    assert seen["runs"] == [[50, 20, 50]] and seen["march"] == [120]
    assert seen["newton"] == [2] + [120] * CFG.n_steps and CFG.n_steps == 16
    assert seen["dual"] == [400]
    assert results["uniqueness"]["identical"]["max_l1"] == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_aldous_scaling_matches_per_window_ascents_bitwise(dim):
    from _oracles import aldous_measured

    if dim == 1:
        u0, U, cfg = U0, UCTL, CFG
    else:
        grid = Grid(2, 6)
        u0 = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
        U = Field.zeros(grid, "free_boundary")
        cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=12, flux=linear_flux([0.4, -0.2]))
    ens = generate_ensemble(u0, U, reference_model(), cfg, 7, base_seed=3)
    thetas = [cfg.dt * 2**j for j in range(4)]
    # both probes in one ascent (as verify runs them), and each alone
    both = aldous_scalings(ens, ("T1", "T2"), thetas, tau=cfg.dt)
    for probe, joined in zip(("T1", "T2"), both):
        rep = aldous_scalings(ens, (probe,), thetas, tau=cfg.dt)[0]
        assert rep.measured == aldous_measured(ens, probe, rep.grid, cfg.dt, iters=25)
        assert asdict(joined) == asdict(rep)
