"""Cost functional and sample-average minimizer tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from plaplace_levy import (
    CostSpec,
    Field,
    Grid,
    LevyModel,
    SchemeConfig,
    constant_target,
    cost_J,
    eta_linear,
    eta_zero,
    generate_ensemble,
    l2_norm,
    psi_l2,
    psi_zero,
    saa_minimize,
    sample_prms,
    simulate_paths,
    sine_basis,
    sine_flux,
    w1p_norm,
    zero_flux,
)
from plaplace_levy.control import nelder_mead

from _oracles import (control_field, control_starts, field_cost, field_rows, shared_ref,
                      simulate_controls, smoothed_start, state_fields)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID = Grid(1, 12)
CFG = SchemeConfig(p=3, dt=1 / 16, n_steps=8, flux=zero_flux(1))


def zero_noise_model():
    return LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=((1.0, 1.0),))


def reference_model():
    return LevyModel(eta=eta_linear(0.5), lambda_star=0.5, point_masses=((1.0, 1.0),))


def make_spec(psi=None, u_tar=None):
    return CostSpec(
        u_tar=u_tar if u_tar is not None else constant_target(GRID, CFG.n_steps),
        psi=psi if psi is not None else psi_zero(),
    )


def test_cost_zero_on_perfectly_tracked_target():
    zeros = Field.zeros(GRID)
    zfree = Field.zeros(GRID, "free_boundary")
    ens = generate_ensemble(zeros, zfree, reference_model(), CFG, 3, base_seed=0)
    total, parts = field_cost(ens, zfree, make_spec(), CFG.p)
    assert total == 0.0
    assert parts == {"tracking": 0.0, "control": 0.0, "terminal": 0.0}


def test_cost_control_term_only():
    zeros = Field.zeros(GRID)
    ens = generate_ensemble(zeros, Field.zeros(GRID, "free_boundary"),
                            zero_noise_model(), CFG, 1, base_seed=0)
    U = Field.from_function(GRID, lambda x: np.sin(np.pi * x), "free_boundary")
    U = (1.0 / w1p_norm(U, CFG.p)) * U  # unit W^{1,p} norm
    # evaluate the cost of U against the zero-control ensemble: only the
    # control term contributes because the trajectory and target vanish
    total, parts = field_cost(ens, U, make_spec(), CFG.p)
    assert parts["control"] == pytest.approx(1.0, rel=1e-12)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_cost_tracking_closed_form():
    # constant-in-time state vs constant target under the rectangle rule
    zeros = Field.zeros(GRID)
    tar = Field.from_function(GRID, lambda x: 0.7 * np.sin(np.pi * x))
    ens = generate_ensemble(zeros, Field.zeros(GRID, "free_boundary"),
                            zero_noise_model(), CFG, 1, base_seed=0)
    total, parts = field_cost(ens, Field.zeros(GRID, "free_boundary"),
                          make_spec(u_tar=constant_target(GRID, CFG.n_steps, tar)), CFG.p)
    assert parts["tracking"] == pytest.approx(CFG.T * l2_norm(tar) ** 2, rel=1e-12)


def test_cost_rejects_mismatched_time_grid():
    zeros = Field.zeros(GRID)
    ens = generate_ensemble(zeros, Field.zeros(GRID, "free_boundary"),
                            zero_noise_model(), CFG, 1, base_seed=0)
    bad = CostSpec(u_tar=constant_target(GRID, CFG.n_steps + 2), psi=psi_zero())
    with pytest.raises(ValueError):
        field_cost(ens, Field.zeros(GRID, "free_boundary"), bad, CFG.p)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["zero", "l2", "l2_clip"])
def test_cost_terminal_rows_match_per_field_payoff_bitwise(dim, kind):
    from _oracles import per_path_cost_sums

    grid = Grid(dim, 12 if dim == 1 else 5)
    # enough steps and paths that numpy's sums (sequential only below 8
    # terms) would add in another order than the per-path loop
    cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=16, flux=zero_flux(dim))
    u0 = Field.from_function(grid, lambda *x: 0.5 * np.prod(np.sin(np.pi * np.array(x)), axis=0))
    U = Field.zeros(grid, "free_boundary")
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5, point_masses=((1.0, 6.0), (-0.5, 6.0)))
    ens = generate_ensemble(u0, U, model, cfg, 20, base_seed=0)
    norms = [l2_norm(Field(grid, row.reshape(grid.node_shape))) for row in ens.states[:, -1]]
    assert len(set(norms)) == len(norms)
    cap = float(np.median(norms))  # binds on some paths, not on others
    psi = {"zero": psi_zero(), "l2": psi_l2(), "l2_clip": psi_l2(cap=cap)}[kind]
    tar = Field.from_function(grid, lambda *x: 0.3 * np.prod(np.sin(2 * np.pi * np.array(x)), axis=0))
    spec = CostSpec(u_tar=constant_target(grid, cfg.n_steps, tar), psi=psi)
    total, parts = field_cost(ens, U, spec, cfg.p)
    # the per-path payoff on one terminal Field at a time, added in path order
    terminal = 0.0
    for v in norms:
        terminal += {"zero": 0.0, "l2": v, "l2_clip": min(v, cap)}[kind]
    terminal /= len(ens)
    assert parts["terminal"] == terminal
    assert total == parts["tracking"] + parts["control"] + terminal
    # the per-path loop over the rows of the stack, in its summation order
    targets = np.array([f.flat for f in spec.u_tar[1:]])
    assert (parts["tracking"], parts["terminal"]) == per_path_cost_sums(
        ens.states, targets, spec.payoff, grid, cfg.dt)
    assert parts["tracking"] > 0.0


def test_cost_spec_validation():
    spec = make_spec(psi=psi_l2())
    spec.validate(CFG.n_steps)
    short = CostSpec(u_tar=constant_target(GRID, CFG.n_steps - 1), psi=psi_l2())
    with pytest.raises(ValueError, match="target profile"):
        short.validate(CFG.n_steps)


def test_cost_spec_rejects_unknown_psi_kind():
    with pytest.raises(ValueError, match="unknown psi kind 'l1'"):
        make_spec(psi=("l1", None)).validate(CFG.n_steps)


def test_control_rows_build_and_gram_check():
    from plaplace_levy.control import check_basis

    basis = sine_basis(GRID, 3)
    U = control_field(basis, [0.5, -0.25, 0.1])
    manual = 0.5 * basis[0].values - 0.25 * basis[1].values + 0.1 * basis[2].values
    assert np.allclose(U.values, manual)
    with pytest.raises(ValueError):
        check_basis([basis[0], basis[0]])


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_basis_check_does_not_depend_on_scale(scale):
    from plaplace_levy.control import check_basis

    grid = Grid(1, 16)
    basis = [scale * phi for phi in sine_basis(grid, 2)]
    gram = np.array([[np.dot(a.flat, b.flat) for b in basis] for a in basis])
    if scale == 1e-4:  # an unscaled determinant test would call it dependent
        assert abs(np.linalg.det(gram)) < 1e-12
    check_basis(basis)
    U = control_field(basis, [1.0, -2.0])
    assert np.array_equal(U.values, 1.0 * basis[0].values + -2.0 * basis[1].values)
    for dependent in ([basis[0], basis[0]], [basis[0], -3.0 * basis[0]],
                      [basis[1], Field.zeros(grid, "free_boundary")]):
        with pytest.raises(ValueError, match="linearly dependent"):
            check_basis(dependent)


def test_config_sine_bases_pass_the_basis_check_scaled_or_not():
    # every basis `config` builds (`sine:k`) is orthogonal on the nodes: its
    # Gram determinant is far above 1e-12 with or without the scaling
    from plaplace_levy.control import check_basis

    for grid in [Grid(1, n) for n in (2, 3, 8, 16, 64)] + [Grid(2, n) for n in (2, 3, 4, 8)]:
        size = 1
        while True:
            try:
                basis = sine_basis(grid, size)
            except ValueError:
                break
            check_basis(basis)
            gram = np.array([[np.dot(a.flat, b.flat) for b in basis] for a in basis])
            assert abs(np.linalg.det(gram)) >= 1e-12
            assert np.allclose(gram, np.diag(np.diag(gram)), rtol=0.0, atol=1e-12)
            size += 1
        assert size > 1


_ROW_CASES = [(dim, proj, psi) for dim in (1, 2) for proj in ("clamp_boundary", "lift_boundary")
              for psi in ("zero", "l2", "l2_clip")]


@pytest.mark.parametrize("dim, projection, psi_kind", _ROW_CASES)
def test_batched_rows_match_the_per_field_code(dim, projection, psi_kind, monkeypatch):
    # control rows, starts and J of a batch, bitwise against one Field at a
    # time: the Field of its coefficients, project_control + prepare_initial, and the
    # per-path tracking and payoff sums with w1p_norm's control term
    import plaplace_levy.scheme as scheme
    from plaplace_levy.control import control_rows
    from _oracles import per_path_cost_sums

    grid = Grid(1, 16) if dim == 1 else Grid(2, 6)
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=5, control_projection=projection,
                       flux=zero_flux(dim))
    model = reference_model()
    # a constant mode gives the controls a nonzero trace for the projection
    basis = sine_basis(grid, 2) + [Field(grid, np.ones(grid.node_shape), "free_boundary")]
    # enough rows that numpy's array power, which differs from the scalar
    # power in the last bit on about 5% of inputs here, would show
    rng = np.random.default_rng(_ROW_CASES.index((dim, projection, psi_kind)))
    points = np.vstack([np.zeros(3), rng.normal(scale=0.3, size=(11, 3))])
    u0 = Field.from_function(grid, lambda *x: 0.4 * np.prod(np.sin(np.pi * np.array(x)), axis=0))
    tar = Field.from_function(grid, lambda *x: 0.2 * np.prod(np.sin(2 * np.pi * np.array(x)),
                                                             axis=0))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(3))

    rows = control_rows(basis, points)
    fields = [control_field(basis, c) for c in points]
    for row, c, U in zip(rows, points, fields):
        manual = np.zeros(grid.node_shape)
        for cj, phi in zip(c, basis):
            manual = manual + cj * phi.values
        assert np.array_equal(row, U.flat) and np.array_equal(row, manual.ravel())
    assert np.all(rows[1:, grid.boundary_nodes] != 0.0)  # the projection matters

    starts, real = {}, scheme._march

    def spy(grid, first, model, cfg, part, groups, ref=None):
        starts.update(zip(groups.tolist(), first))
        return real(grid, first, model, cfg, part, groups, ref)

    monkeypatch.setattr(scheme, "_march", spy)
    runs = simulate_controls(u0, rows, model, cfg, paths)
    monkeypatch.undo()
    ends = [l2_norm(state_fields(run, i)[-1]) for run in runs for i in range(3)]
    cap = float(np.median(ends))  # binds on some paths, not on others
    psi = {"zero": psi_zero(), "l2": psi_l2(), "l2_clip": psi_l2(cap=cap)}[psi_kind]
    spec = CostSpec(u_tar=constant_target(grid, cfg.n_steps, tar), psi=psi)
    costs = cost_J(runs, rows, spec, cfg.p)
    targets = np.array([f.flat for f in spec.u_tar[1:]])
    for i, U in enumerate(fields):
        U_used = scheme.project_control(U, projection)
        hat0 = scheme.prepare_initial(u0, U_used, cfg.dt, cfg.p)
        assert np.array_equal(starts[i], hat0.flat)
        alone = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
        assert np.array_equal(runs[i].states, alone.states)
        total, parts = costs[i]
        assert (total, parts) == field_cost(alone, U, spec, cfg.p)
        tracking, terminal = per_path_cost_sums(alone.states, targets, spec.payoff, grid, cfg.dt)
        control = w1p_norm(U, cfg.p) ** cfg.p
        assert parts == {"tracking": tracking, "control": control, "terminal": terminal}
        assert total == tracking + control + terminal
    n_terminal = len({parts["terminal"] for _, parts in costs})
    assert n_terminal == 1 if psi_kind == "zero" else n_terminal >= 3


def test_non_finite_coefficient_raises_the_field_error():
    import plaplace_levy.scheme as scheme
    from plaplace_levy.control import control_rows

    basis = sine_basis(GRID, 2)
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    model = reference_model()
    paths = sample_prms(model, CFG.dt, CFG.n_steps, range(2))
    for bad, bad_value in (([np.inf, 0.0], np.inf), ([0.1, np.nan], np.nan)):
        with pytest.raises(ValueError, match="field values must be finite"):
            control_field(basis, bad)
        with pytest.raises(ValueError, match="field values must be finite"):
            control_rows(basis, np.array([[0.1, 0.2], bad]))
        # bad nodal rows make bad starts, which reach simulate_runs' own check
        rows = control_rows(basis, np.array([[0.1, 0.2], [0.3, 0.4]]))
        rows[1, GRID.n_nodes // 2] = bad_value
        with pytest.raises(ValueError, match="field values must be finite"):
            simulate_controls(u0, rows, model, CFG, paths)
        with pytest.raises(ValueError, match="field values must be finite"):
            saa_minimize(model, CFG, u0, make_spec(), basis, n_paths=1, budget=10,
                         initial_coeffs=bad)


def test_search_work_per_batch(monkeypatch):
    # one simulate_runs call per evaluate, one smoothing per search, and one
    # basis check
    import plaplace_levy.control as control
    import plaplace_levy.scheme as scheme

    counts = {"evaluate": 0, "simulate": 0, "smoothing": 0, "check": 0, "cost": 0}
    real_nm, real_sim, real_cost = control.nelder_mead, control.simulate_runs, control.cost_J
    real_check, real_smoothing = control.check_basis, scheme.initial_smoothings

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def nm(evaluate, *args, **kwargs):
        return real_nm(counted("evaluate", evaluate), *args, **kwargs)

    monkeypatch.setattr(control, "nelder_mead", nm)
    monkeypatch.setattr(control, "simulate_runs", counted("simulate", real_sim))
    monkeypatch.setattr(scheme, "initial_smoothings", counted("smoothing", real_smoothing))
    monkeypatch.setattr(control, "check_basis", counted("check", real_check))
    monkeypatch.setattr(control, "cost_J", counted("cost", real_cost))
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    res = saa_minimize(reference_model(), CFG, u0, make_spec(psi=psi_l2()), sine_basis(GRID, 2),
                       n_paths=1, budget=40)
    assert res.n_evaluations == 40 and counts["check"] == 1
    assert counts["evaluate"] > 1
    assert counts["simulate"] == counts["cost"] == counts["evaluate"]
    assert counts["smoothing"] == 1


def test_control_norm_convexity():
    rng = np.random.default_rng(3)
    basis = sine_basis(GRID, 3)
    p = CFG.p
    for _ in range(30):
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        lam = rng.uniform()
        mix = control_field(basis, lam * c1 + (1 - lam) * c2)
        u1 = control_field(basis, c1)
        u2 = control_field(basis, c2)
        lhs = w1p_norm(mix, p) ** p
        rhs = lam * w1p_norm(u1, p) ** p + (1 - lam) * w1p_norm(u2, p) ** p
        assert lhs <= rhs + 1e-10


def test_objective_continuity_surrogate():
    # J along a convergent coefficient sequence approaches J at the limit
    basis = sine_basis(GRID, 2)
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    spec = make_spec()
    model = reference_model()
    paths = sample_prms(model, CFG.dt, CFG.n_steps, (11, 12, 13))

    def J(coeffs):
        U = control_field(basis, coeffs)
        run = simulate_paths(smoothed_start(u0, U, CFG), model, CFG, paths)
        return field_cost(run, U, spec, CFG.p)[0]

    c_star = np.array([0.3, -0.2])
    j_star = J(c_star)
    gaps = [abs(J(c_star + 2.0**-n * np.array([1.0, 1.0])) - j_star) for n in (2, 4, 6, 8, 10, 12)]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2 * max(gaps[0], 1e-12) + 1e-9


def test_saa_zero_target_optimum_at_zero():
    spec = make_spec()
    res = saa_minimize(
        zero_noise_model(), CFG, Field.zeros(GRID), spec, sine_basis(GRID, 2),
        n_paths=1, budget=60, base_seed=0,
    )
    assert abs(res.best_J) <= 1e-8
    assert np.allclose(res.best_coeffs, 0.0, atol=1e-4)


def test_saa_history_monotone_and_reproducible():
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    tar = Field.from_function(GRID, lambda x: 0.2 * np.sin(np.pi * x))
    spec = make_spec(u_tar=constant_target(GRID, CFG.n_steps, tar))
    args = (reference_model(), CFG, u0, spec, sine_basis(GRID, 2))
    res1 = saa_minimize(*args, n_paths=3, budget=50, base_seed=7)
    res2 = saa_minimize(*args, n_paths=3, budget=50, base_seed=7)
    assert res1.J_history == res2.J_history
    assert all(b <= a for a, b in zip(res1.J_history, res1.J_history[1:]))
    assert res1.best_J <= res1.J_history[0]
    assert res1.n_evaluations <= 50


def test_saa_budget_validation():
    spec = make_spec()
    with pytest.raises(ValueError):
        saa_minimize(zero_noise_model(), CFG, Field.zeros(GRID), spec,
                     sine_basis(GRID, 3), n_paths=1, budget=2)
    with pytest.raises(ValueError):
        saa_minimize(zero_noise_model(), CFG, Field.zeros(GRID), spec,
                     sine_basis(GRID, 2), n_paths=0, budget=50)


def test_saa_inverse_crime_recovery():
    # deterministic dynamics; target manufactured from a known control with
    # the same seeds, so the planted control's cost is attainable
    basis = sine_basis(GRID, 2)
    u0 = Field.from_function(GRID, lambda x: 0.3 * np.sin(np.pi * x))
    model = zero_noise_model()
    c_star = np.array([0.4, -0.3])
    U_star = control_field(basis, c_star)
    planted = generate_ensemble(u0, U_star, model, CFG, 1, 0)
    spec = CostSpec(u_tar=state_fields(planted), psi=psi_zero())
    j_star = field_cost(planted, U_star, spec, CFG.p)[0]
    res = saa_minimize(model, CFG, u0, spec, basis, n_paths=1, budget=250, base_seed=0)
    assert res.best_J <= j_star + 1e-6


def test_saa_all_divergent_candidates_raises():
    from plaplace_levy import NonConvergence
    from dataclasses import replace

    hard = replace(CFG, dt=10.0, newton_tol=1e-15, newton_max_iters=1)
    u0 = Field.from_function(GRID, lambda x: 5.0 * np.sin(np.pi * x))
    spec = CostSpec(u_tar=constant_target(GRID, hard.n_steps), psi=psi_zero())
    with pytest.raises(NonConvergence):
        saa_minimize(zero_noise_model(), hard, u0, spec, sine_basis(GRID, 2),
                     n_paths=1, budget=20, base_seed=0)


@pytest.mark.parametrize("initial_coeffs", [None, [0.5, -0.5]], ids=["simplex", "anchor"])
def test_saa_first_call_without_a_converged_candidate_raises_the_zero_control_failure(
        initial_coeffs, monkeypatch):
    # no candidate of the first solve call (the initial simplex, or the zero
    # control that anchors a search from other coefficients) converges in one
    # Newton iteration: the search stops there and raises the error of its
    # first candidate, U = 0, with its step and seed
    import plaplace_levy.control as control
    from plaplace_levy import NonConvergence
    from dataclasses import replace

    hard = replace(CFG, newton_tol=1e-15, newton_max_iters=1)
    model = reference_model()
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    calls, real = [], control.simulate_runs

    def counted(grid, starts, *args):
        calls.append(len(starts))
        return real(grid, starts, *args)

    monkeypatch.setattr(control, "simulate_runs", counted)
    with pytest.raises(NonConvergence) as raised:
        saa_minimize(model, hard, u0, make_spec(), sine_basis(GRID, 2), n_paths=2, budget=20,
                     base_seed=5, initial_coeffs=initial_coeffs)
    assert calls == ([3] if initial_coeffs is None else [1])
    paths = sample_prms(model, hard.dt, hard.n_steps, [5, 6])
    with pytest.raises(NonConvergence) as alone:
        simulate_paths(smoothed_start(u0, Field.zeros(GRID, "free_boundary"), hard), model, hard,
                       paths)
    assert (raised.value.step, raised.value.seed) == (alone.value.step, alone.value.seed) == (0, 5)
    assert str(raised.value) == str(alone.value)


def _rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1.0 - x[..., :-1]) ** 2, axis=-1)


def _inf_on_half_plane(x):
    # +inf where x0 + x1 > 0.5: the search must step back out of that region
    x = np.asarray(x, dtype=float)
    return np.where(x[..., 0] + x[..., 1] > 0.5, np.inf, _rosenbrock(x))


def _staircase(x):
    # piecewise constant: ties between trial values decide the branches
    return 4.0 * np.floor(_rosenbrock(x) / 4.0)


def _in_house_search(fun, simplex, maxfev, xatol, fatol, speculate=True):
    """nelder_mead on fun, recording the points it uses, its batch sizes and
    the number of points used at each begin()."""
    latest, used, batches, begins = {}, [], [], []

    def evaluate(points):
        batches.append((len(used), len(points)))
        latest["points"], latest["values"] = points.copy(), fun(points)

    def consume(i):
        used.append(latest["points"][i])
        return latest["values"][i]

    sim, fsim, nfev = nelder_mead(evaluate, consume, simplex, maxfev, xatol=xatol, fatol=fatol,
                                  speculate=speculate, begin=lambda: begins.append(len(used)))
    return sim, fsim, nfev, used, batches, begins


_SEARCH_CASES = {
    "rosen2": (_rosenbrock, np.full(2, -0.7)),
    "rosen3": (_rosenbrock, np.full(3, -0.7)),
    # the simplex straddles the boundary and the search runs along it
    "inf_half_plane": (_inf_on_half_plane, np.zeros(2)),
    "staircase_ties": (_staircase, np.full(2, -0.7)),
    "maxfev_mid_shrink": (_inf_on_half_plane, np.zeros(2)),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_nelder_mead_matches_scipy_bitwise(case):
    import scipy.optimize

    fun, x0 = _SEARCH_CASES[case]
    N = len(x0)
    simplex = np.vstack([x0] + [x0 + 0.5 * np.eye(N)[j] for j in range(N)])
    xatol, fatol = 1e-10, 1e-12
    maxfev = 300
    if case == "maxfev_mid_shrink":
        *_, batches, _ = _in_house_search(fun, simplex, 400, xatol, fatol)
        # run out after the first point of the first shrink (N points in one
        # batch after the initial simplex)
        shrinks = [used for used, size in batches[1:] if size == N]
        assert shrinks, "the search never shrinks on this objective"
        maxfev = shrinks[0] + 1
    seen, callbacks = [], []

    def objective(x):
        seen.append(x.copy())
        return float(fun(x))

    ref = scipy.optimize.minimize(objective, x0, method="Nelder-Mead",
                                  callback=lambda *_: callbacks.append(len(seen)), options={
        "maxfev": maxfev, "initial_simplex": simplex, "xatol": xatol, "fatol": fatol})
    for speculate in (True, False):
        sim, fsim, nfev, used, batches, begins = _in_house_search(fun, simplex, maxfev, xatol,
                                                                  fatol, speculate)
        assert nfev == ref.nfev == len(seen) == len(used)
        # begin() comes first, after the initial simplex and where SciPy's
        # callback does, wherever an evaluation follows
        assert [n for n in begins if n < nfev] == [n for n in [0, N + 1, *callbacks] if n < nfev]
        assert np.array_equal(np.array(used), np.array(seen))
        assert np.array_equal(sim, ref.final_simplex[0])
        assert np.array_equal(fsim, ref.final_simplex[1])
        if not speculate:
            # one trial point a call: every evaluated point is used
            assert sum(size for _, size in batches) == nfev
        if case == "maxfev_mid_shrink":
            # the shrink was the last batch, asked for with one evaluation left
            assert nfev == maxfev and batches[-1][0] == maxfev - 1
    if case == "inf_half_plane":
        assert np.isinf(fun(np.array(seen))).any()


@pytest.mark.parametrize("n_paths", [1, 3, 12])
def test_saa_matches_scipy_driven_search(n_paths, monkeypatch):
    import plaplace_levy.control as control
    from _oracles import saa_minimize_scipy
    from plaplace_levy.config import parse_config

    modes = set()
    real = control.nelder_mead

    def spy(*args, speculate, **kwargs):
        modes.add(speculate)
        return real(*args, speculate=speculate, **kwargs)

    monkeypatch.setattr(control, "nelder_mead", spy)

    cfg = parse_config(os.path.join(REPO, "sample_config.ini"))
    grid = cfg.build_grid()
    scheme = cfg.build_scheme(grid.dim)
    args = (cfg.build_levy(), scheme, cfg.build_initial(grid),
            cfg.build_cost(grid, scheme.n_steps), cfg.build_basis(grid), n_paths)
    history, n_evaluations, best_J, _ = saa_minimize_scipy(*args, budget=200, base_seed=4)
    res = saa_minimize(*args, budget=200, base_seed=4)
    assert res.n_evaluations == n_evaluations == 200
    assert len(res.J_history) == len(history)
    tol = 10 * scheme.newton_tol
    assert np.allclose(res.J_history, history, rtol=tol, atol=0.0)
    assert res.best_J == pytest.approx(best_J, rel=tol, abs=0.0)
    # 17 nodes a path: 12 paths are past the speculation limit
    assert modes == {n_paths * grid.n_nodes <= control._SPECULATE_NODES} == {n_paths < 12}


def test_diverged_candidate_scores_inf_and_spares_its_batch(monkeypatch):
    # with 6 Newton iterations the 50-amplitude candidate cannot finish its
    # first step; the others converge in the same stack
    import plaplace_levy.control as control
    from dataclasses import replace
    from plaplace_levy import NonConvergence

    cfg = replace(CFG, newton_max_iters=6)
    model = reference_model()
    basis = sine_basis(GRID, 2)
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(3))
    coeffs = [[0.1, -0.2], [50.0, -0.2], [0.5, -0.2], [2.0, -0.2]]
    controls = [control_field(basis, c) for c in coeffs]
    runs = simulate_controls(u0, field_rows(controls), model, cfg, paths)
    assert isinstance(runs[1], NonConvergence)
    with pytest.raises(NonConvergence) as alone:
        simulate_paths(smoothed_start(u0, controls[1], cfg), model, cfg, paths)
    assert (runs[1].step, runs[1].seed, str(runs[1])) == (
        alone.value.step, alone.value.seed, str(alone.value))
    for c in (0, 2, 3):
        for row, path in zip(runs[c].states, paths):
            single = simulate_paths(smoothed_start(u0, controls[c], cfg), model, cfg,
                                    [path]).states[0]
            assert np.max(np.abs(row - single)) <= 10 * cfg.newton_tol

    # the search scores it +inf and keeps its batch-mates' values
    scored = []
    real = control.nelder_mead

    def spy(evaluate, consume, *args, **kwargs):
        batch = {}

        def evaluate_points(points):
            batch["points"] = points.copy()
            evaluate(points)

        def consume_value(i):
            val = consume(i)
            scored.append((batch["points"][i], val))
            return val

        return real(evaluate_points, consume_value, *args, **kwargs)

    monkeypatch.setattr(control, "nelder_mead", spy)
    spec = make_spec()
    res = saa_minimize(model, cfg, u0, spec, basis, n_paths=3, budget=4,
                       initial_coeffs=coeffs[0], simplex_scale=49.9, restarts=1)
    # the initial simplex, after the zero-control anchor
    assert len(scored) == 3 and np.allclose([x for x, _ in scored[:2]], coeffs[:2], atol=1e-12)
    assert scored[1][1] == np.inf and np.isfinite(scored[0][1])
    for x, val in scored:
        U = control_field(basis, x)
        try:
            alone = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
            alone_J = field_cost(alone, U, spec, cfg.p)[0]
        except NonConvergence:
            alone_J = np.inf
        assert val == pytest.approx(alone_J, rel=10 * cfg.newton_tol, abs=0.0)
    assert res.n_evaluations == 4 and res.best_J == min(res.J_history) < np.inf


def _warm_start_case(dim, flux, projection):
    """u0, two nearby controls with a nonzero trace, a third one, the
    model, the scheme, 3 jump paths and a cost on a small grid."""
    grid = Grid(1, 16) if dim == 1 else Grid(2, 6)
    coefs = [0.7] if dim == 1 else [0.5, -0.3]
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=6, control_projection=projection,
                       flux=zero_flux(dim) if flux == "zero" else sine_flux(coefs))
    model = reference_model()
    bump = Field.from_function(grid, lambda *x: np.prod([np.sin(np.pi * xd) for xd in x], axis=0))
    ones = np.ones(grid.node_shape)
    controls = [Field(grid, a * ones + b * bump.values, "free_boundary")
                for a, b in ((0.1, 0.3), (0.1 + 1e-3, 0.3 - 2e-3), (-0.2, 0.5))]
    u0 = Field.from_function(grid, lambda *x: 0.4 * np.prod([np.sin(np.pi * xd) for xd in x],
                                                             axis=0))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(3))
    tar = Field(grid, 0.2 * bump.values)
    spec = CostSpec(u_tar=constant_target(grid, cfg.n_steps, tar), psi=psi_l2())
    return grid, u0, controls, model, cfg, paths, spec


_WARM_CASES = [(dim, flux, proj) for dim in (1, 2) for flux in ("zero", "sine")
               for proj in ("clamp_boundary", "lift_boundary")]


@pytest.mark.parametrize("dim, flux, projection", _WARM_CASES)
def test_warm_started_solves_match_the_cold_solve(dim, flux, projection):

    # a nearby control and a far one, whose lifted trace -0.2 the shift
    # 0.1 + (-0.2 - 0.1) would round to -0.20000000000000004
    grid, u0, (U_a, *others), model, cfg, paths, spec = _warm_start_case(dim, flux, projection)
    (ref,) = simulate_controls(u0, field_rows([U_a]), model, cfg, paths)
    colds = simulate_controls(u0, field_rows(others), model, cfg, paths)
    warms = simulate_controls(u0, field_rows(others), model, cfg, paths,
                              shared_ref(ref.states, len(others)))
    assert not np.array_equal(warms[0].states, colds[0].states)  # the reference is used
    edge = grid.boundary_nodes
    for U, cold, warm in zip(others, colds, warms):
        J_cold = field_cost(cold, U, spec, cfg.p)[0]
        assert field_cost(warm, U, spec, cfg.p)[0] == pytest.approx(J_cold, rel=10 * cfg.newton_tol,
                                                                abs=0.0)
        # the boundary values come from the previous state, not from the shift
        assert np.array_equal(warm.states[..., edge], cold.states[..., edge])
        if projection == "lift_boundary":
            assert np.any(warm.states[..., edge] != 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_warm_started_row_ignores_batch_and_chunking(dim, monkeypatch):
    import plaplace_levy.scheme as scheme

    grid, u0, (U_a, U_b, U_c), model, cfg, paths, _ = _warm_start_case(dim, "sine",
                                                                      "lift_boundary")
    (ref,) = simulate_controls(u0, field_rows([U_a]), model, cfg, paths)
    (alone,) = simulate_controls(u0, field_rows([U_b]), model, cfg, paths,
                                 shared_ref(ref.states, 1))
    mixed = simulate_controls(u0, field_rows([U_c, U_b, U_a]), model, cfg, paths,
                              shared_ref(ref.states, 3))
    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 2 * 8 * band.ldab * band.m)  # 2 rows a chunk
    chunked = simulate_controls(u0, field_rows([U_c, U_b]), model, cfg, paths,
                                shared_ref(ref.states, 2))
    assert np.array_equal(mixed[1].states, alone.states)
    assert np.array_equal(chunked[1].states, alone.states)
    # the reference's own control starts from its own solution
    assert np.max(np.abs(mixed[2].states - ref.states)) <= 10 * cfg.newton_tol


def _step_residuals(grid, model, cfg, run):
    """Residual norm (paths, n_steps) of every step of a solved ensemble,
    recomputed from its states, and its increments (paths, n_steps, nodes)."""
    from plaplace_levy.levy import compensated_increments, mark_sums
    from plaplace_levy.scheme import _StepSolver

    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    counts = np.array([path.counts for path in run.paths])
    jumps = mark_sums(counts, np.concatenate([path.marks for path in run.paths]))
    norms, incs = [], []
    for k in range(cfg.n_steps):
        prev = run.states[:, k]
        inc = np.zeros_like(prev)
        inc[:, grid.interior_nodes] = compensated_increments(
            model, prev[:, grid.interior_nodes], jumps[:, k], cfg.dt)
        norms.append(solver.evaluate(run.states[:, k + 1], prev + inc)[1])
        incs.append(inc)
    return np.array(norms).T, np.stack(incs, axis=1)


@pytest.mark.parametrize("dim, flux, projection", _WARM_CASES)
def test_trajectory_solve_is_an_accepted_march(dim, flux, projection, monkeypatch):
    # forced below the bound, every step of every row is solved at once
    import plaplace_levy._lapack as lapack
    import plaplace_levy.scheme as scheme

    grid, u0, (U_a, U_b, U_c), model, cfg, paths, _ = _warm_start_case(dim, flux, projection)
    (ref,) = simulate_controls(u0, field_rows([U_a]), model, cfg, paths)
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", 0)
    marched = simulate_controls(u0, field_rows([U_b, U_c]), model, cfg, paths,
                                shared_ref(ref.states, 2))
    taken, real = [], scheme._trajectories
    kernel = "dgttrf" if dim == 1 else "dgbtrf"  # the band kernel that factors
    factor, newton_iters = getattr(lapack, kernel), []

    def spy(*args):
        taken.append(len(args[4]))
        return real(*args)

    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", len(paths) * grid.n_nodes)
    monkeypatch.setattr(scheme, "_trajectories", spy)
    monkeypatch.setattr(scheme, "_march", None)  # no row falls back to the march
    mixed = simulate_controls(u0, field_rows([U_c, U_b, U_a]), model, cfg, paths,
                              shared_ref(ref.states, 3))
    starts = control_starts(u0, field_rows([U_b]), cfg)  # the smoothing factors here
    monkeypatch.setattr(lapack, kernel, lambda *a, **k: newton_iters.append(1) or factor(*a, **k))
    (alone,) = scheme.simulate_runs(grid, starts, [paths], model, cfg, shared_ref(ref.states, 1))
    # Newton with the exact trajectory Jacobian from the shift predictor of a
    # control 1e-3 away: 3 iterations in every case (7 without the coupling
    # blocks, which would still converge)
    assert len(newton_iters) <= 4
    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 2 * 8 * band.ldab * band.m * cfg.n_steps)
    chunked = simulate_controls(u0, field_rows([U_c, U_b]), model, cfg, paths,
                                shared_ref(ref.states, 2))
    assert taken == [3 * len(paths), len(paths), 2, 2, 2]  # rows per call
    # bitwise alone, in a batch and in chunks
    assert np.array_equal(mixed[1].states, alone.states)
    assert np.array_equal(chunked[1].states, alone.states)
    assert np.array_equal(mixed[1].sums, alone.sums)
    for run, march in zip((mixed[1], mixed[0]), marched):
        # what the march accepts: every step within newton_tol, sums in step order
        norms, incs = _step_residuals(grid, model, cfg, run)
        assert np.all(norms <= cfg.newton_tol)
        assert np.array_equal(run.sums[:, 0], np.zeros_like(run.sums[:, 0]))
        assert np.array_equal(run.sums[:, 1:], run.sums[:, :-1] + incs)
        assert np.array_equal(run.states[..., grid.boundary_nodes],
                              march.states[..., grid.boundary_nodes])
        assert np.max(np.abs(run.states - march.states)) <= 10 * cfg.newton_tol
    assert np.max(np.abs(mixed[2].states - ref.states)) <= 10 * cfg.newton_tol


@pytest.mark.parametrize("flux, projection", [(f, p) for d, f, p in _WARM_CASES if d == 2])
def test_kept_factors_match_fresh_factors_every_round(flux, projection, monkeypatch):
    # a 2D march keeps each row's Newton factors while they contract; with
    # fresh factors every round (no cut is enough to keep them) the steps
    # end within solver tolerance of the same states
    import plaplace_levy._lapack as lapack
    import plaplace_levy.scheme as scheme

    grid, u0, controls, model, cfg, paths, _ = _warm_start_case(2, flux, projection)
    factored, real = [], lapack.dgbtrf
    monkeypatch.setattr(lapack, "dgbtrf", lambda ab, *a, **k: factored.append(ab.shape[1])
                        or real(ab, *a, **k))
    kept = simulate_controls(u0, field_rows(controls), model, cfg, paths)
    n_kept = sum(factored)
    monkeypatch.setattr(scheme, "_LAG_CUT", -1.0)
    factored.clear()
    fresh = simulate_controls(u0, field_rows(controls), model, cfg, paths)
    assert n_kept < sum(factored)
    for a, b in zip(kept, fresh):
        assert np.max(np.abs(a.states - b.states)) <= 10 * cfg.newton_tol
        for run in (a, b):
            assert np.all(_step_residuals(grid, model, cfg, run)[0] <= cfg.newton_tol)


@pytest.mark.parametrize("dim", [1, 2])
def test_above_the_trajectory_bound_rows_march(dim, monkeypatch):
    import plaplace_levy.scheme as scheme

    grid, u0, (U_a, U_b, _), model, cfg, paths, _ = _warm_start_case(dim, "sine",
                                                                    "lift_boundary")
    (ref,) = simulate_controls(u0, field_rows([U_a]), model, cfg, paths)
    hat0 = scheme.prepare_initial(u0, U_b, cfg.dt, cfg.p).flat
    states, _ = scheme._march(grid, np.array([hat0] * len(paths)), model, cfg, paths,
                              np.zeros(len(paths), dtype=int), ref.states)
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", len(paths) * grid.n_nodes - 1)
    monkeypatch.setattr(scheme, "_trajectories", None)
    (run,) = simulate_controls(u0, field_rows([U_b]), model, cfg, paths,
                               shared_ref(ref.states, 1))
    assert np.array_equal(run.states, states)
    # the CI workflow's repeated optimize runs (sample_config.ini, 17 nodes a
    # path) at 4 and 8 paths lie on either side of the shipped bound
    monkeypatch.undo()
    assert 4 * 17 <= scheme._TRAJECTORY_NODES < 8 * 17


def test_trajectory_rows_that_fail_march_from_their_start(monkeypatch):
    # 6 Newton iterations are too few for a whole trajectory from a reference
    # this far away, so each row is marched, bitwise as by the march alone;
    # the 50-amplitude control fails in the march with the march's error
    from dataclasses import replace
    import plaplace_levy.scheme as scheme

    cfg = replace(CFG, newton_max_iters=6)
    model = reference_model()
    basis = sine_basis(GRID, 2)
    u0 = Field.from_function(GRID, lambda x: 0.4 * np.sin(np.pi * x))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(2))
    controls = [control_field(basis, c)
                for c in ([0.1, -0.2], [1.0, 0.5], [50.0, -0.2])]
    (ref,) = simulate_controls(u0, field_rows(controls[:1]), model, CFG, paths)
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", 0)
    marched = simulate_controls(u0, field_rows(controls[1:]), model, cfg, paths,
                                shared_ref(ref.states, 2))
    assert isinstance(marched[1], scheme.NonConvergence)
    fell_back, real = [], scheme._march

    def spy(*args):
        fell_back.append(len(args[4]))
        return real(*args)

    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", len(paths) * GRID.n_nodes)
    monkeypatch.setattr(scheme, "_march", spy)
    runs = simulate_controls(u0, field_rows(controls[1:]), model, cfg, paths,
                             shared_ref(ref.states, 2))
    assert fell_back == [2 * len(paths)]
    assert np.array_equal(runs[0].states, marched[0].states)
    assert np.array_equal(runs[0].sums, marched[0].sums)
    err, expected = runs[1], marched[1]
    assert (err.step, err.seed, err.residual, str(err)) == (
        expected.step, expected.seed, expected.residual, str(expected))


def test_singular_trajectory_block_sends_its_row_to_the_march(monkeypatch):
    # an exactly zero pivot returned in row 1's block of step 3: that row is
    # marched, the other two solve with the same factors as they would
    # without it
    import plaplace_levy._lapack as lapack
    import plaplace_levy.scheme as scheme

    grid, u0, (U_a, U_b, _), model, cfg, paths, _ = _warm_start_case(1, "sine",
                                                                    "clamp_boundary")
    (ref,) = simulate_controls(u0, field_rows([U_a]), model, cfg, paths)
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", 0)
    (marched,) = simulate_controls(u0, field_rows([U_b]), model, cfg, paths,
                                   shared_ref(ref.states, 1))
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES", len(paths) * grid.n_nodes)
    (whole,) = simulate_controls(u0, field_rows([U_b]), model, cfg, paths,
                                 shared_ref(ref.states, 1))
    real, m = lapack.dgttrf, grid.step_band.m  # the 1D band kernel

    def singular_once(*args, **kwargs):
        dl, d, *factors, info = real(*args, **kwargs)
        if not calls:
            info = (3 * len(paths) + 1) * m + 2
            d[info - 1] = 0.0  # U's diagonal, in row 1's block of step 3
        calls.append(d.size // (m * cfg.n_steps))  # rows factored
        return (dl, d, *factors, info)

    calls, solves = [], []  # solves: the kernel calls made before each forward sweep
    forward_solve = lapack.BandLU.forward_solve
    monkeypatch.setattr(lapack.BandLU, "forward_solve",
                        lambda lu, *a: solves.append(len(calls)) or forward_solve(lu, *a))
    starts = control_starts(u0, field_rows([U_b]), cfg)  # the smoothing factors here
    monkeypatch.setattr(lapack, "dgttrf", singular_once)
    (run,) = scheme.simulate_runs(grid, starts, [paths], model, cfg, shared_ref(ref.states, 1))
    assert calls[:2] == [3, 2]
    # one factorization per Newton round, the singular one included
    assert solves == list(range(1, len(solves) + 1))
    assert np.array_equal(run.states[1], marched.states[1])
    assert np.array_equal(run.states[[0, 2]], whole.states[[0, 2]])
    assert not np.array_equal(whole.states[1], marched.states[1])


@pytest.mark.parametrize("seed", [0, 5000015])
def test_warm_start_cuts_optimize_line_searches(seed, monkeypatch):
    # line-search counts are deterministic; a scratch measurement gave
    # 0.58 (seed 0) and 0.55 (seed 5000015) of the cold search's
    import plaplace_levy.control as control
    import plaplace_levy.scheme as scheme
    from plaplace_levy.config import parse_config

    cfg = parse_config(os.path.join(REPO, "perfbench", "configs", "sample.ini"))
    grid = cfg.build_grid()
    sch = cfg.build_scheme(grid.dim)
    args = (cfg.build_levy(), sch, cfg.build_initial(grid), cfg.build_cost(grid, sch.n_steps),
            cfg.build_basis(grid), 1)
    calls = []
    real_search, real_simulate = scheme._line_search, control.simulate_runs

    def count(*a, **kw):
        calls.append(1)
        return real_search(*a, **kw)

    monkeypatch.setattr(scheme, "_line_search", count)
    warm = saa_minimize(*args, budget=200, base_seed=seed)
    n_warm = len(calls)
    calls.clear()
    monkeypatch.setattr(control, "simulate_runs", lambda *a: real_simulate(*a[:5]))
    cold = saa_minimize(*args, budget=200, base_seed=seed)
    assert n_warm <= 0.65 * len(calls)
    assert warm.n_evaluations == cold.n_evaluations == 200
    assert warm.best_J == pytest.approx(cold.best_J, rel=1e-6, abs=0.0)


def test_search_solver_work(monkeypatch):
    # optimize-1d's search at base seed 4,000,012: its first batch starts
    # from each candidate's start held constant, and the predictor holds
    # however narrow the simplex gets, so every batch is solved as whole
    # trajectories, none falls back to the march, and the search makes at
    # most 210 LU factorizations (273 with a cold first batch and a
    # predictor that fell back on narrow simplices)
    import plaplace_levy._lapack as lapack
    import plaplace_levy.scheme as scheme
    from plaplace_levy.config import parse_config

    cfg = parse_config(os.path.join(REPO, "perfbench", "configs", "sample.ini"))
    grid = cfg.build_grid()
    sch = cfg.build_scheme(grid.dim)
    args = (cfg.build_levy(), sch, cfg.build_initial(grid), cfg.build_cost(grid, sch.n_steps),
            cfg.build_basis(grid), 1)
    factored, marched = [], []
    for kernel in ("dgttrf", "dgbtrf"):
        real = getattr(lapack, kernel)
        monkeypatch.setattr(lapack, kernel,
                            lambda *a, real=real, **k: factored.append(1) or real(*a, **k))
    real_march = scheme._march
    monkeypatch.setattr(scheme, "_march", lambda *a: marched.append(1) or real_march(*a))
    res = saa_minimize(*args, budget=200, base_seed=4_000_012)
    assert res.n_evaluations == 200
    assert not marched and len(factored) <= 210


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the package's own search replaced scipy.optimize, and its LAPACK routines
    # load without scipy/__init__ or scipy.linalg: importing any of these
    # would cost more than the rest of the CLI's start-up
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import plaplace_levy.cli; "
            "loaded = [m for m in ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse') "
            "if m in sys.modules]; assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-I", "-c", code, os.path.join(REPO, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the start predictor of the control search


def test_affine_trajectories_are_predicted_exactly():
    from plaplace_levy.control import affine_predictor

    rng = np.random.default_rng(3)
    base, slopes = rng.normal(size=(2, 5, 17)), rng.normal(size=(3, 2, 5, 17))
    points = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.1], [0.0, 0.4, -0.2], [0.1, 0.2, 0.3]])
    kept = [(x, base + np.tensordot(x, slopes, axes=1)) for x in points]
    predict = affine_predictor(kept, 3, incumbent=kept[0][1])
    new = np.array([[0.2, -0.3, 0.05], [1.5, 2.0, -1.0], [0.0, 0.0, 0.0]])
    ref = predict(new)
    assert ref.shape == (3, 2, 5, 17)
    for x, row in zip(new, ref):
        assert np.allclose(row, base + np.tensordot(x, slopes, axes=1), rtol=0.0, atol=1e-13)
    # each kept point predicts its own states
    assert np.allclose(predict(points), [s for _, s in kept], rtol=0.0, atol=1e-14)


def test_predictor_is_exact_however_narrow_the_simplex():
    # a right simplex 1e-9 wide, away from the origin, predicts affine states
    # as exactly as one of width 1; a nearly collinear simplex of that width
    # and a kept set smaller than dim + 1 fall back to the incumbent
    from plaplace_levy.control import affine_predictor

    rng = np.random.default_rng(4)
    base, slopes = rng.normal(size=(2, 5, 17)), rng.normal(size=(3, 2, 5, 17))
    center, width = np.array([0.3, -0.2, 0.1]), 1e-9
    points = center + width * np.vstack([np.zeros(3), np.eye(3)])
    kept = [(x, base + np.tensordot(x, slopes, axes=1)) for x in points]
    incumbent = kept[0][1]
    new = center + width * np.array([[0.2, -0.3, 0.05], [1.5, 2.0, -1.0], [0.0, 0.0, 0.0]])
    for x, row in zip(new, affine_predictor(kept, 3, incumbent)(new)):
        assert np.allclose(row, base + np.tensordot(x, slopes, axes=1), rtol=0.0, atol=1e-13)
    flat = center + width * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1e-9]])
    for few in ([(x, s) for x, (_, s) in zip(flat, kept)], kept[:3]):
        ref = affine_predictor(few, 3, incumbent)(new)
        assert ref.shape == (3, *incumbent.shape)
        assert all(np.array_equal(row, incumbent) for row in ref)
        assert affine_predictor(few, 3)(new) is None


def test_predictor_condition_number_is_numpys_from_one_inverse():
    # one inversion gives both the inverse and the 1-norm condition number,
    # bit for bit what np.linalg.cond(edges, 1) returns, including on
    # matrices near the _PREDICT_COND cut
    from plaplace_levy.control import _inverse_cond

    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 5):
        for scale in (1.0, 1e-9, 1e6):
            edges = scale * rng.normal(size=(dim, dim))
            inv, cond = _inverse_cond(edges)
            assert cond == np.linalg.cond(edges, 1)
            assert np.array_equal(inv, np.linalg.inv(edges))
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]])
    assert _inverse_cond(near)[1] == np.linalg.cond(near, 1) > 1e8
    for singular in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])):
        assert _inverse_cond(singular) == (None, np.inf) and np.linalg.cond(singular, 1) == np.inf


def test_predictor_falls_back_on_singular_and_nan_simplices_and_keeps_its_formula():
    # a singular or NaN edge matrix gives every candidate the incumbent's
    # states; a well-shaped one predicts bit for bit by the formula
    # s_0 + sum_i mu_i (s_i - s_0) with mu = inv(E) (x - x_0), added term by term
    from plaplace_levy.control import affine_predictor

    rng = np.random.default_rng(12)
    dim = 2
    base, slopes = rng.normal(size=(2, 5, 17)), rng.normal(size=(dim, 2, 5, 17))
    new = rng.normal(size=(4, dim))
    incumbent = base

    def kept_at(points):
        return [(x, base + np.tensordot(x, slopes, axes=1)) for x in points]

    for points in ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],  # collinear: singular
                   [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]],  # a repeated point
                   [[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]]):
        ref = affine_predictor(kept_at(np.array(points)), dim, incumbent)(new)
        assert all(np.array_equal(row, incumbent) for row in ref)
    kept = kept_at(rng.normal(size=(dim + 1, dim)))
    (x0, s0), rest = kept[0], kept[1:]
    inv = np.linalg.inv(np.array([x - x0 for x, _ in rest]).T)
    d = new - x0
    mu = sum(d[:, j, None] * inv[:, j] for j in range(dim))
    want = sum((mu[:, i, None, None, None] * (rest[i][1] - s0) for i in range(dim)), s0)
    assert np.array_equal(affine_predictor(kept, dim, incumbent)(new), want)


@pytest.mark.parametrize("projection", ["clamp_boundary", "lift_boundary"])
def test_predicted_state_0_is_each_candidates_start(projection):
    from plaplace_levy.control import affine_predictor, control_rows
    from plaplace_levy.scheme import prepare_initial

    grid, u0, _, model, cfg, paths, _ = _warm_start_case(1, "sine", projection)
    basis = sine_basis(grid, 2)
    points = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    runs = simulate_controls(u0, control_rows(basis, points), model, cfg, paths)
    predict = affine_predictor([(x, run.states) for x, run in zip(points, runs)], 2)
    new = np.array([[0.3, -0.2], [1.2, 0.7], [-0.4, 0.05]])
    rows = control_rows(basis, new)
    if projection == "clamp_boundary":
        rows[:, grid.boundary_nodes] = 0.0
    starts = prepare_initial(u0, rows, cfg.dt, cfg.p)
    ref = predict(new)
    for start, row_ref in zip(starts, ref):
        assert np.allclose(row_ref[:, 0], start, rtol=0.0, atol=1e-14)


def test_too_few_or_flat_candidates_start_from_the_incumbent_bitwise(monkeypatch):
    import plaplace_levy.control as control
    from plaplace_levy.config import parse_config

    rng = np.random.default_rng(5)
    incumbent = rng.normal(size=(2, 9, 13))
    states = [rng.normal(size=(2, 9, 13)) for _ in range(3)]
    points = np.array([[0.1, 0.2], [0.4, -0.3]])
    for kept in ([], [(np.zeros(2), states[0])],  # too few
                 # the three points on one line: a singular edge matrix
                 [(np.array([t, 2 * t]), s) for t, s in zip((0.0, 1.0, 2.0), states)],
                 # nearly on one line: condition number about 2e9
                 [(np.array(x), s) for x, s in zip(([0, 0], [1, 0], [1, 1e-9]), states)]):
        ref = control.affine_predictor(kept, 2, incumbent)(points)
        assert ref.shape == (2, *incumbent.shape)
        assert all(np.array_equal(row, incumbent) for row in ref)
        assert control.affine_predictor(kept, 2)(points) is None
    # a right simplex 1e-9 wide predicts: the test reads its shape, not its width
    kept = [(np.array(x), s) for x, s in zip(([0, 0], [1e-9, 0], [0, 1e-9]), states)]
    assert not np.array_equal(control.affine_predictor(kept, 2, incumbent)(points)[0], incumbent)

    # a search whose predictor always falls back starts every candidate from
    # the incumbent's states, as the rule before the predictor did
    cfg = parse_config(os.path.join(REPO, "perfbench", "configs", "sample.ini"))
    grid = cfg.build_grid()
    sch = cfg.build_scheme(grid.dim)
    args = (cfg.build_levy(), sch, cfg.build_initial(grid), cfg.build_cost(grid, sch.n_steps),
            cfg.build_basis(grid), 1)
    monkeypatch.setattr(control, "_PREDICT_COND", 0.0)
    fallback = saa_minimize(*args, budget=60, base_seed=3)

    def incumbent_only(kept, dim, incumbent=None):
        if incumbent is None:
            return lambda points: None
        return lambda points: np.broadcast_to(incumbent, (len(points), *incumbent.shape))

    monkeypatch.setattr(control, "affine_predictor", incumbent_only)
    before = saa_minimize(*args, budget=60, base_seed=3)
    assert fallback.J_history == before.J_history
    assert np.array_equal(fallback.best_coeffs, before.best_coeffs)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("whole", [True, False])
def test_row_with_its_own_ref_ignores_batch_and_chunking(dim, whole, monkeypatch):
    # per-row predicted refs: a row's states depend only on its control and
    # its own ref, alone, in a batch and in _BAND_BUDGET chunks, for
    # whole-trajectory solves and for the march
    import plaplace_levy.scheme as scheme
    from plaplace_levy.control import affine_predictor, control_rows

    grid, u0, _, model, cfg, paths, _ = _warm_start_case(dim, "sine", "lift_boundary")
    basis = sine_basis(grid, 2)
    monkeypatch.setattr(scheme, "_TRAJECTORY_NODES",
                        len(paths) * grid.n_nodes if whole else 0)
    anchors = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
    runs = simulate_controls(u0, control_rows(basis, anchors), model, cfg, paths)
    predict = affine_predictor([(x, run.states) for x, run in zip(anchors, runs)], 2)
    points = np.array([[0.1, 0.05], [0.25, -0.1], [-0.05, 0.15]])
    rows, ref = control_rows(basis, points), predict(points)
    alone = [simulate_controls(u0, rows[i : i + 1], model, cfg, paths, ref[i : i + 1])[0]
             for i in range(3)]
    batch = simulate_controls(u0, rows, model, cfg, paths, ref)
    band = grid.step_band
    per_row = band.ldab * band.m * (cfg.n_steps if whole else 1)
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 2 * 8 * per_row)  # 2 rows a chunk
    chunked = simulate_controls(u0, rows[::-1], model, cfg, paths, ref[::-1])[::-1]
    for one, a, b in zip(alone, batch, chunked):
        for run in (a, b):
            assert np.array_equal(run.states, one.states)
            assert np.array_equal(run.sums, one.sums)


@pytest.mark.parametrize("n_cells", [2, 3])
def test_one_row_of_a_tiny_1d_grid_solves_as_in_a_batch(n_cells):
    # 1 or 2 unknowns a step: one row alone goes below the size SciPy's
    # tridiagonal wrappers accept, in the march and in each step of a
    # whole-trajectory solve; it must still solve, as it does in a batch
    import plaplace_levy.scheme as scheme

    grid = Grid(1, n_cells)
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=6, flux=sine_flux([0.7]))
    model = reference_model()
    u0 = Field.from_function(grid, lambda x: 0.4 * np.sin(np.pi * x))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(1))
    rows = np.array([0.1, 0.3, -0.2])[:, None] * np.ones(grid.n_nodes)
    (ref,) = simulate_controls(u0, rows[:1], model, cfg, paths)
    for refs in (None, shared_ref(ref.states, 3)):  # march, whole trajectories
        batch = simulate_controls(u0, rows, model, cfg, paths, refs)
        for i, run in enumerate(batch):
            (alone,) = simulate_controls(u0, rows[i : i + 1], model, cfg, paths,
                                         None if refs is None else refs[i : i + 1])
            assert np.array_equal(alone.states, run.states)
            assert np.array_equal(alone.sums, run.sums)
