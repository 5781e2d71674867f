"""Per-step solver, initial smoothing, path simulation, and time interpolation."""

import numpy as np
import pytest

from plaplace_levy import (
    Field,
    FluxModel,
    Grid,
    LevyModel,
    NonConvergence,
    SchemeConfig,
    apriori_check,
    eta_linear,
    eta_sine,
    eta_zero,
    generate_ensemble,
    initial_smoothings,
    l2_norm,
    linear_flux,
    lp_grad_norm,
    prepare_initial,
    sample_prms,
    simulate_paths,
    sine_flux,
    zero_flux,
)
from plaplace_levy.estimates import _series_at


def zb(grid, rng, scale=1.0):
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = scale * rng.normal(size=len(grid.interior_nodes))
    return Field(grid, vals.reshape(grid.node_shape))


def reference_model(coef=0.5):
    return LevyModel(eta=eta_linear(coef), lambda_star=0.5, point_masses=((1.0, 1.0),))


def zero_model():
    return LevyModel(eta=eta_zero(), lambda_star=0.5, point_masses=((1.0, 1.0),))


# ---------------------------------------------------------------------------
# independent convex-energy oracle (1D, zero convection flux): see _oracles

from _oracles import (field_rows, grad_ops, l2_inner, oracle_energy, oracle_gradient,
                      oracle_minimize, simulate_controls, smoothed_start, state_fields,
                      step_solve)
from plaplace_levy.scheme import _conv_residual, _StepSolver


def test_oracle_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    h, dt, p = 0.1, 0.05, 3.0
    v = np.concatenate([[0.0], rng.normal(size=9), [0.0]])
    rhs = np.concatenate([[0.0], rng.normal(size=9), [0.0]])
    g = oracle_gradient(v, rhs, h, dt, p)
    eps = 1e-7
    for i in range(1, 10):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (oracle_energy(vp, rhs, h, dt, p) - oracle_energy(vm, rhs, h, dt, p)) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_step_solve_matches_convex_oracle():
    grid = Grid(1, 10)  # 9 interior nodes
    rng = np.random.default_rng(42)
    cfg = SchemeConfig(p=3, dt=0.05, n_steps=1, flux=zero_flux(1))
    for _ in range(12):
        u_prev = zb(grid, rng)
        out = step_solve(u_prev, Field.zeros(grid), cfg)
        v_star = oracle_minimize(u_prev.flat, grid.h, cfg.dt, cfg.p, gtol=1e-11)
        err = l2_norm(Field(grid, (out.flat - v_star).reshape(grid.node_shape), "free_boundary"))
        assert err <= 1e-6


def test_step_solve_zero_fixed_point():
    for dim in (1, 2):
        grid = Grid(dim, 8)
        cfg = SchemeConfig(p=4, dt=0.1, n_steps=1, flux=sine_flux([0.5, -0.2][:dim]))
        out = step_solve(Field.zeros(grid), Field.zeros(grid), cfg)
        assert np.all(out.values == 0.0)


def test_step_solve_monotone_damping():
    rng = np.random.default_rng(7)
    grid = Grid(1, 16)
    cfg = SchemeConfig(p=3, dt=0.02, n_steps=1, flux=zero_flux(1))
    for _ in range(20):
        u = zb(grid, rng, scale=2.0)
        out = step_solve(u, Field.zeros(grid), cfg)
        assert l2_norm(out) <= l2_norm(u) + 1e-12


def test_step_solve_unique_solution_across_guesses():
    rng = np.random.default_rng(11)
    grid = Grid(1, 12)
    cfg = SchemeConfig(p=3, dt=0.05, n_steps=1, flux=sine_flux([0.4]))
    u = zb(grid, rng)
    noise = zb(grid, rng, scale=0.3)
    a = step_solve(u, noise, cfg)
    b = step_solve(u, noise, cfg, initial_guess=zb(grid, rng, scale=5.0))
    assert l2_norm(a - b) <= 10 * cfg.newton_tol


def test_step_solve_nonconvergence_carries_residual():
    rng = np.random.default_rng(13)
    grid = Grid(1, 12)
    cfg = SchemeConfig(
        p=4, dt=5.0, n_steps=1, flux=zero_flux(1), newton_tol=1e-14, newton_max_iters=1
    )
    with pytest.raises(NonConvergence) as exc:
        step_solve(zb(grid, rng, scale=10.0), Field.zeros(grid), cfg)
    assert exc.value.residual is not None and exc.value.residual > 0


def test_nan_residual_is_not_converged(monkeypatch):
    # a NaN residual fails every `rnorm <= tol` test, so it must end in
    # NonConvergence rather than return the start iterate as the solution
    grid = Grid(1, 8)
    monkeypatch.setattr(FluxModel, "G", lambda self, u: np.full_like(u, np.nan))
    cfg = SchemeConfig(p=3, dt=0.1, n_steps=1, flux=sine_flux([1.0]), newton_max_iters=5)
    u = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    with np.errstate(invalid="ignore"), pytest.raises(NonConvergence):
        step_solve(u, Field.zeros(grid), cfg)


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_flux_validate_rejects_non_finite_lipschitz_constant(c):
    # inf * gap bounds every difference and f(0) = inf * 0 is NaN, so the
    # spot checks alone would pass such a flux
    with pytest.raises(ValueError, match="A2"):
        linear_flux([c]).validate()


@pytest.mark.parametrize("name", ["dt", "newton_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheme_config_rejects_non_finite_steps_and_tolerance(name, value):
    # an infinite newton_tol would accept every Newton start as converged
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        SchemeConfig(**{"p": 3.0, "dt": 0.05, "n_steps": 1, "flux": zero_flux(1), name: value})


def test_flux_validate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown flux kind 'cubic'"):
        FluxModel("cubic", (0.5,)).validate()


def per_axis_quotients(grid, F, f, v, slopes):
    """Convection divided differences from per-axis callables F_d and f_d,
    each evaluated on every node and gathered to the ends of its axis's
    edges; near-gap edges evaluate each f_d on all near end values and pick
    their own axis's."""
    nodes, axis, _ = grid.conv_edges

    def at_ends(fns, x):
        vals = np.stack([fn(x) for fn in fns], axis=-2)  # (..., dim, n_nodes)
        return vals[..., axis, nodes[0]], vals[..., axis, nodes[1]]

    a, b = v[..., nodes[0]], v[..., nodes[1]]
    gap = b - a
    near = np.abs(gap) < 1e-6
    Fa, Fb = at_ends(F, v)
    q = (Fb - Fa) / np.where(near, 1.0, gap)
    if slopes:
        fa, fb = at_ends(f, v)
        out = np.stack([q - fa, fb - q], axis=-2) / np.where(near, 1.0, gap)[..., None, :]
    if near.any():
        ax = np.broadcast_to(axis, near.shape)[near]
        x = np.concatenate([a[near], b[near]])
        if slopes:
            x = np.concatenate([x, x + 1e-6, x - 1e-6])
        f_x = np.stack([fd(x) for fd in f])[np.tile(ax, x.size // ax.size), np.arange(x.size)]
        k = ax.size
        q[near] = 0.5 * (f_x[:k] + f_x[k : 2 * k])
        if slopes:
            df = (f_x[2 * k : 4 * k] - f_x[4 * k :]) / 2e-6
            out[..., 0, :][near] = out[..., 1, :][near] = 0.25 * (df[:k] + df[k:])
    return out if slopes else q


@pytest.mark.parametrize("slopes", [False, True])
@pytest.mark.parametrize("kind", ["linear", "sine"])
@pytest.mark.parametrize("dim", [1, 2])
def test_edge_quotients_match_per_axis_callables_bitwise(dim, kind, slopes):
    from plaplace_levy.scheme import _edge_quotients

    coefs = [0.7, -0.45][:dim]
    if kind == "linear":
        F = [lambda u, a=a: 0.5 * a * np.asarray(u, dtype=float) ** 2 for a in coefs]
        f = [lambda u, a=a: a * np.asarray(u, dtype=float) for a in coefs]
        flux = linear_flux(coefs)
    else:
        F = [lambda u, a=a: a * (1.0 - np.cos(u)) for a in coefs]
        f = [lambda u, a=a: a * np.sin(u) for a in coefs]
        flux = sine_flux(coefs)
    grid = Grid(dim, 9 if dim == 1 else 6)
    rng = np.random.default_rng(dim)
    m = grid.interior_nodes.size
    v = np.zeros((3, grid.n_nodes))
    v[0, grid.interior_nodes] = rng.normal(size=m)
    v[1, grid.interior_nodes] = 0.3  # constant interior: gap 0 on interior edges
    v[2, grid.interior_nodes] = 0.3 + 1e-7 * rng.normal(size=m)  # gaps near 1e-7
    ref = per_axis_quotients(grid, F, f, v, slopes)
    assert np.array_equal(_edge_quotients(grid, flux, v, slopes=slopes), ref)
    for row, ref_row in zip(v, ref):  # one nodal vector at a time
        assert np.array_equal(_edge_quotients(grid, flux, row, slopes=slopes), ref_row)


def test_step_energy_identity():
    # testing the solved step against itself: the discrete energy balance
    # holds with equality up to the solver residual
    rng = np.random.default_rng(17)
    grid = Grid(1, 16)
    model = reference_model()
    cfg = SchemeConfig(p=3, dt=1 / 32, n_steps=8, flux=linear_flux([0.3]))
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    ens = generate_ensemble(u0, Field.zeros(grid, "free_boundary"), model, cfg, 1, 5)
    hats = state_fields(ens)
    incs = np.diff(ens.sums[0], axis=0)
    for k in range(cfg.n_steps):
        a, b = hats[k + 1], hats[k]
        lhs = 0.5 * (l2_norm(a) ** 2 - l2_norm(b) ** 2 + l2_norm(a - b) ** 2)
        lhs += cfg.dt * lp_grad_norm(a, cfg.p) ** cfg.p
        rhs = l2_inner(Field(grid, incs[k].reshape(grid.node_shape)), a)
        assert lhs == pytest.approx(rhs, abs=50 * cfg.newton_tol * max(1.0, l2_norm(a)))


def test_flux_monotonicity_constant():
    rng = np.random.default_rng(19)
    for p in (3.0, 4.0):
        for dim in (1, 2):
            a = rng.normal(size=(4000, dim))
            b = rng.normal(size=(4000, dim))
            na = np.linalg.norm(a, axis=1) ** (p - 2)
            nb = np.linalg.norm(b, axis=1) ** (p - 2)
            lhs = np.sum((na[:, None] * a - nb[:, None] * b) * (a - b), axis=1)
            gap = np.linalg.norm(a - b, axis=1) ** p
            ok = gap > 1e-12
            c_fit = np.min(lhs[ok] / gap[ok])
            assert c_fit > 0


# ---------------------------------------------------------------------------
# initial smoothing


def test_prepare_initial_zero():
    grid = Grid(1, 8)
    out = prepare_initial(Field.zeros(grid), Field.zeros(grid), 0.1, 3)
    assert np.all(out.values == 0.0)
    (rep,) = initial_smoothings([Field.zeros(grid)], 0.1, 3)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0


def test_initial_estimate_random_fields():
    rng = np.random.default_rng(23)
    grid = Grid(1, 16)
    for p in (3.0, 4.0):
        data = [Field(grid, rng.normal(size=grid.node_shape), "free_boundary") for _ in range(15)]
        for rep in initial_smoothings(data, 0.05, p):
            assert not isinstance(rep, NonConvergence), rep
            assert rep["lhs"] <= rep["rhs"] + rep["slack"], (rep["lhs"], rep["rhs"])


def test_initial_smoothing_converges_as_dt_shrinks():
    grid = Grid(1, 32)
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x) + 0.4 * np.sin(2 * np.pi * x))
    errs = []
    for dt in (1e-1, 1e-2, 1e-3, 1e-4):
        (rep,) = initial_smoothings([u0], dt, 3)
        errs.append(l2_norm(rep["smoothed"] - u0.clamp_boundary()))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05 * errs[0] + 1e-12


def test_initial_smoothing_monotone_for_incompatible_trace():
    # nonzero boundary trace: the smoothing error still decreases in dt even
    # though it concentrates near the boundary on a fixed grid
    grid = Grid(1, 32)
    u0 = Field(grid, np.full(grid.node_shape, 0.5), "free_boundary")
    errs = []
    for dt in (1e-1, 1e-2, 1e-3, 1e-4):
        (rep,) = initial_smoothings([u0], dt, 3)
        errs.append(l2_norm(rep["smoothed"] - u0.clamp_boundary()))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# full paths and their time interpolation


def test_simulate_path_zero_data_stays_zero():
    grid = Grid(1, 8)
    cfg = SchemeConfig(p=3, dt=0.1, n_steps=10, flux=sine_flux([0.5]))
    ens = generate_ensemble(
        Field.zeros(grid), Field.zeros(grid, "free_boundary"), reference_model(), cfg, 1, 3
    )
    assert np.all(ens.states == 0.0)


def test_simulate_path_deterministic():
    grid = Grid(1, 8)
    cfg = SchemeConfig(p=3, dt=0.05, n_steps=12, flux=zero_flux(1))
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    U = Field.from_function(grid, lambda x: 0.2 * np.sin(2 * np.pi * x), "free_boundary")
    a = generate_ensemble(u0, U, reference_model(), cfg, 1, 77)
    b = generate_ensemble(u0, U, reference_model(), cfg, 1, 77)
    assert np.array_equal(a.states, b.states)


def test_nonconvergence_reports_step_index():
    grid = Grid(1, 8)
    cfg = SchemeConfig(
        p=4, dt=2.0, n_steps=3, flux=zero_flux(1), newton_tol=1e-15, newton_max_iters=1
    )
    u0 = Field.from_function(grid, lambda x: 5 * np.sin(np.pi * x))
    with pytest.raises(NonConvergence) as exc:
        generate_ensemble(u0, Field.zeros(grid, "free_boundary"), zero_model(), cfg, 1, 1)
    assert exc.value.step is not None
    assert exc.value.seed == 1


def test_interpolants_node_values_and_constant():
    # the affine interpolation of the state series (estimates._series_at)
    # passes through the nodal states and is affine in between
    grid = Grid(1, 8)
    cfg = SchemeConfig(p=3, dt=0.25, n_steps=4, flux=zero_flux(1))
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    states = generate_ensemble(u0, U, zero_model(), cfg, 1, 0).states[0]
    for k in range(cfg.n_steps + 1):
        assert np.allclose(_series_at(states, k * cfg.dt, cfg.dt), states[k])
    mid = 0.5 * (states[1] + states[2])
    assert np.allclose(_series_at(states, 1.5 * cfg.dt, cfg.dt), mid)
    stack = np.stack([states, 2 * states])  # (paths, times, nodes)
    assert np.allclose(_series_at(stack, 0.6, cfg.dt)[1], 2 * _series_at(states, 0.6, cfg.dt))


def test_interpolant_gap_inequality_pathwise():
    grid = Grid(1, 12)
    cfg = SchemeConfig(p=3, dt=1 / 16, n_steps=16, flux=zero_flux(1))
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    ens = generate_ensemble(u0, Field.zeros(grid, "free_boundary"), reference_model(), cfg, 1, 9)
    hats = state_fields(ens)
    # independent quadrature of the space-time gap between the step
    # interpolant (hats[k + 1] on [t_k, t_k+1)) and the affine one
    n_sub = 64
    quad = 0.0
    for k in range(cfg.n_steps):
        for j in range(n_sub):
            lam = (j + 0.5) / n_sub
            affine = hats[k] * (1.0 - lam) + hats[k + 1] * lam
            quad += l2_norm(hats[k + 1] - affine) ** 2 * (cfg.dt / n_sub)
    bound = cfg.dt * ens.increments_sq_sums[0]
    assert quad == pytest.approx(ens.interp_gap_sq()[0], rel=1e-3)
    assert quad <= bound + 1e-12


def test_constant_trajectory_interpolants():
    # zero dynamics with zero noise keeps the states, their interpolation
    # and the gap at zero
    grid = Grid(1, 6)
    cfg = SchemeConfig(p=3, dt=0.5, n_steps=2, flux=zero_flux(1))
    ens = generate_ensemble(
        Field.zeros(grid), Field.zeros(grid, "free_boundary"), zero_model(), cfg, 1, 0
    )
    assert np.all(ens.states == 0.0) and np.all(ens.sums == 0.0)
    for t in (0.0, 0.3, 0.5, 0.99, 1.0):
        assert np.all(_series_at(ens.states[0], t, cfg.dt) == 0.0)
    assert ens.interp_gap_sq()[0] == 0.0


def test_lift_boundary_mode_keeps_control_trace():
    grid = Grid(1, 8)
    cfg = SchemeConfig(
        p=3, dt=0.05, n_steps=6, flux=zero_flux(1),
        control_projection="lift_boundary",
    )
    U = Field(grid, np.full(grid.node_shape, 0.4), "free_boundary")
    u0 = Field.from_function(grid, lambda x: np.sin(np.pi * x))
    ens = generate_ensemble(u0, U, zero_model(), cfg, 1, 0)
    for f in state_fields(ens):
        assert f.values[0] == pytest.approx(0.4)
        assert f.values[-1] == pytest.approx(0.4)
    # clamped run of the same data stays in the zero-boundary space
    cfg_clamp = SchemeConfig(p=3, dt=0.05, n_steps=6, flux=zero_flux(1))
    ens_c = generate_ensemble(u0, U, zero_model(), cfg_clamp, 1, 0)
    for f in state_fields(ens_c):
        assert f.values[0] == 0.0 and f.values[-1] == 0.0


# ---------------------------------------------------------------------------
# pinned solver outputs: values recorded from the sparse-matvec solver that
# preceded the stencil kernels; any solver refactor must reproduce them to a
# tolerance derived from newton_tol.  The sine-flux cases guard the
# convection entries of the banded Newton system.

PIN_1D_ZERO = [
    0.01161323193928, 0.02302249334812, 0.03401621625153, 0.04436548428543,
    0.05380837300641, 0.06201878926775, 0.06852525844083, 0.07234975571832,
    0.06852525844083, 0.06201878926775, 0.05380837300641, 0.04436548428543,
    0.03401621625153, 0.02302249334812, 0.01161323193928,
]
PIN_1D_SINE = [
    0.01592319628244, 0.0303102124171, 0.04295345904756, 0.05357980984132,
    0.06178188869493, 0.06675274305598, 0.06397147520424, 0.05843419070796,
    0.05158705430854, 0.04398858460798, 0.03600843073285, 0.02794122287908,
    0.0200484680703, 0.01258147998144, 0.005800406533839,
]
PIN_2D_SINE = [
    [0.01209063501789, 0.01606358021094, 0.01531150866597, 0.005602830197653,
     -0.009162733319978, -0.01455640098437, -0.01318400457392],
    [0.0145521915672, 0.02885820897177, 0.02137225122072, 0.00574879951224,
     -0.009184521363308, -0.02526990746263, -0.01605030193212],
    [0.01700067691846, 0.03033202643195, 0.02285963722749, 0.007237496470479,
     -0.01178827317631, -0.0249713547267, -0.01761228077037],
    [0.01639863857536, 0.03061057214093, 0.02290855325369, 0.006350758371347,
     -0.01062041052672, -0.02603697427857, -0.01712539470602],
    [0.01527283997681, 0.02784082351926, 0.02098043886911, 0.006413938665923,
     -0.0107802793497, -0.02368062443309, -0.0164951339182],
    [0.01208372048487, 0.02146440603193, 0.01696723696407, 0.00468784649817,
     -0.008220090853302, -0.01968876823986, -0.01351975914603],
    [0.007979618234541, 0.00928264835359, 0.009851540859108, 0.003422558947121,
     -0.006513202879538, -0.008248083745532, -0.008854502232296],
]
PIN_1D_NOISY = [
    0.02023504010353, 0.04011469029912, 0.05927032092544, 0.07730307060284,
    0.09375655891529, 0.1080625901354, 0.1193996450182, 0.126063569615,
    0.1193996450182, 0.1080625901354, 0.09375655891529, 0.07730307060284,
    0.05927032092544, 0.04011469029912, 0.02023504010353,
]
PIN_ENSEMBLE = {
    "fitted_C": 0.3529177004148,
    "sup_E_l2": 0.03929248978288,
    "E_incr_sq_sum": 0.003732268187991,
}


def pinned_u0_1d(grid):
    return Field.from_function(
        grid, lambda x: 0.5 * np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
    )


@pytest.mark.parametrize(
    "flux, pinned",
    [(zero_flux(1), PIN_1D_ZERO), (sine_flux([0.7]), PIN_1D_SINE)],
    ids=["zero", "sine"],
)
def test_pinned_terminal_state_1d(flux, pinned):
    grid = Grid(1, 16)
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=16, flux=flux)
    ens = generate_ensemble(
        pinned_u0_1d(grid), Field.zeros(grid, "free_boundary"), zero_model(), cfg, 1, 0
    )
    tol = 100 * cfg.newton_tol
    assert state_fields(ens)[-1].values[1:-1] == pytest.approx(pinned, abs=tol)


def test_pinned_terminal_state_2d_sine_flux():
    grid = Grid(2, 8)
    u0 = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=4, flux=sine_flux([0.5, -0.3]))
    ens = generate_ensemble(u0, Field.zeros(grid, "free_boundary"), zero_model(), cfg, 1, 0)
    tol = 100 * cfg.newton_tol
    assert state_fields(ens)[-1].values[1:-1, 1:-1] == pytest.approx(np.array(PIN_2D_SINE), abs=tol)


def test_pinned_noisy_path_and_ensemble_statistics():
    grid = Grid(1, 16)
    U = Field.zeros(grid, "free_boundary")
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=16, flux=zero_flux(1))
    tol = 100 * cfg.newton_tol
    ens = generate_ensemble(pinned_u0_1d(grid), U, reference_model(), cfg, 1, 3)
    assert state_fields(ens)[-1].values[1:-1] == pytest.approx(PIN_1D_NOISY, abs=tol)
    ens = generate_ensemble(pinned_u0_1d(grid), U, reference_model(), cfg, 20, 0)
    stats = apriori_check(ens, pinned_u0_1d(grid), U).statistics
    for key, value in PIN_ENSEMBLE.items():
        assert stats[key] == pytest.approx(value, abs=tol), key


# ---------------------------------------------------------------------------
# step kernel and banded Newton matrices against assembled-matrix references


def assembled_residual(grid, v, rhs, p, dt, flux):
    """wc (v - rhs) + dt wc sum_d G_d^T (|g|^(p-2) g_d) + dt Conv(v), interior."""
    wc = grid.cell_weight
    comps = [g @ v for g in grad_ops(grid)]
    mag = np.sqrt(sum(c * c for c in comps))
    r = wc * (v - rhs)
    for g, c in zip(grad_ops(grid), comps):
        r = r + dt * wc * (g.T @ (mag ** (p - 2) * c))
    if not flux.is_zero:
        r = r + dt * _conv_residual(grid, flux, v)
    energy = 0.5 * wc * np.sum((v - rhs)[grid.interior_nodes] ** 2) + dt / p * wc * np.sum(mag**p)
    return r[grid.interior_nodes], energy


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("flux_kind", ["zero", "linear", "sine"])
def test_fused_evaluation_matches_assembled_reference(dim, flux_kind):
    rng = np.random.default_rng(37 + dim)
    grid = Grid(dim, 9)
    coefs = [0.6, -0.4][:dim]
    flux = {"zero": zero_flux(dim), "linear": linear_flux(coefs), "sine": sine_flux(coefs)}[flux_kind]
    solver = _StepSolver(grid, 3.5, 0.07, flux)
    # four rows evaluated as one stack, each against its own reference
    v = np.stack([zb(grid, rng).flat for _ in range(4)])
    rhs = np.stack([zb(grid, rng).flat for _ in range(4)])
    r, rnorm, energy, comps = solver.evaluate(v, rhs)
    wc = grid.cell_weight
    for i in range(4):
        r_ref, energy_ref = assembled_residual(grid, v[i], rhs[i], 3.5, 0.07, flux)
        assert np.max(np.abs(r[i] - r_ref)) <= 1e-12 * max(1.0, np.max(np.abs(r_ref)))
        assert rnorm[i] == pytest.approx(np.sqrt(np.sum((r_ref / wc) ** 2) * wc), rel=1e-12)
        assert np.array_equal(comps[i], grid.cell_gradient(v[i]))
        if flux.is_zero:
            assert energy[i] == pytest.approx(energy_ref, rel=1e-12)
    if not flux.is_zero:
        assert energy is None


def dense_from_band(grid, ab):
    """Dense matrix of gbsv band storage: A[i, j] = ab[2 kl + i - j, j]."""
    kl, m = grid.step_band.kl, ab.shape[1]
    J = np.zeros((m, m))
    for j in range(m):
        for i in range(max(0, j - kl), min(m, j + kl + 1)):
            J[i, j] = ab[2 * kl + i - j, j]
    return J


def frozen_coefficient_matrix(grid, v, p, dt, reg):
    """wc I + dt wc sum_d G_d^T diag((|g|^2 + reg^2)^((p-2)/2)) G_d from grad_ops."""
    wc, idx = grid.cell_weight, grid.interior_nodes
    comps = [g @ v for g in grad_ops(grid)]
    c0 = (sum(c * c for c in comps) + reg**2) ** ((p - 2) / 2)
    A = wc * np.eye(grid.n_nodes)
    for g in grad_ops(grid):
        A = A + dt * wc * (g.T @ (c0[:, None] * g.toarray()))
    return A[np.ix_(idx, idx)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("flux_kind", ["zero", "linear", "sine"])
def test_banded_jacobian_matches_finite_differences(dim, flux_kind):
    rng = np.random.default_rng(41 + dim)
    grid = Grid(dim, 12 if dim == 1 else 6)
    coefs = [0.8, -0.5][:dim]
    flux = {"zero": zero_flux(dim), "linear": linear_flux(coefs), "sine": sine_flux(coefs)}[flux_kind]
    m = len(grid.interior_nodes)
    solver = _StepSolver(grid, 3.0, 0.05, flux)
    v, rhs = zb(grid, rng).flat[None], zb(grid, rng).flat[None]
    r, _, _, comps = solver.evaluate(v, rhs)
    J = dense_from_band(grid, solver._band_matrix(v, comps, newton=True))
    eps = 1e-6
    fd = np.empty((m, m))
    for j, node in enumerate(grid.interior_nodes):
        vp, vm = v.copy(), v.copy()
        vp[0, node] += eps
        vm[0, node] -= eps
        fd[:, j] = (solver.evaluate(vp, rhs)[0] - solver.evaluate(vm, rhs)[0])[0] / (2 * eps)
    assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(fd))
    # the Newton increment solves the same banded system
    assert J @ solver.newton_step(v, comps, r)[0] == pytest.approx(-r[0], abs=1e-12)
    # the frozen-coefficient (Picard) matrix drops c1 g g^T and the convection
    A = dense_from_band(grid, solver._band_matrix(v, comps, newton=False))
    A_ref = frozen_coefficient_matrix(grid, v[0], 3.0, 0.05, 1e-8)
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert A_ref @ solver.picard_solve(v, comps, r)[0] == pytest.approx(r[0], abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("flux_kind", ["zero", "sine"])
def test_stacked_systems_are_diagonal_blocks(dim, flux_kind):
    rng = np.random.default_rng(43 + dim)
    grid = Grid(dim, 7)
    flux = zero_flux(dim) if flux_kind == "zero" else sine_flux([0.8, -0.5][:dim])
    solver = _StepSolver(grid, 3.0, 0.05, flux)
    v = np.stack([zb(grid, rng).flat for _ in range(3)])
    r, _, _, comps = solver.evaluate(v, np.zeros_like(v))
    m = grid.step_band.m
    for newton in (True, False):
        J = dense_from_band(grid, solver._band_matrix(v, comps, newton))
        for i in range(3):
            one = dense_from_band(grid, solver._band_matrix(v[i : i + 1], comps[i : i + 1], newton))
            block = J[i * m : (i + 1) * m]
            assert np.max(np.abs(block[:, i * m : (i + 1) * m] - one)) <= 1e-15 * np.max(np.abs(one))
            assert not np.delete(block, np.s_[i * m : (i + 1) * m], axis=1).any()
    steps = solver.newton_step(v, comps, r)
    for i in range(3):
        one = solver.newton_step(v[i : i + 1], comps[i : i + 1], r[i : i + 1])[0]
        assert steps[i] == pytest.approx(one, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("flux_kind", ["zero", "sine"])
def test_single_interior_unknown_steps(dim, flux_kind):
    grid = Grid(dim, 2)
    assert grid.step_band.m == 1
    flux = zero_flux(dim) if flux_kind == "zero" else sine_flux([0.7, -0.4][:dim])
    cfg = SchemeConfig(p=3.0, dt=0.1, n_steps=1, flux=flux)
    u = zb(grid, np.random.default_rng(3))
    out = step_solve(u, Field.zeros(grid), cfg)
    solver = _StepSolver(grid, cfg.p, cfg.dt, flux)
    assert solver.evaluate(out.flat[None], u.flat[None])[1][0] <= cfg.newton_tol
    # the only interior node couples to boundary values alone: convection
    # cancels, and the p-flux pulls the centre value toward zero
    centre = out.flat[grid.interior_nodes[0]]
    assert 0.0 < centre / u.flat[grid.interior_nodes[0]] < 1.0


# ---------------------------------------------------------------------------
# smoothing failures


def test_prepare_initial_raises_its_smoothing_failure():
    # amplitude 1e6 leaves the smoothing's residual far above its 1e-12
    # tolerance after 60 iterations; generate_ensemble, which smooths u0
    # before it solves a step, raises the same error
    grid = Grid(1, 16)
    u0 = Field.from_function(grid, lambda x: 1e6 * np.sin(2 * np.pi * x))
    with pytest.raises(NonConvergence) as exc:
        prepare_initial(u0, Field.zeros(grid), 0.03, 3.0)
    assert str(exc.value).startswith("initial smoothing: step solver exhausted 60 iterations")
    assert (exc.value.step, exc.value.seed) == (None, None)
    cfg = SchemeConfig(p=3.0, dt=0.03, n_steps=2, flux=zero_flux(1))
    model = reference_model()
    with pytest.raises(NonConvergence) as run:
        generate_ensemble(u0, Field.zeros(grid), model, cfg, 1, 0)
    assert str(run.value) == str(exc.value)


# ---------------------------------------------------------------------------
# batched path engine: rows independent of batch size and composition


@pytest.mark.parametrize("case", ["zero-1d", "sine-1d", "sine-2d"])
def test_batched_paths_match_single_path_solves(case):
    if case == "sine-2d":
        grid = Grid(2, 8)
        u0 = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
        cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=4, flux=sine_flux([0.5, -0.3]))
    else:
        grid = Grid(1, 16)
        u0 = pinned_u0_1d(grid)
        flux = zero_flux(1) if case == "zero-1d" else sine_flux([0.7])
        cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=16, flux=flux)
    U = Field.zeros(grid, "free_boundary")
    model = reference_model()
    batch = simulate_paths(smoothed_start(u0, U, cfg), model, cfg,
                           sample_prms(model, cfg.dt, cfg.n_steps, range(37)))
    for seed in (0, 17, 36):
        alone = generate_ensemble(u0, U, model, cfg, 1, seed)
        assert np.max(np.abs(batch.states[seed] - alone.states[0])) <= 10 * cfg.newton_tol
        assert np.max(np.abs(batch.sums[seed] - alone.sums[0])) <= 10 * cfg.newton_tol


def test_batch_mixes_a_picard_rescue_with_plain_newton_rows(monkeypatch):
    # row 1 of the first Newton round is sent uphill, so its 40 halvings fail
    # and it alone takes the frozen-coefficient rescue; every row must end
    # where it ends when solved alone (to solver tolerance: the stacked
    # products may round differently from the one-row ones)
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 12)
    rng = np.random.default_rng(29)
    cfg = SchemeConfig(p=3.0, dt=0.05, n_steps=1, flux=zero_flux(1))
    v0 = np.stack([zb(grid, rng).flat for _ in range(3)])
    newton_step, picard_solve = _StepSolver.newton_step, _StepSolver.picard_solve
    seen = {"rounds": 0, "picard_rows": []}

    def solve(v, sabotage):
        def uphill_first(self, v, comps, r):
            delta = newton_step(self, v, comps, r)
            if seen["rounds"] == 0 and sabotage is not None:
                delta[sabotage] *= -1.0
            seen["rounds"] += 1
            return delta

        def picard(self, v, comps, b):
            seen["picard_rows"].append(len(v))
            return picard_solve(self, v, comps, b)

        monkeypatch.setattr(_StepSolver, "newton_step", uphill_first)
        monkeypatch.setattr(_StepSolver, "picard_solve", picard)
        seen["rounds"], seen["picard_rows"] = 0, []
        solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
        out, failures = scheme._newton(solver, v.copy(), v.copy(), cfg.newton_tol, cfg.newton_max_iters)
        assert failures == []
        assert np.all(solver.evaluate(out, v)[1] <= cfg.newton_tol)
        return out, list(seen["picard_rows"])

    batch, rescued = solve(v0, sabotage=1)
    assert rescued == [1]
    for i in range(3):
        alone, _ = solve(v0[i : i + 1], sabotage=0 if i == 1 else None)
        assert np.max(np.abs(batch[i] - alone[0])) <= 10 * cfg.newton_tol


def test_a_stalled_row_fails_alone_in_its_batch(monkeypatch):
    # row 1 of the first Newton round is sent uphill, so its 40 halvings
    # fail, and its frozen-coefficient rescue makes no progress: it alone
    # fails as stagnated, and the other rows end where they end when solved
    # alone (to solver tolerance)
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 12)
    rng = np.random.default_rng(29)
    cfg = SchemeConfig(p=3.0, dt=0.05, n_steps=1, flux=zero_flux(1))
    v0 = np.stack([zb(grid, rng).flat for _ in range(3)])
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    newton_step, rounds, rescued = _StepSolver.newton_step, [], []

    def uphill_first(self, v, comps, r):
        delta = newton_step(self, v, comps, r)
        if not rounds:
            delta[1] *= -1.0
        rounds.append(len(v))
        return delta

    def no_progress(self, v, comps, b):
        rescued.append(len(v))
        return np.zeros_like(b)

    monkeypatch.setattr(_StepSolver, "newton_step", uphill_first)
    monkeypatch.setattr(_StepSolver, "picard_solve", no_progress)
    batch, failures = scheme._newton(solver, v0.copy(), v0.copy(), cfg.newton_tol,
                                     cfg.newton_max_iters)
    monkeypatch.undo()
    assert rescued == [1]
    assert [i for i, _ in failures] == [1]
    assert str(failures[0][1]).startswith("step solver stagnated at residual ")
    assert rounds[0] == 3 and max(rounds[1:]) <= 2  # row 1 stops iterating
    for i in (0, 2):
        alone, fails = scheme._newton(solver, v0[i : i + 1].copy(), v0[i : i + 1].copy(),
                                      cfg.newton_tol, cfg.newton_max_iters)
        assert fails == []
        assert np.max(np.abs(batch[i] - alone[0])) <= 10 * cfg.newton_tol
    assert np.all(solver.evaluate(batch[[0, 2]], v0[[0, 2]])[1] <= cfg.newton_tol)


def test_rescue_saves_rows_whose_line_search_stalls(monkeypatch):
    # on this config (strong sine flux, p = 2.1, mode-3 data of amplitude
    # 50) both paths' first step stalls in the residual line search, and the
    # frozen-coefficient rescue takes each row to a converged step; a rescue
    # that makes no progress leaves path seed 0 stagnated at step 0
    grid = Grid(1, 16)
    u0 = Field.from_function(grid, lambda x: 50.0 * np.sin(3 * np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    model = LevyModel(eta=eta_sine(0.95), lambda_star=0.96, point_masses=((1.0, 1.0),))
    cfg = SchemeConfig(p=2.1, dt=1 / 32, n_steps=2, flux=sine_flux([50.0]))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(2))
    picard, rescued = _StepSolver.picard_solve, []

    def spy(self, v, comps, b):
        rescued.append(len(v))
        return picard(self, v, comps, b)

    monkeypatch.setattr(_StepSolver, "picard_solve", spy)
    run = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    assert sum(rescued) >= 2
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    for k in range(cfg.n_steps):
        inc = run.sums[:, k + 1] - run.sums[:, k]
        assert np.all(solver.evaluate(run.states[:, k + 1], run.states[:, k] + inc)[1]
                      <= cfg.newton_tol)
    monkeypatch.setattr(_StepSolver, "picard_solve", lambda self, v, comps, b: np.zeros_like(b))
    with pytest.raises(NonConvergence, match="^step solver stagnated") as exc:
        simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    assert (exc.value.step, exc.value.seed) == (0, 0)


def test_batch_failure_reports_first_failing_path():
    # alone, seed 9 fails at step 3 and seed 3 at step 1: the batch
    # (9, 4, 3, 10) must report seed 9, the error a path-by-path loop meets
    # first, although seed 3 fails earlier in time
    grid = Grid(1, 12)
    model = LevyModel(eta=eta_linear(0.9), lambda_star=0.95, point_masses=((1.0, 20.0),))
    cfg = SchemeConfig(p=4.0, dt=0.1, n_steps=8, flux=zero_flux(1), newton_max_iters=5)
    u0 = Field.from_function(grid, lambda x: 2 * np.sin(np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    expected = {}
    for seed in (9, 4, 3, 10):
        try:
            generate_ensemble(u0, U, model, cfg, 1, seed)
        except NonConvergence as err:
            expected[seed] = err
    assert sorted(expected) == [3, 9] and expected[3].step < expected[9].step
    with pytest.raises(NonConvergence) as exc:
        simulate_paths(smoothed_start(u0, U, cfg), model, cfg,
                       sample_prms(model, cfg.dt, cfg.n_steps, (9, 4, 3, 10)))
    assert (exc.value.seed, exc.value.step) == (9, expected[9].step)
    assert exc.value.residual == expected[9].residual
    assert str(exc.value) == str(expected[9])


def test_failing_row_stops_the_later_rows_of_its_control(monkeypatch):
    # the setup of the test above: alone, seed 3 fails at step 1 and seed 9
    # at step 3
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 12)
    model = LevyModel(eta=eta_linear(0.9), lambda_star=0.95, point_masses=((1.0, 20.0),))
    cfg = SchemeConfig(p=4.0, dt=0.1, n_steps=8, flux=zero_flux(1), newton_max_iters=5)
    u0 = Field.from_function(grid, lambda x: 2 * np.sin(np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    paths = dict(zip((3, 4, 9), sample_prms(model, cfg.dt, cfg.n_steps, (3, 4, 9))))
    hat0 = prepare_initial(u0, U, cfg.dt, cfg.p).flat
    # rows (3, 9, 4) of control 0 and seed 9 of control 1: control 0's seed
    # 9 stops with its seed 3, control 1's runs on to its own failure
    rows = [paths[s] for s in (3, 9, 4, 9)]
    _, errors = scheme._march(grid, np.array([hat0] * 4), model, cfg, rows,
                              np.array([0, 0, 0, 1]))
    assert [e is not None for e in errors] == [True, False, False, True]
    assert (errors[0].seed, errors[0].step, errors[3].seed, errors[3].step) == (3, 1, 9, 3)

    # one row a chunk: a control's rows after its failed one are not marched
    marched = []
    real = scheme._march

    def spy(grid, starts, model, cfg, part, groups, ref):
        marched.extend((int(g), p.seed) for g, p in zip(groups, part))
        return real(grid, starts, model, cfg, part, groups, ref)

    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 8 * band.ldab * band.m)
    monkeypatch.setattr(scheme, "_march", spy)
    runs = simulate_controls(u0, field_rows([U, U]), model, cfg, [paths[s] for s in (3, 9)])
    assert marched == [(0, 3), (1, 3)]
    assert [(r.seed, r.step) for r in runs] == [(3, 1), (3, 1)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("eta", ["zero", "linear", "sine"])
def test_trajectory_coupling_matches_central_differences(dim, eta):
    # -dR_k/du_{k-1} of a step residual whose rhs is u_{k-1} + inc(u_{k-1}):
    # the coupling block of the whole-trajectory Jacobian, diagonal
    from plaplace_levy import eta_sine
    from plaplace_levy.levy import compensated_increments
    from plaplace_levy.scheme import _rhs_coupling

    coef = {"zero": eta_zero(), "linear": eta_linear(0.5), "sine": eta_sine(0.4)}[eta]
    model = LevyModel(eta=coef, lambda_star=0.5, point_masses=((1.0, 3.0), (-0.4, 2.0)))
    grid = Grid(1, 8) if dim == 1 else Grid(2, 4)
    dt, idx = 1 / 16, grid.interior_nodes
    solver = _StepSolver(grid, 3.0, dt, sine_flux([0.6] * dim))
    rng = np.random.default_rng(dim)
    v = zb(grid, rng).flat
    prev = zb(grid, rng).flat[None]
    jumps = np.array([1.4])

    def residual(prev):
        inc = np.zeros_like(prev)
        inc[:, idx] = compensated_increments(model, prev[:, idx], jumps, dt)
        return solver.evaluate(v[None], prev + inc)[0][0]

    h = 1e-6
    fd = np.empty((idx.size, idx.size))
    for j, node in enumerate(idx):
        step = np.zeros_like(prev)
        step[0, node] = h
        fd[:, j] = -(residual(prev + step) - residual(prev - step)) / (2 * h)
    noise = jumps - dt * model.mark_mass
    exact = np.diag(_rhs_coupling(model, prev[:, idx], noise, grid.cell_weight)[0])
    assert np.max(np.abs(fd - exact)) <= 1e-8 * grid.cell_weight


def test_chunked_batches_match_one_batch(monkeypatch):
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 16)
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
    model = reference_model()
    U = Field.zeros(grid, "free_boundary")
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(12))
    whole = simulate_paths(smoothed_start(pinned_u0_1d(grid), U, cfg), model, cfg, paths)
    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 5 * 8 * band.ldab * band.m)  # 5 paths a chunk
    chunked = simulate_paths(smoothed_start(pinned_u0_1d(grid), U, cfg), model, cfg, paths)
    for a, b in zip(whole.states, chunked.states):
        assert np.max(np.abs(a - b)) <= 10 * cfg.newton_tol
    assert len(whole.paths) == len(chunked.paths) == len(paths)
    assert all(a is b is path for a, b, path in zip(whole.paths, chunked.paths, paths))


@pytest.mark.parametrize("dim", [1, 2])
def test_each_run_of_a_multi_run_solve_equals_its_own_call(dim, monkeypatch):
    # runs on a prefix of another run's paths and from other initial data,
    # stacked run-major over chunks of 4 rows that mix runs: every run's
    # Ensemble equals its own simulate_paths call bitwise
    import plaplace_levy.scheme as scheme
    from plaplace_levy.estimates import default_bump

    if dim == 1:
        grid = Grid(1, 16)
        u0 = pinned_u0_1d(grid)
        U = Field.from_function(grid, lambda x: 0.2 * np.sin(2 * np.pi * x), "free_boundary")
        cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
        model = reference_model()
        paths = sample_prms(model, cfg.dt, cfg.n_steps, range(7))
    else:
        grid, u0, U, model, cfg, paths = _kept_factor_case()
    runs = [(u0, U, paths), (u0, U, paths[:3]), (u0 + default_bump(grid), U, paths)]
    alone = [simulate_paths(smoothed_start(u, V, cfg), model, cfg, ps) for u, V, ps in runs]
    chunks = []
    real = scheme._march

    def spy(grid, starts, model, cfg, part, groups, ref):
        chunks.append(groups.tolist())
        return real(grid, starts, model, cfg, part, groups, ref)

    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 4 * 8 * band.ldab * band.m)  # 4 rows a chunk
    monkeypatch.setattr(scheme, "_march", spy)
    stacked = scheme.simulate_runs(grid, run_starts(runs, cfg), [ps for *_, ps in runs], model, cfg)
    assert [len(c) for c in chunks] == [4] * (sum(len(ps) for *_, ps in runs) // 4) + [1]
    assert any(len(set(c)) > 1 for c in chunks)
    for run, own in zip(stacked, alone):
        assert np.array_equal(run.states, own.states)
        assert np.array_equal(run.sums, own.sums)
        assert run.paths == own.paths


def run_starts(runs, cfg):
    """The `simulate_runs` starts of runs (u0, U, paths): each datum's own
    `smoothed_start`."""
    return np.array([smoothed_start(u, V, cfg).flat for u, V, _ in runs])


def test_multi_run_failure_stays_in_its_run(monkeypatch):
    # the setup of test_batch_failure_reports_first_failing_path: from
    # 2 sin(pi x), seed 9 fails at step 3 and seed 3 at step 1, so the run
    # (9, 4, 3, 10) fails with seed 9; smaller data converges on every seed
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 12)
    model = LevyModel(eta=eta_linear(0.9), lambda_star=0.95, point_masses=((1.0, 20.0),))
    cfg = SchemeConfig(p=4.0, dt=0.1, n_steps=8, flux=zero_flux(1), newton_max_iters=5)
    u0 = Field.from_function(grid, lambda x: 2 * np.sin(np.pi * x))
    small = Field.from_function(grid, lambda x: 0.2 * np.sin(np.pi * x))
    U = Field.zeros(grid, "free_boundary")
    paths = sample_prms(model, cfg.dt, cfg.n_steps, (9, 4, 3, 10))
    with pytest.raises(NonConvergence) as exc:
        simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    expected = exc.value
    assert (expected.seed, expected.step) == (9, 3)
    runs = [(small, U, paths), (u0, U, paths), (small, U, paths[:2])]
    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 3 * 8 * band.ldab * band.m)  # 3 rows a chunk
    first, failed, last = scheme.simulate_runs(grid, run_starts(runs, cfg),
                                               [ps for *_, ps in runs], model, cfg)
    assert isinstance(failed, NonConvergence)
    assert (failed.seed, failed.step, failed.residual, str(failed)) == (
        expected.seed, expected.step, expected.residual, str(expected))
    for run, (u, V, ps) in ((first, runs[0]), (last, runs[2])):
        own = simulate_paths(smoothed_start(u, V, cfg), model, cfg, ps)
        assert np.array_equal(run.states, own.states) and np.array_equal(run.sums, own.sums)


def test_simulate_runs_rejects_bad_starts_and_refs():
    import plaplace_levy.scheme as scheme

    grid = Grid(1, 8)
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=2, flux=zero_flux(1))
    model = reference_model()
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(2))
    starts = np.zeros((2, grid.n_nodes))
    starts[1, 3] = np.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        scheme.simulate_runs(grid, starts, [paths, paths], model, cfg)
    starts[1, 3] = 0.0
    ref = np.zeros((2, 2, cfg.n_steps + 1, grid.n_nodes))
    with pytest.raises(ValueError, match="one trajectory set per run"):
        scheme.simulate_runs(grid, starts, [paths, paths[:1]], model, cfg, ref[:, :1])
    with pytest.raises(ValueError, match="one trajectory set per run"):
        scheme.simulate_runs(grid, starts, [paths, paths], model, cfg, ref[:1])
    assert len(scheme.simulate_runs(grid, starts, [paths, paths], model, cfg, ref)) == 2


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_smoothing_is_bitwise_each_datum(dim, monkeypatch):
    # initial_smoothings solves its data in one _newton call of one row
    # each, and every row equals that datum's own smoothing bitwise
    import plaplace_levy.scheme as scheme

    grid = Grid(dim, 16 if dim == 1 else 6)
    rng = np.random.default_rng(11)
    data = [zb(grid, rng, scale) for scale in (0.2, 1.0, 3.0)]
    calls = []
    newton = scheme._newton
    monkeypatch.setattr(scheme, "_newton", lambda solver, v, *a: calls.append(len(v))
                        or newton(solver, v, *a))
    reports = initial_smoothings(data, 1 / 16, 3.0)
    assert calls == [3]
    U = Field.zeros(grid, "free_boundary")
    for u, rep in zip(data, reports):
        (own,) = initial_smoothings([u], 1 / 16, 3.0)
        assert np.array_equal(rep["smoothed"].values, own["smoothed"].values)
        assert (rep["lhs"], rep["rhs"], rep["slack"]) == (own["lhs"], own["rhs"], own["slack"])
        assert np.array_equal(prepare_initial(u, U, 1 / 16, 3.0).values, (own["smoothed"] + U).values)


@pytest.mark.parametrize("dim", [1, 2])
def test_failed_smoothing_stays_in_its_datum(dim):
    # data of amplitude 1e6 exhaust the smoothing's 60 iterations: that
    # datum alone gets the NonConvergence its own smoothing gives, and the
    # batch's other data are smoothed as alone
    grid = Grid(dim, 12 if dim == 1 else 6)
    shape = (lambda x: np.sin(2 * np.pi * x)) if dim == 1 else (
        lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
    good = Field.from_function(grid, lambda *x: 0.5 * shape(*x))
    bad = Field.from_function(grid, lambda *x: 1e6 * shape(*x))
    with pytest.raises(NonConvergence) as exc:
        prepare_initial(bad, Field.zeros(grid), 1 / 16, 3.0)
    first, failed, last = initial_smoothings([good, bad, 0.5 * good], 1 / 16, 3.0)
    assert isinstance(failed, NonConvergence)
    assert (str(failed), failed.residual) == (str(exc.value), exc.value.residual)
    assert str(failed).startswith("initial smoothing: step solver exhausted 60 iterations")
    for rep, u in ((first, good), (last, 0.5 * good)):
        (own,) = initial_smoothings([u], 1 / 16, 3.0)
        assert np.array_equal(rep["smoothed"].values, own["smoothed"].values)


@pytest.mark.parametrize("measure", ["point", "invsq"])
def test_march_increments_match_mark_by_mark_sums(measure, monkeypatch):
    # each step's increment of each row is the jump sum over that row's
    # marks of the step minus dt times the compensator, both mark by mark
    import plaplace_levy.scheme as scheme
    from plaplace_levy import eta_sine

    if measure == "point":
        model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                          point_masses=((1.0, 9.0), (-0.3, 12.0), (2.5, 3.0)))
        eta_at = lambda u, z: 0.5 * u * min(1.0, abs(z))
    else:
        model = LevyModel(eta=eta_sine(0.5), lambda_star=0.5, density="invsq", eps=0.05)
        eta_at = lambda u, z: 0.5 * np.sin(u) * min(1.0, abs(z))
    grid = Grid(1, 16)
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(6))
    calls, real = [], scheme.compensated_increments

    def spy(model, u_int, sums, dt):
        inc = real(model, u_int, sums, dt)
        calls.append((u_int.copy(), inc))
        return inc

    monkeypatch.setattr(scheme, "compensated_increments", spy)
    simulate_paths(smoothed_start(pinned_u0_1d(grid), Field.zeros(grid, "free_boundary"), cfg),
                   model, cfg, paths)
    assert len(calls) == cfg.n_steps
    for k, (u_int, inc) in enumerate(calls):
        for i, path in enumerate(paths):
            marks = np.split(path.marks, np.cumsum(path.counts)[:-1])[k]
            jumps = sum(eta_at(u_int[i], z) for z in marks)
            drift = cfg.dt * sum(lam * eta_at(u_int[i], z) for z, lam in zip(*model.atoms))
            # relative to the size of the two terms, whose difference may cancel
            scale = np.abs(jumps) + np.abs(drift)
            assert np.all(np.abs(inc[i] - (jumps - drift)) <= 1e-13 * scale)
    assert sum(path.jump_count() for path in paths) > 2 * len(paths)


# ---------------------------------------------------------------------------
# kept Newton factors (2D march)


@pytest.mark.parametrize("case", ["march_1d", "trajectory_1d", "march_2d_sine"])
def test_ensemble_sums_equal_a_step_by_step_accumulation(case, monkeypatch):
    # Ensemble.sums, formed from the solved states and the jump paths, is
    # bitwise the step-by-step sum of each step's compensated increment at
    # its previous state
    import plaplace_levy.scheme as scheme
    from _oracles import martingale_sums, shared_ref

    if case == "march_2d_sine":
        grid = Grid(2, 6)
        u0 = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
        cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=6, flux=sine_flux([0.5, -0.3]))
        model = LevyModel(eta=eta_sine(0.5), lambda_star=0.5, density="invsq", eps=0.05)
    else:
        grid = Grid(1, 16)
        u0 = pinned_u0_1d(grid)
        cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
        model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                          point_masses=((1.0, 9.0), (-0.3, 12.0), (2.5, 3.0)))
    U = Field.zeros(grid, "free_boundary")
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(4))
    ens = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    if case == "trajectory_1d":
        solves = []
        real = scheme._trajectories
        monkeypatch.setattr(scheme, "_trajectories", lambda *a: solves.append(1) or real(*a))
        (ens,) = simulate_controls(u0, np.array([0.1 * u0.flat]), model, cfg, paths,
                                   shared_ref(ens.states, 1))
        assert solves
    assert any(path.jump_count() for path in paths)
    assert np.array_equal(ens.sums, martingale_sums(ens))
    assert ens.sums is ens.sums  # formed once


def test_path_step_sums_are_mark_sums_once_per_path():
    # PrmPath.step_sums, which every solve on a path reads, is mark_sums of
    # its counts and marks bit for bit: for a path without jumps, for steps
    # of several marks and for sampled paths; computed once and read-only.
    # Ensemble.sums, formed from them, is the stack-wide mark_sums formula
    from plaplace_levy.levy import PrmPath, compensated_increments, mark_sums
    from plaplace_levy.scheme import _path_mark_sums

    quiet = PrmPath(seed=0, counts=np.zeros(4, dtype=np.int64), marks=np.empty(0))
    several = PrmPath(seed=1, counts=np.array([0, 3, 1, 0]),
                      marks=np.array([0.5, -2.0, 0.3, 1.5]))
    assert np.array_equal(quiet.step_sums, np.zeros(4))
    assert several.step_sums.tolist() == [0.0, 0.5 + 1.0 + 0.3, 1.0, 0.0]
    model = LevyModel(eta=eta_linear(0.5), lambda_star=0.5,
                      point_masses=((1.0, 9.0), (-0.3, 12.0), (2.5, 3.0)))
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(5))
    assert max(path.counts.max() for path in paths) > 1
    for path in (quiet, several, *paths):
        assert np.array_equal(path.step_sums, mark_sums(path.counts, path.marks))
        assert path.step_sums is path.step_sums and not path.step_sums.flags.writeable
    counts = np.array([path.counts for path in paths])
    stacked = mark_sums(counts, np.concatenate([path.marks for path in paths]))
    assert np.array_equal(_path_mark_sums(paths, cfg.n_steps), stacked)
    grid = Grid(1, 16)
    ens = simulate_paths(smoothed_start(pinned_u0_1d(grid), Field.zeros(grid, "free_boundary"),
                                        cfg), model, cfg, paths)
    idx = grid.interior_nodes
    incs = np.zeros_like(ens.states)
    incs[:, 1:, idx] = compensated_increments(
        model, ens.states[:, :-1, idx].reshape(-1, idx.size), stacked.ravel(), cfg.dt
    ).reshape(len(paths), cfg.n_steps, idx.size)
    assert np.array_equal(ens.sums, np.cumsum(incs, axis=1))


def _kept_factor_case():
    grid = Grid(2, 8)
    u0 = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y))
    cfg = SchemeConfig(p=3.0, dt=1 / 16, n_steps=6, flux=sine_flux([0.5, -0.3]))
    model = reference_model()
    return grid, u0, Field.zeros(grid, "free_boundary"), model, cfg, sample_prms(
        model, cfg.dt, cfg.n_steps, range(5))


def test_kept_factors_row_ignores_batch_and_chunking(monkeypatch):
    import plaplace_levy.scheme as scheme

    grid, u0, U, model, cfg, paths = _kept_factor_case()
    seen = {"rounds": 0, "lagged": 0, "factored": 0}
    step, factors = _StepSolver.newton_step, _StepSolver.newton_factors

    def spy_step(self, v, comps, r, kept=None):
        seen["rounds"] += len(v)
        seen["lagged"] += sum(f is not None for f in kept or ())
        return step(self, v, comps, r, kept)

    def spy_factors(self, v, comps):
        seen["factored"] += v.shape[-2]
        return factors(self, v, comps)

    monkeypatch.setattr(_StepSolver, "newton_step", spy_step)
    monkeypatch.setattr(_StepSolver, "newton_factors", spy_factors)
    batch = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    # row rounds taken with kept factors need no factorization
    assert seen["lagged"] > 0
    assert seen["factored"] < seen["rounds"]
    alone = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths[2:3])
    band = grid.step_band
    monkeypatch.setattr(scheme, "_BAND_BUDGET", 2 * 8 * band.ldab * band.m)  # 2 rows a chunk
    chunked = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    for run in (batch, chunked):
        assert np.array_equal(run.states[2], alone.states[0])
        assert np.array_equal(run.sums[2], alone.sums[0])


def test_corrupted_kept_factors_end_in_a_converged_step(monkeypatch):
    # row 1's first kept factors are replaced by those of a wrong matrix (U
    # negated), so its lagged round stalls: it must retry with fresh factors,
    # not take the rescue or fail, and end where the clean run ends
    import plaplace_levy.scheme as scheme

    grid, u0, U, model, cfg, paths = _kept_factor_case()
    clean = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    step, kl = _StepSolver.newton_step, grid.step_band.kl
    corrupted, rescues = [], []

    def corrupt(self, v, comps, r, kept=None):
        if kept is not None and not corrupted and len(kept) > 1 and kept[1] is not None:
            lu = kept[1].cols(0, kept[1].n)  # a new handle on row 1's factors
            lub, piv = lu.factors
            bad = lub.copy(order="F")
            bad[: 2 * kl + 1] *= -1.0
            lu.factors = [bad, piv]
            kept[1] = lu
            corrupted.append(1)
        return step(self, v, comps, r, kept)

    picard = _StepSolver.picard_solve
    monkeypatch.setattr(_StepSolver, "newton_step", corrupt)
    monkeypatch.setattr(_StepSolver, "picard_solve",
                        lambda self, *a: rescues.append(1) or picard(self, *a))
    run = simulate_paths(smoothed_start(u0, U, cfg), model, cfg, paths)
    assert corrupted and not rescues
    assert np.max(np.abs(run.states - clean.states)) <= 10 * cfg.newton_tol
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    for k in range(cfg.n_steps):
        prev, nxt = run.states[:, k], run.states[:, k + 1]
        inc = run.sums[:, k + 1] - run.sums[:, k]
        assert np.all(solver.evaluate(nxt, prev + inc)[1] <= cfg.newton_tol)


def test_kept_factors_own_their_memory(monkeypatch):
    # a row's kept factors are copied out of a batch that holds other rows,
    # so a kept row does not hold the whole batch's array alive; the one row
    # of a one-row batch keeps a view, since a copy would free nothing
    grid = Grid(2, 8)
    rng = np.random.default_rng(31)
    solver = _StepSolver(grid, 3.0, 1 / 16, sine_flux([0.5, -0.3]))
    factors, batches = _StepSolver.newton_factors, []
    monkeypatch.setattr(_StepSolver, "newton_factors",
                        lambda self, *a: batches.append(factors(self, *a)) or batches[-1])
    for n_rows in (3, 1):
        v = np.stack([zb(grid, rng).flat for _ in range(n_rows)])
        r, _, _, comps = solver.evaluate(v, np.zeros_like(v))
        kept = [None] * n_rows
        delta = solver.newton_step(v, comps, r, kept)
        lu, ok = batches.pop()
        assert ok is None and all(f is not None for f in kept)
        for i, f in enumerate(kept):
            assert np.shares_memory(f.factors[0], lu.factors[0]) == (n_rows == 1)
            assert np.array_equal(f.solve(-r[i]), delta[i])


def test_1d_march_never_keeps_factors(monkeypatch):
    grid = Grid(1, 16)
    cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=8, flux=sine_flux([0.7]))
    model = reference_model()
    step, kept_args = _StepSolver.newton_step, []

    def spy(self, v, comps, r, kept=None):
        kept_args.append(kept)
        return step(self, v, comps, r, kept)

    monkeypatch.setattr(_StepSolver, "newton_step", spy)
    simulate_paths(smoothed_start(pinned_u0_1d(grid), Field.zeros(grid, "free_boundary"), cfg),
                   model, cfg, sample_prms(model, cfg.dt, cfg.n_steps, range(4)))
    assert len(kept_args) >= cfg.n_steps and all(k is None for k in kept_args)


@pytest.mark.parametrize("dim", [1, 2])
def test_singular_step_matrix_fails_its_row_only(dim, monkeypatch):
    # the band kernel (gttrf in 1D, gbtrf in 2D) returns an exactly zero
    # pivot in row 1's block at step 2: row 1 fails with its step and seed,
    # the other rows solve with the same factors and march on as they do
    # without it
    import plaplace_levy._lapack as lapack
    import plaplace_levy.scheme as scheme

    if dim == 1:
        grid = Grid(1, 16)
        cfg = SchemeConfig(p=3.0, dt=1 / 32, n_steps=6, flux=sine_flux([0.7]))
        u0 = pinned_u0_1d(grid)
        model = reference_model()
        paths = sample_prms(model, cfg.dt, cfg.n_steps, range(3))
    else:
        grid, u0, _, model, cfg, paths = _kept_factor_case()
        paths = paths[:3]
    hat0 = prepare_initial(u0, Field.zeros(grid, "free_boundary"), cfg.dt, cfg.p).flat
    args = (grid, np.array([hat0] * 3), model, cfg, paths, np.arange(3))
    states, errors = scheme._march(*args)
    assert errors == [None] * 3
    kernel = "dgttrf" if dim == 1 else "dgbtrf"
    real, newton, m = getattr(lapack, kernel), scheme._newton, grid.step_band.m
    calls, steps, injected = [], [], []

    def singular_at_step_2(*args, **kwargs):
        *factors, info = real(*args, **kwargs)
        calls.append(factors[1 if dim == 1 else 0].shape[-1] // m)  # rows factored
        if len(steps) == 3 and not injected:  # the third _newton call is step 2
            injected.append(len(calls))
            if dim == 1:
                factors[1][m + 1] = 0.0  # U's diagonal, in row 1's block
            else:
                factors[0][2 * grid.step_band.kl, m + 1] = 0.0
            info = m + 2
        return (*factors, info)

    monkeypatch.setattr(scheme, "_newton", lambda *a: steps.append(1) or newton(*a))
    monkeypatch.setattr(lapack, kernel, singular_at_step_2)
    out_states, out_errors = scheme._march(*args)
    assert calls[injected[0] - 1 : injected[0] + 1] == [3, 2]
    err = out_errors[1]
    assert isinstance(err, NonConvergence)
    assert (err.step, err.seed) == (2, paths[1].seed) and "no finite Newton step" in str(err)
    assert out_errors[0] is out_errors[2] is None
    assert np.array_equal(out_states[[0, 2]], states[[0, 2]])


@pytest.mark.parametrize("dim", [1, 2])
def test_two_singular_rows_fail_in_one_round_with_one_kernel_call(dim, monkeypatch):
    # the first factorization of 4 rows returns exactly zero pivots in rows
    # 1 and 3: both fail in that round, which makes no further kernel call,
    # and rows 0 and 2 (with their kept factors in 2D) end as they do alone
    import plaplace_levy._lapack as lapack
    from plaplace_levy.scheme import _newton

    grid = Grid(dim, 12 if dim == 1 else 6)
    solver = _StepSolver(grid, 3.0, 0.05, sine_flux([0.4, -0.3][:dim]))
    rng = np.random.default_rng(5)
    v = np.stack([zb(grid, rng).flat for _ in range(4)])
    rhs = 0.8 * v
    kernel = "dgttrf" if dim == 1 else "dgbtrf"
    real, (m, kl) = getattr(lapack, kernel), (grid.step_band.m, grid.step_band.kl)
    calls, per_round = [], []

    def singular_rows_1_and_3(*args, **kwargs):
        *factors, info = real(*args, **kwargs)
        if not calls:
            diag = factors[1] if dim == 1 else factors[0][2 * kl]  # U's diagonal
            diag[[m + 2, 3 * m + 1]] = 0.0
            info = m + 3
        calls.append(factors[1 if dim == 1 else 0].shape[-1] // m)  # rows factored
        return (*factors, info)

    step = _StepSolver.newton_step

    def count_calls(self, *args):
        before = len(calls)
        delta = step(self, *args)
        per_round.append(len(calls) - before)
        return delta

    monkeypatch.setattr(lapack, kernel, singular_rows_1_and_3)
    # one step: NaN for rows 1 and 3, and in 2D rows 0 and 2 keep their own
    # columns of the one factorization
    r, _, _, comps = solver.evaluate(v, rhs)
    kept = None if dim == 1 else [None] * 4
    delta = solver.newton_step(v, comps, r, kept)
    assert calls == [4]
    assert np.isnan(delta[[1, 3]]).all() and np.isfinite(delta[[0, 2]]).all()
    if dim == 2:
        assert kept[1] is kept[3] is None
        for i in (0, 2):
            assert np.array_equal(kept[i].solve(-r[i]), delta[i])
    calls.clear()
    monkeypatch.setattr(_StepSolver, "newton_step", count_calls)
    kept = None if dim == 1 else [None] * 4
    out, failures = _newton(solver, v.copy(), rhs, 1e-10, 50, kept)
    assert calls[0] == 4 and per_round[0] == 1 and max(per_round) == 1
    assert [i for i, _ in failures] == [1, 3]
    assert all("no finite Newton step" in str(err) for _, err in failures)
    monkeypatch.setattr(lapack, kernel, real)
    for i in (0, 2):
        alone, none = _newton(solver, v[i : i + 1].copy(), rhs[i : i + 1], 1e-10, 50,
                              None if dim == 1 else [None])
        assert none == [] and np.array_equal(out[i], alone[0])


def test_rows_without_a_finite_newton_step_fail_before_the_line_search(monkeypatch):
    # exact zero pivots in rows 1 and 3 of the first factorization: both rows
    # fail in that round with the singular-row message and take no line
    # search, so the batch makes the residual evaluations rows 0 and 2 make
    # without them (the start and 11 trials), not 40 halvings more
    import plaplace_levy._lapack as lapack
    from plaplace_levy.scheme import _newton

    grid = Grid(1, 12)
    solver = _StepSolver(grid, 3.0, 0.05, sine_flux([0.4]))
    rng = np.random.default_rng(5)
    v = np.stack([zb(grid, rng).flat for _ in range(4)])
    rhs = 0.8 * v
    real, m = lapack.dgttrf, grid.step_band.m
    injected = []

    def singular_rows_1_and_3(*args, **kwargs):
        *factors, info = real(*args, **kwargs)
        if not injected:
            injected.append(1)
            factors[1][[m + 2, 3 * m + 1]] = 0.0  # U's diagonal in rows 1 and 3
            info = m + 3
        return (*factors, info)

    evaluate, evaluations = _StepSolver.evaluate, []
    monkeypatch.setattr(_StepSolver, "evaluate", lambda self, x, b: evaluations.append(len(x))
                        or evaluate(self, x, b))
    alone, none = _newton(solver, v[[0, 2]].copy(), rhs[[0, 2]], 1e-10, 50)
    assert none == []
    n_alone = len(evaluations)
    evaluations.clear()
    monkeypatch.setattr(lapack, "dgttrf", singular_rows_1_and_3)
    out, failures = _newton(solver, v.copy(), rhs, 1e-10, 50)
    assert len(evaluations) == n_alone == 12
    assert [i for i, _ in failures] == [1, 3]
    for i, err in failures:
        residual = float(solver.evaluate(v[i : i + 1], rhs[i : i + 1])[1][0])
        assert str(err) == f"step solver found no finite Newton step at residual {residual:.3e}"
    assert np.array_equal(out[[0, 2]], alone)


def test_non_finite_row_fails_without_touching_its_neighbours():
    # a NaN in row 1's data would reach rows 0 and 2 through the batched band
    # solves (0 * NaN across block boundaries); they must converge as alone
    from plaplace_levy.scheme import _newton

    grid = Grid(1, 12)
    solver = _StepSolver(grid, 3.0, 0.05, sine_flux([0.4]))
    rng = np.random.default_rng(1)
    v = np.stack([zb(grid, rng).flat for _ in range(3)])
    rhs = 0.8 * v
    rhs[1, grid.interior_nodes[3]] = np.nan
    with np.errstate(invalid="ignore"):
        out, failures = _newton(solver, v.copy(), rhs, 1e-10, 50)
    assert [i for i, _ in failures] == [1] and "non-finite residual" in str(failures[0][1])
    for i in (0, 2):
        alone, none = _newton(solver, v[i : i + 1].copy(), rhs[i : i + 1], 1e-10, 50)
        assert none == [] and np.array_equal(out[i], alone[0])
