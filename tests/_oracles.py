"""Independent brute-force oracles shared by the unit and acceptance suites.

These implement the 1D step energy and its gradient from scratch (no package
internals) so that solver results can be checked against a genuinely
different computational path.
"""

import numpy as np
import scipy.sparse as sp


def oracle_energy(v, rhs, h, dt, p):
    g = np.diff(v) / h
    return 0.5 * h * np.sum((v - rhs) ** 2) + (dt / p) * h * np.sum(np.abs(g) ** p)


def oracle_gradient(v, rhs, h, dt, p):
    g = np.diff(v) / h
    phi = np.abs(g) ** (p - 2) * g
    grad = h * (v - rhs)
    grad[1:-1] += dt * (phi[:-1] - phi[1:])
    grad[0] = grad[-1] = 0.0  # boundary pinned
    return grad


def oracle_minimize(rhs, h, dt, p, gtol):
    """Gradient descent with Barzilai-Borwein step sizes, safeguarded by a
    non-monotone (last-10) energy reference; uses gradient information only."""
    v = np.zeros_like(rhs)
    g = oracle_gradient(v, rhs, h, dt, p)
    step = 1.0
    recent = [oracle_energy(v, rhs, h, dt, p)]
    for _ in range(50_000):
        gnorm = np.linalg.norm(g)
        if gnorm <= gtol:
            break
        e_ref = max(recent)
        for _ in range(60):
            v_try = v - step * g
            e_try = oracle_energy(v_try, rhs, h, dt, p)
            if e_try <= e_ref - 1e-4 * step * gnorm**2:
                break
            step *= 0.5
        g_new = oracle_gradient(v_try, rhs, h, dt, p)
        sv, sg = v_try - v, g_new - g
        v, g = v_try, g_new
        recent = (recent + [e_try])[-10:]
        denom = float(np.dot(sv, sg))
        step = float(np.dot(sv, sv)) / denom if denom > 0 else 1e-3
    return v


def parse_config_text(text):
    """A RunConfig from INI text, as `config.parse_config` reads a file."""
    import configparser

    from plaplace_levy.config import ConfigError, config_from_parser

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")
    return config_from_parser(parser)


def gradient(f):
    """Per-cell gradient of a Field, shape (n_cells_total, dim)."""
    return f.grid.cell_gradient(f.flat).T


def l2_inner(f, g):
    """Nodal inner product of two Fields over interior nodes, weight h^dim."""
    from plaplace_levy.grid import _check_same_grid

    _check_same_grid(f, g)
    idx = f.grid.interior_nodes
    return float(np.dot(f.flat[idx], g.flat[idx]) * f.grid.cell_weight)


def div_flux(grid, cell_flux):
    """Discrete divergence of a per-cell vector field (n_cells_total, dim),
    defined as the negative adjoint of `gradient`:

        l2_inner(div_flux(G), phi) == -sum_cells G . grad(phi) * h^dim

    for every zero-boundary phi, exactly.  Returns a zero-boundary Field."""
    from plaplace_levy import ZERO_BOUNDARY, Field

    acc = grid.cell_gradient_adjoint(np.asarray(cell_flux, dtype=float).T)
    # acc[i] = (1/h^dim) * d/dphi_i [ sum_cells G . grad(phi) h^dim ]; negate
    # and zero the boundary rows to land in the zero-boundary space
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = -acc[grid.interior_nodes]
    return Field(grid, vals.reshape(grid.node_shape), ZERO_BOUNDARY)


def grad_ops(grid):
    """Sparse matrices (one per axis) mapping nodal values to per-cell
    gradient components, built entry by entry: the reference for the
    package's cell gradient and band assembly.

    In 1D the cell value is the forward difference (f[i+1]-f[i])/h.  In 2D
    it is the gradient of the bilinear interpolant at the cell center,
    i.e. the mean of the two forward differences across the cell.
    """
    n, h = grid.n_cells, grid.h
    if grid.dim == 1:
        rows = np.repeat(np.arange(n), 2)
        cols = np.column_stack([np.arange(n), np.arange(1, n + 1)]).ravel()
        vals = np.tile([-1.0 / h, 1.0 / h], n)
        return (sp.csr_matrix((vals, (rows, cols)), shape=(n, n + 1)),)

    node = lambda i, j: i * (n + 1) + j
    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ci, cj = ci.ravel(), cj.ravel()
    cell = np.arange(n * n)
    c = 0.5 / h

    def build(plus_a, plus_b, minus_a, minus_b):
        rows = np.repeat(cell, 4)
        cols = np.column_stack([plus_a, plus_b, minus_a, minus_b]).ravel()
        vals = np.tile([c, c, -c, -c], n * n)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n * n, (n + 1) ** 2))

    gx = build(node(ci + 1, cj), node(ci + 1, cj + 1), node(ci, cj), node(ci, cj + 1))
    gy = build(node(ci, cj + 1), node(ci + 1, cj + 1), node(ci, cj), node(ci + 1, cj))
    return (gx, gy)


def saa_minimize_scipy(model, cfg, u0, spec, basis, n_paths, budget=200, base_seed=0,
                       restarts=3, simplex_scale=0.5):
    """The control search driven by scipy.optimize.minimize(method=
    "Nelder-Mead"), one candidate per objective call, each solved alone:
    the reference for the package's speculative batched search.  Each
    candidate's step solves start from the package's `affine_predictor`
    over the restart's dim + 1 lowest-J converged candidates so far (ties
    in call order), else from the incumbent's states, fixed at the start
    of each restart, after the initial simplex's dim + 1 calls and in
    SciPy's per-iteration callback."""
    import scipy.optimize

    from plaplace_levy import ControlParam, Ensemble, cost_J, sample_prms
    from plaplace_levy.control import affine_predictor
    from plaplace_levy.scheme import simulate_controls

    dim = len(basis)
    paths = sample_prms(model, cfg.dt, cfg.n_steps, range(base_seed, base_seed + n_paths))
    history = []
    state = {"best": np.inf, "coeffs": None, "evals": 0, "states": None, "kept": [],
             "predict": None, "calls": 0}

    def freeze(*_):
        state["predict"] = affine_predictor([(x, s) for _, x, s in state["kept"]], dim,
                                            state["states"])

    def objective(coeffs):
        state["evals"] += 1
        U = ControlParam(basis=basis, coeffs=coeffs).build()
        (run,) = simulate_controls(u0, U.flat[None], model, cfg, paths,
                                   state["predict"](np.array(coeffs)[None]))
        val = cost_J(run, U, spec, cfg.p)[0] if isinstance(run, Ensemble) else np.inf
        if np.isfinite(val):
            # the restart's dim + 1 lowest values, earlier calls first on ties
            state["kept"].append((val, np.array(coeffs), run.states.copy()))
            state["kept"].sort(key=lambda item: item[0])
            del state["kept"][dim + 1 :]
        if val < state["best"]:
            state["best"], state["coeffs"] = val, np.array(coeffs)
            state["states"] = run.states.copy()
        history.append(state["best"])
        state["calls"] += 1
        if state["calls"] == dim + 1:  # the initial simplex is done
            freeze()
        return val

    x0, scale = np.zeros(dim), simplex_scale
    for _ in range(restarts):
        remaining = budget - state["evals"]
        if remaining < dim + 1:
            break
        simplex = np.vstack([x0] + [x0 + scale * np.eye(dim)[j] for j in range(dim)])
        state["kept"] = []
        freeze()
        state["calls"] = 0
        scipy.optimize.minimize(objective, x0, method="Nelder-Mead", callback=freeze, options={
            "maxfev": remaining, "initial_simplex": simplex, "xatol": 1e-10, "fatol": 1e-12})
        x0, scale = state["coeffs"].copy(), scale * 0.3
    return history, state["evals"], state["best"], state["coeffs"]


def step_solve(u_prev, noise_inc, cfg, initial_guess=None):
    """One implicit step for u_next given u_prev and the noise increment,
    solved by the package's step engine (`_StepSolver` and `_newton`) on a
    one-row stack, from initial_guess (default u_prev) with the boundary
    held at u_prev's trace; raises the row's NonConvergence."""
    from plaplace_levy import ZERO_BOUNDARY, Field
    from plaplace_levy.scheme import _newton, _StepSolver

    grid = u_prev.grid
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    v = (u_prev if initial_guess is None else initial_guess).flat.copy()
    v[grid.boundary_nodes] = u_prev.flat[grid.boundary_nodes]
    rhs = u_prev.flat + noise_inc.flat
    v, failures = _newton(solver, v[None], rhs[None], cfg.newton_tol, cfg.newton_max_iters)
    if failures:
        raise failures[0][1]
    tag = u_prev.space_tag if v[0, grid.boundary_nodes].any() else ZERO_BOUNDARY
    return Field(grid, v[0].reshape(grid.node_shape), tag)


def field_rows(fields):
    """The nodal values of Fields, one row each (len(fields), n_nodes): the
    control rows `simulate_controls` takes."""
    return np.array([f.flat for f in fields])


def shared_ref(states, k):
    """One trajectory set (n_paths, n_steps + 1, n_nodes) as the ref of k
    control rows of `simulate_controls`, which takes one set per row."""
    return np.broadcast_to(states, (k, *states.shape))


def state_fields(ensemble, i=0):
    """The states of path i of an ensemble as Fields, one per time point."""
    from plaplace_levy import FREE_BOUNDARY, ZERO_BOUNDARY, Field

    grid, rows = ensemble.grid, ensemble.states[i]
    tag = FREE_BOUNDARY if rows[:, grid.boundary_nodes].any() else ZERO_BOUNDARY
    return [Field(grid, row.reshape(grid.node_shape), tag) for row in rows]


# The reductions below are those of the per-path code that preceded the
# stacked ensemble: a loop over paths, one (n_steps + 1, n_nodes) state array
# at a time.  The stacked code must add in the same order, so its results
# equal these bitwise.


def per_path_cost_sums(states, targets, psi, grid, dt):
    """cost_J's tracking and terminal means, path by path: each path's
    dt ||u(t_{k+1}) - u_tar(t_{k+1})||^2 summed in step order and added to a
    running total, then the payoffs of the terminal rows added in path
    order."""
    idx = grid.interior_nodes
    tracking = 0.0
    for path in states:
        gaps = np.take(path[1:] - targets, idx, axis=-1)  # contiguous rows, as dot sees them
        norms = np.sqrt(np.vecdot(gaps, gaps) * grid.cell_weight)
        tracking += sum((dt * norms**2).tolist())
    terminal = 0.0
    for score in psi(grid, np.array([path[-1] for path in states])).tolist():
        terminal += score
    return tracking / len(states), terminal / len(states)


def per_path_moments(states, grid, p, dt):
    """apriori_check's per-path statistics, path by path: squared L^2 norms
    (paths, n_steps + 1), the time-integrated gradient p-norm, the sum of
    squared increments and the exact interpolant gap, each summed in step
    order."""
    from plaplace_levy.grid import _l2_norms, _lp_grad_pows

    sq = np.empty(states.shape[:2])
    grad_int, incr_sq, gap = (np.empty(len(states)) for _ in range(3))
    for i, path in enumerate(states):
        sq[i] = _l2_norms(grid, path) ** 2
        grad_int[i] = dt * sum(_lp_grad_pows(grid, path, p)[1:].tolist())
        incr_sq[i] = sum((_l2_norms(grid, np.diff(path, axis=0)) ** 2).tolist())
        gap[i] = (dt / 3.0) * incr_sq[i]
    return sq, grad_int, incr_sq, gap


def aldous_measured(ensemble, probe, thetas, tau, iters):
    """aldous_scaling's measured means, window by window: one
    dual_norm_estimates ascent over each window's increments, as before the
    windows were stacked into one ascent."""
    from plaplace_levy.estimates import _series_at
    from plaplace_levy.grid import dual_norm_estimates

    dt = ensemble.config.dt
    series = ensemble.sums
    if probe == "T1":
        series = ensemble.states - ensemble.states[:, :1] - series
    alpha = 1.0 if probe == "T1" else 2.0
    measured = []
    for theta in thetas:
        inc = _series_at(series, tau + theta, dt) - _series_at(series, tau, dt)
        vals = dual_norm_estimates(ensemble.grid, inc, ensemble.config.p, iters=iters) ** alpha
        measured.append(float(np.mean(vals)))
    return measured


def martingale_sums(ensemble):
    """The running martingale sums of each path of an Ensemble, accumulated
    step by step: B(t_0) = 0 and, on the interior nodes,
    B(t_{k+1}) = B(t_k) + c f(u_k) (S_k - dt mark_mass), with u_k the path's
    state k and S_k the sum of 1 ^ |z| over step k's marks, added mark by
    mark."""
    model, cfg, grid = ensemble.model, ensemble.config, ensemble.grid
    kind, c = model.eta
    idx = grid.interior_nodes
    out = np.zeros_like(ensemble.states)
    for i, path in enumerate(ensemble.paths):
        marks = np.split(path.marks, np.cumsum(path.counts)[:-1])
        for k in range(cfg.n_steps):
            s = 0.0
            for z in marks[k].tolist():
                s += min(1.0, abs(z))
            u = ensemble.states[i, k, idx]
            f = np.sin(u) if kind == "sine" else u
            out[i, k + 1] = out[i, k]
            out[i, k + 1, idx] += c * f * (s - cfg.dt * model.mark_mass)
    return out
