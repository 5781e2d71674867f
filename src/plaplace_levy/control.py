"""Tracking cost for the jump-driven evolution and a sample-average
minimizer over a finite family of initial-value controls.

The cost of a control U on a path ensemble is

    J = mean_paths [ sum_k dt ||u(t_{k+1}) - u_tar(t_{k+1})||^2 ]
        + ||U||_{W^{1,p}}^p + mean_paths psi(u(T))

(right-endpoint rectangle rule in time, matching the step interpolant).
Candidates are compared under common random numbers on a fixed seed set,
and their step solves start from trajectories predicted from the search's
best solved candidates, so a computed J is deterministic in the
coefficients and the search history (within about 1e-9 relative of a cold
solve): the recorded best-so-far history is monotone and runs reproduce
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (FREE_BOUNDARY, Field, Grid, GridMismatchError, _l2_norms, _lp_grad_pows,
                   nodal_weights)
from .levy import LevyModel, sample_prms
from .scheme import CLAMP_BOUNDARY, Ensemble, SchemeConfig, prepare_initial, simulate_runs


def psi_zero() -> tuple:
    """psi = 0."""
    return ("zero", None)


def psi_l2(cap: float = None) -> tuple:
    """psi(v) = ||v||_{L^2}, or min(||v||_{L^2}, cap) with a cap; Lipschitz
    constant 1 either way."""
    return ("l2", None) if cap is None else ("l2_clip", float(cap))


@dataclass
class CostSpec:
    """Deterministic target profile (one field per scheme time point) and
    the terminal payoff psi, the pair (kind, cap) from `psi_zero` or
    `psi_l2`: 0, ||v||_{L^2} or min(||v||_{L^2}, cap), so psi is
    1-Lipschitz by construction."""

    u_tar: list
    psi: tuple  # (kind, cap)

    def payoff(self, grid: Grid, rows: np.ndarray) -> np.ndarray:
        """psi of each row of a stack of nodal vectors (M, n_nodes) on grid."""
        kind, cap = self.psi
        if kind == "zero":
            return np.zeros(len(rows))
        norms = _l2_norms(grid, rows)
        return norms if kind == "l2" else np.minimum(norms, cap)

    def validate(self, n_steps: int):
        """Check the target length and the payoff kind."""
        if len(self.u_tar) != n_steps + 1:
            raise ValueError(
                f"target profile has {len(self.u_tar)} entries, scheme needs {n_steps + 1}"
            )
        if self.psi[0] not in ("zero", "l2", "l2_clip"):
            raise ValueError(f"unknown psi kind {self.psi[0]!r}")
        return self


def constant_target(grid: Grid, n_steps: int, value_field: Field = None) -> list:
    f = value_field if value_field is not None else Field.zeros(grid)
    return [f] * (n_steps + 1)


def cost_J(ensembles: list, U: np.ndarray, spec: CostSpec, p: float) -> list:
    """Sample-average cost of each control row of U (k, n_nodes) over its
    ensemble of `ensembles`, k ensembles of one scheme configuration: one
    (total, parts) per row, parts = {tracking, control, terminal}, from one
    pass over their stacked states.  Each path's tracking sum runs in step
    order, the paths' sums and payoffs add in path order, and each row's
    W^{1,p} norm is finished on Python floats as `w1p_norm` does."""
    if len(ensembles) != len(U):
        raise ValueError("cost_J needs one ensemble per control row")
    if not all(len(run) for run in ensembles):
        raise ValueError("empty ensemble")
    cfg, grid = ensembles[0].config, ensembles[0].grid
    if len(spec.u_tar) != cfg.n_steps + 1:
        raise ValueError("target profile does not match the scheme time grid")
    if spec.u_tar[0].grid != grid:
        raise GridMismatchError("target profile lives on a different grid")
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    targets = np.array([f.flat for f in spec.u_tar[1:]]).reshape(cfg.n_steps, grid.n_nodes)
    states = np.concatenate([run.states for run in ensembles])
    # dt l2_norm(u(t_{k+1}) - u_tar(t_{k+1}))^2 per path and step
    sq = (cfg.dt * _l2_norms(grid, states[:, 1:] - targets) ** 2).tolist()
    scores = spec.payoff(grid, states[:, -1]).tolist()
    nodal = np.sum(np.abs(U) ** p * nodal_weights(grid), axis=-1).tolist()
    out, stop = [], 0
    for run, nodal_sum, grad in zip(ensembles, nodal, _lp_grad_pows(grid, U, p).tolist()):
        start, stop = stop, stop + len(run)
        tracking = terminal = 0.0
        for row in sq[start:stop]:
            tracking += sum(row)
        for score in scores[start:stop]:
            terminal += score
        control = ((nodal_sum + (grad ** (1.0 / p)) ** p) ** (1.0 / p)) ** p
        parts = {"tracking": tracking / len(run), "control": control,
                 "terminal": terminal / len(run)}
        out.append((parts["tracking"] + control + parts["terminal"], parts))
    return out


def check_basis(basis: list):
    """Reject a linearly dependent control basis: its Gram matrix, scaled
    to unit diagonal so that the test does not depend on the functions'
    scale, must have a determinant of at least 1e-12."""
    gram = np.array([[np.dot(a.flat, b.flat) for b in basis] for a in basis])
    scale = np.sqrt(np.diag(gram.reshape((len(basis),) * 2)))
    if not scale.all() or abs(np.linalg.det(gram / np.outer(scale, scale))) < 1e-12:
        raise ValueError("control basis is linearly dependent")


def control_rows(basis: list, points: np.ndarray) -> np.ndarray:
    """sum_j points[i, j] * basis[j] for each row i of points, as nodal rows
    (len(points), n_nodes), added term by term in basis order; a non-finite
    point raises ValueError before any arithmetic."""
    if not np.isfinite(points).all():
        raise ValueError("field values must be finite")
    rows = np.zeros((len(points), basis[0].grid.n_nodes))
    for j, phi in enumerate(basis):
        rows = rows + points[:, j, None] * phi.flat
    return rows


_MODES_2D = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))


def sine_modes(grid: Grid, size: int) -> list:
    """The mode indices of `sine_basis(grid, size)`, checked without
    building a field.  A mode of index n_cells vanishes at every node, so
    the indices stay below n_cells, where the modes are linearly
    independent."""
    n_modes = (grid.n_cells - 1 if grid.dim == 1
               else sum(max(mode) < grid.n_cells for mode in _MODES_2D))
    if not 1 <= size <= n_modes:
        raise ValueError(f"a sine basis on {grid.n_cells} cells in {grid.dim}D has 1 to "
                         f"{n_modes} modes, got {size}")
    return [(j,) for j in range(1, size + 1)] if grid.dim == 1 else _MODES_2D[:size]


def sine_basis(grid: Grid, size: int) -> list:
    """The `size` lowest sine modes (in 2D the first of six tensorized
    ones); smooth elements of the control space with zero trace, so
    boundary projection never distorts them."""
    return [Field.from_function(grid, lambda *x, m=m: math.prod(
                np.sin(j * np.pi * xd) for j, xd in zip(m, x)), FREE_BOUNDARY)
            for m in sine_modes(grid, size)]


@dataclass
class SAAResult:
    best_coeffs: np.ndarray
    best_J: float
    J_history: list
    n_paths: int
    common_seeds: list
    n_evaluations: int
    parts: dict


class _BudgetSpent(Exception):
    """A Nelder-Mead search asked for an evaluation past maxfev."""


def nelder_mead(evaluate, consume, simplex, maxfev: int, xatol: float,
                fatol: float, speculate: bool, begin=None) -> tuple:
    """Nelder-Mead simplex search, step for step the arithmetic and control
    flow of SciPy's minimize(method="Nelder-Mead") given an initial
    simplex, maxfev and xatol/fatol (reflection 1, expansion 2, contraction
    and shrink 1/2): an evaluation asked for past maxfev stops the search,
    even in the middle of a shrink.

    Evaluation is batched.  evaluate(points) solves for the objective at
    every row of points (k, N); consume(i) then gives the value at row i of
    the latest batch.  The initial simplex is one call and each shrink one
    call.  With speculate, each iteration is one call for all of its trial
    points (reflection, expansion, outside and inside contraction), of
    which the search consumes only the values SciPy's sequence uses, in
    that order; the other rows are discarded and not counted.  Without it,
    each trial point is evaluated alone when the sequence asks for it,
    which pays when a call's cost grows with its rows.  begin(), if given,
    is called before the initial simplex and before each iteration, so
    where an evaluation follows, it comes where SciPy's callback follows
    the initial simplex or an iteration.  Returns the final simplex (sim,
    fsim), sorted by value, and the number of values used."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    N = sim.shape[1]
    if sim.shape != (N + 1, N):
        raise ValueError("simplex must have shape (N + 1, N)")
    fsim = np.full(N + 1, np.inf)
    nfev = 0

    def take(i):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return consume(i)

    def tried(i):  # value of trial point i
        if speculate:
            return take(i)
        if nfev < maxfev:
            evaluate(trial[i][None])
        return take(0)

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    if begin is not None:
        begin()
    evaluate(sim[: min(N + 1, maxfev)])
    try:
        for k in range(N + 1):
            fsim[k] = take(k)
    except _BudgetSpent:
        pass
    # SciPy sorts twice here; argsort need not be stable, so keep both
    sim, fsim = order(*order(sim, fsim))
    while nfev < maxfev:
        if begin is not None:
            begin()
        try:
            with np.errstate(invalid="ignore"):  # inf - inf where candidates diverged
                done = (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol)
            if done:
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            trial = [
                (1 + rho) * xbar - rho * sim[-1],  # reflection
                (1 + rho * chi) * xbar - rho * chi * sim[-1],  # expansion
                (1 + psi * rho) * xbar - psi * rho * sim[-1],  # outside contraction
                (1 - psi) * xbar + psi * sim[-1],  # inside contraction
            ]
            if speculate:
                # one value left: only the reflection can be used
                evaluate(np.array(trial[: 1 if maxfev - nfev == 1 else 4]))
            fxr = tried(0)
            doshrink = False
            if fxr < fsim[0]:
                fxe = tried(1)
                if fxe < fxr:
                    sim[-1], fsim[-1] = trial[1], fxe
                else:
                    sim[-1], fsim[-1] = trial[0], fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = trial[0], fxr
            elif fxr < fsim[-1]:
                fxc = tried(2)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = trial[2], fxc
                else:
                    doshrink = True
            else:
                fxcc = tried(3)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = trial[3], fxcc
                else:
                    doshrink = True
            if doshrink:
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                if nfev < maxfev:
                    evaluate(shrunk[: maxfev - nfev])
                for j in range(1, N + 1):
                    sim[j] = shrunk[j - 1]
                    fsim[j] = take(j - 1)
        except _BudgetSpent:
            pass
        sim, fsim = order(sim, fsim)
    return sim, fsim, nfev


# Speculative trial evaluation (see `nelder_mead`) solves about twice the
# rows the search uses, in about half the calls.  It pays while a call's
# fixed cost dominates, that is while a candidate has few rows, so the
# search speculates up to this many nodal values per candidate
# (n_paths x nodes).  Measurements: ROADMAP item 11.
_SPECULATE_NODES = 200


def search_batches(n_paths: int, n_nodes: int, dim: int) -> tuple:
    """Whether `saa_minimize` speculates on n_paths paths of n_nodes grid
    nodes with dim basis functions, and the most candidates one batch then
    holds: the initial simplex, or a speculative iteration's 4 trials."""
    speculate = n_paths * n_nodes <= _SPECULATE_NODES
    return speculate, max(dim + 1, 4 if speculate else 1)


# The start predictor (`affine_predictor`) takes coordinates against its
# dim + 1 solved candidates only while their edge matrix
# [x_1 - x_0 ... x_dim - x_0] has a 1-norm condition number of at most this.
# That number measures the simplex's shape, not its width, so a simplex
# shrunk by the search still predicts; a nearly flat one falls back to the
# incumbent's states.
_PREDICT_COND = 1e8


def affine_predictor(kept: list, dim: int, incumbent: np.ndarray = None):
    """The starts of a batch of candidates, fixed from solved candidates.

    kept holds (coefficients, states) pairs of solved candidates, with
    states (n_paths, n_steps + 1, n_nodes).  Given dim + 1 of them, (x_0,
    s_0) first, whose edge matrix E = [x_1 - x_0 ... x_dim - x_0] passes
    _PREDICT_COND, the returned predict(points) gives, for each row x of
    points (k, dim), s_0 + sum_i mu_i (s_i - s_0) with E mu = x - x_0:
    exact where the states are affine in the coefficients, as a candidate's
    start is, however narrow the simplex, and computed row by row, so a
    row's start does not depend on the other rows.  Otherwise every row
    gets the incumbent's states (`np.broadcast_to`), or None without an
    incumbent.  The result is `simulate_runs`' ref."""
    if len(kept) == dim + 1:
        (x0, s0), rest = kept[0], kept[1:]
        edges = np.array([x - x0 for x, _ in rest]).T
        if np.linalg.cond(edges, 1) <= _PREDICT_COND:  # inf if singular, false for NaN
            inv, slopes = np.linalg.inv(edges), [s - s0 for _, s in rest]

            def predict(points):
                d = points - x0
                mu = sum(d[:, j, None] * inv[:, j] for j in range(dim))
                return sum((mu[:, i, None, None, None] * slopes[i] for i in range(dim)), s0)

            return predict
    if incumbent is None:
        return lambda points: None
    return lambda points: np.broadcast_to(incumbent, (len(points), *incumbent.shape))


def saa_minimize(model: LevyModel, cfg: SchemeConfig, u0: Field, spec: CostSpec,
                 basis: list, n_paths: int, budget: int = 200, base_seed: int = 0,
                 restarts: int = 3, initial_coeffs=None, simplex_scale: float = 0.5,
                 ) -> SAAResult:
    """Derivative-free simplex search over control coefficients with common
    random numbers and restarts from the incumbent with a shrinking simplex.

    The zero control is always evaluated, so best_J <= J(0).  A candidate
    whose path solve diverges scores +inf and the search continues, unless
    no candidate of the search's first solve call converges: then the
    NonConvergence of its first candidate, U = 0, is raised.

    The search is `nelder_mead`: it visits the candidates scipy's
    Nelder-Mead would, and solves each batch of candidates (x common seed)
    as one stack; only the candidates the search uses count toward
    n_evaluations and J_history and can become the incumbent.  Trial
    points are evaluated speculatively while a candidate has at most
    _SPECULATE_NODES nodal values (n_paths x grid nodes), one at a time
    above that.

    u0 is smoothed once per search (`prepare_initial`), which raises its
    NonConvergence before any candidate is solved.  A batch is handled as
    arrays from coefficients to J: `control_rows` builds it, the smoothed
    u0 plus its projected rows are its starts, one `simulate_runs` call
    solves it and one `cost_J` call costs its converged candidates; the
    basis is checked once per search.

    Each candidate's step solves start from a predicted trajectory set
    (`simulate_runs`' ref).  The search keeps copies of the states of
    the dim + 1 lowest-J converged candidates consumed so far in the
    current restart (ties in consumption order); at the start of each
    restart and of each Nelder-Mead iteration where that set has changed
    it fixes `affine_predictor` from them, which falls back to the
    incumbent's states while fewer are kept or their simplex is nearly
    flat, however narrow it is.  Until a candidate is solved, each one's
    ref is its start held over the n_steps + 1 times, so the first batch
    too is solved as whole trajectories where `simulate_runs` takes them.
    The rule reads only the consumed history, so speculative and
    one-at-a-time evaluation start alike.  J is deterministic in the
    coefficients and the search history, and within about 1e-9 relative of
    a cold solve.
    """
    dim = len(basis)
    if budget < dim + 1:
        raise ValueError("budget must cover at least one simplex (dim + 1 evaluations)")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if any(phi.grid != u0.grid for phi in basis):
        raise GridMismatchError("control basis lives on a different grid")
    check_basis(basis)
    seeds = [base_seed + i for i in range(n_paths)]
    spec.validate(cfg.n_steps)
    # common random numbers: each seed's jump path serves every candidate
    paths = sample_prms(model, cfg.dt, cfg.n_steps, seeds)
    speculate = search_batches(n_paths, u0.grid.n_nodes, dim)[0]
    smoothed = prepare_initial(u0, 0.0, cfg.dt, cfg.p)  # nodal values
    clamp = u0.grid.boundary_mask if cfg.control_projection == CLAMP_BOUNDARY else None

    history = []
    # states: the incumbent's solved states; kept: (J, coefficients, states)
    # of the restart's dim + 1 best converged candidates, lowest J first (the
    # states are copies, so no batch stays alive); predict: the starts of a
    # batch, fixed by freeze(), which rebuilds it only when stale, that is
    # when kept, and with it the incumbent, has changed
    state = {"best": np.inf, "coeffs": None, "evals": 0, "parts": None, "states": None,
             "kept": [], "predict": affine_predictor([], dim), "stale": False}
    batch = {}

    def freeze():
        if state["stale"]:
            kept = [(x, states) for _, x, states in state["kept"]]
            state["predict"], state["stale"] = affine_predictor(kept, dim, state["states"]), False

    def evaluate(points):
        """Solve and cost every candidate of a batch as one stack; the
        previous batch's solves are dropped first, so they are not held
        alongside."""
        batch.clear()
        rows = control_rows(basis, points)
        starts = smoothed + (rows if clamp is None else np.where(clamp, 0.0, rows))
        ref = state["predict"](points)
        if ref is None:  # nothing solved yet: each candidate's start, held constant
            ref = np.broadcast_to(starts[:, None, None], (len(rows), n_paths, cfg.n_steps + 1,
                                                          starts.shape[1]))
        runs = simulate_runs(u0.grid, starts, [paths] * len(rows), model, cfg, ref)
        good = [i for i, run in enumerate(runs) if isinstance(run, Ensemble)]
        if not good and not history:  # the search's first call, whose first candidate is U = 0
            raise runs[0]
        costs = cost_J([runs[i] for i in good], rows[good], spec, cfg.p) if good else []
        batch.update(points=points, runs=runs, costs=dict(zip(good, costs)))

    def consume(i) -> float:
        """J of candidate i of the batch; +inf if its path solve diverged."""
        state["evals"] += 1
        val, parts = batch["costs"].get(i, (np.inf, None))
        kept = state["kept"]
        if math.isfinite(val) and (len(kept) <= dim or val < kept[-1][0]):
            states = batch["runs"][i].states.copy()
            at = next((j for j, (v, *_) in enumerate(kept) if val < v), len(kept))
            kept.insert(at, (val, np.array(batch["points"][i]), states))
            del kept[dim + 1 :]
            state["stale"] = True
        if val < state["best"]:
            state["best"], state["coeffs"], state["parts"] = val, np.array(batch["points"][i]), parts
            state["states"] = kept[0][2]  # the restart's lowest J is the best
        history.append(state["best"])
        return val

    x0 = np.zeros(dim) if initial_coeffs is None else np.asarray(initial_coeffs, dtype=float)
    if np.any(x0 != 0.0):
        evaluate(np.zeros((1, dim)))  # anchor the zero-control candidate
        consume(0)
    scale = simplex_scale
    for _ in range(restarts):
        remaining = budget - state["evals"]
        if remaining < dim + 1:
            break
        state["kept"], state["stale"] = [], True
        simplex = np.vstack([x0] + [x0 + scale * np.eye(dim)[j] for j in range(dim)])
        nelder_mead(evaluate, consume, simplex, remaining, xatol=1e-10, fatol=1e-12,
                    speculate=speculate, begin=freeze)
        x0 = state["coeffs"].copy()
        scale *= 0.3
    return SAAResult(
        best_coeffs=state["coeffs"],
        best_J=float(state["best"]),
        J_history=history,
        n_paths=n_paths,
        common_seeds=seeds,
        n_evaluations=state["evals"],
        parts=state["parts"] or {},
    )
