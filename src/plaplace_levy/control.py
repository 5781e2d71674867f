"""Tracking cost for the jump-driven evolution and a sample-average
minimizer over a finite family of initial-value controls.

The cost of a control U on a path ensemble is

    J = mean_paths [ sum_k dt ||u(t_{k+1}) - u_tar(t_{k+1})||^2 ]
        + ||U||_{W^{1,p}}^p + mean_paths psi(u(T))

(right-endpoint rectangle rule in time, matching the step interpolant).
Candidates are compared under common random numbers on a fixed seed set,
and their step solves start from trajectories predicted from the search's
best solved candidates, so a computed J is deterministic in the
coefficients and the search history (within about 1e-10 relative of a cold
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
from .scheme import Ensemble, NonConvergence, SchemeConfig, simulate_controls


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


def cost_J(ensemble, U, spec: CostSpec, p: float):
    """Sample-average cost of a control U over its ensemble: (total, parts)
    with parts = {tracking, control, terminal}.  Given control rows U
    (k, n_nodes) and a list of k ensembles of one scheme configuration, one
    per row, it returns one (total, parts) per row from one pass over their
    stacked states; a Field is the one-row case.  Each path's tracking sum
    runs in step order, the paths' sums and payoffs add in path order, and
    each row's W^{1,p} norm is finished on Python floats as `w1p_norm` does."""
    if isinstance(U, Field):
        return cost_J([ensemble], U.flat[None], spec, p)[0]
    if len(ensemble) != len(U):
        raise ValueError("cost_J needs one ensemble per control row")
    if not all(len(run) for run in ensemble):
        raise ValueError("empty ensemble")
    cfg, grid = ensemble[0].config, ensemble[0].grid
    if len(spec.u_tar) != cfg.n_steps + 1:
        raise ValueError("target profile does not match the scheme time grid")
    if spec.u_tar[0].grid != grid:
        raise GridMismatchError("target profile lives on a different grid")
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    targets = np.array([f.flat for f in spec.u_tar[1:]]).reshape(cfg.n_steps, grid.n_nodes)
    states = np.concatenate([run.states for run in ensemble])
    # dt l2_norm(u(t_{k+1}) - u_tar(t_{k+1}))^2 per path and step
    sq = (cfg.dt * _l2_norms(grid, states[:, 1:] - targets) ** 2).tolist()
    scores = spec.payoff(grid, states[:, -1]).tolist()
    nodal = np.sum(np.abs(U) ** p * nodal_weights(grid), axis=-1).tolist()
    out, stop = [], 0
    for run, nodal_sum, grad in zip(ensemble, nodal, _lp_grad_pows(grid, U, p).tolist()):
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


@dataclass
class ControlParam:
    """Control U = sum_j coeffs[j] * basis[j] in a fixed free-boundary
    basis; the basis must pass `check_basis`."""

    basis: list
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.basis) != len(self.coeffs):
            raise ValueError("coefficient count must match basis size")
        check_basis(self.basis)

    def build(self) -> Field:
        grid = self.basis[0].grid
        vals = control_rows(self.basis, self.coeffs[None])
        return Field(grid, vals.reshape(grid.node_shape), FREE_BOUNDARY)


_MODES_2D = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))


def sine_basis(grid: Grid, size: int) -> list:
    """The `size` lowest sine modes (in 2D the first of six tensorized
    ones); smooth elements of the control space with zero trace, so
    boundary projection never distorts them.  A mode of index n_cells
    vanishes at every node, so the indices stay below n_cells, where the
    modes are linearly independent."""
    n_modes = (grid.n_cells - 1 if grid.dim == 1
               else sum(max(mode) < grid.n_cells for mode in _MODES_2D))
    if not 1 <= size <= n_modes:
        raise ValueError(f"a sine basis on {grid.n_cells} cells in {grid.dim}D has 1 to "
                         f"{n_modes} modes, got {size}")
    modes = [(j,) for j in range(1, size + 1)] if grid.dim == 1 else _MODES_2D[:size]
    return [Field.from_function(grid, lambda *x, m=m: math.prod(
                np.sin(j * np.pi * xd) for j, xd in zip(m, x)), FREE_BOUNDARY)
            for m in modes]


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
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
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


# The start predictor (`affine_predictor`) takes barycentric coordinates
# against its dim + 1 solved candidates only while their affine matrix
# [1 ... 1; x_0 ... x_dim] has a 1-norm condition number of at most this;
# a flatter or smaller set (a simplex shrunk to near the rounding of its
# coefficients) falls back to the incumbent's states.
_PREDICT_COND = 1e8


def affine_predictor(kept: list, dim: int, incumbent: np.ndarray = None):
    """The starts of a batch of candidates, fixed from solved candidates.

    kept holds (coefficients, states) pairs of solved candidates, with
    states (n_paths, n_steps + 1, n_nodes).  Given dim + 1 of them whose
    affine matrix passes _PREDICT_COND, the returned predict(points) gives,
    for each row x of points (k, dim), sum_i lam_i states_i, where lam are
    x's barycentric coordinates against the kept coefficients
    (sum_i lam_i = 1, sum_i lam_i x_i = x): exact where the states are
    affine in the coefficients, as a candidate's start is, and computed
    row by row, so a row's start does not depend on the other rows.
    Otherwise every row gets the incumbent's states (`np.broadcast_to`), or
    None without an incumbent.  The result is `simulate_controls`' ref."""
    if len(kept) == dim + 1:
        affine = np.vstack([np.ones(dim + 1), np.array([x for x, _ in kept]).T])
        try:
            inv = np.linalg.inv(affine)
        except np.linalg.LinAlgError:  # exactly singular
            inv = np.full_like(affine, np.inf)
        cond = np.abs(affine).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
        if cond <= _PREDICT_COND:  # false for NaN
            states = [s for _, s in kept]

            def predict(points):
                lam = np.broadcast_to(inv[:, 0], (len(points), dim + 1))
                for j in range(dim):
                    lam = lam + points[:, j, None] * inv[:, j + 1]
                ref = lam[:, 0, None, None, None] * states[0]
                for i in range(1, dim + 1):
                    ref = ref + lam[:, i, None, None, None] * states[i]
                return ref

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
    whose path solve diverges scores +inf and the search continues.

    The search is `nelder_mead`: it visits the candidates scipy's
    Nelder-Mead would, and solves each batch of candidates (x common seed)
    as one stack; only the candidates the search uses count toward
    n_evaluations and J_history and can become the incumbent.  Trial
    points are evaluated speculatively while a candidate has at most
    _SPECULATE_NODES nodal values (n_paths x grid nodes), one at a time
    above that.

    A batch is handled as arrays from coefficients to J: `control_rows`
    builds it, one `simulate_controls` call solves it and one `cost_J` call
    costs its converged candidates; the basis is checked once per search.

    Each candidate's step solves start from a predicted trajectory set
    (`simulate_controls`' ref).  The search keeps copies of the states of
    the dim + 1 lowest-J converged candidates consumed so far in the
    current restart (ties in consumption order); at the start of each
    restart and of each Nelder-Mead iteration it fixes `affine_predictor`
    from them, which falls back to the incumbent's states while fewer are
    kept or they are too flat.  The rule reads only the consumed history,
    so speculative and one-at-a-time evaluation start alike.  J is
    deterministic in the coefficients and the search history, and within
    about 1e-10 relative of a cold solve.
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

    history = []
    # states: the incumbent's solved states; kept: (J, coefficients, states)
    # of the restart's dim + 1 best converged candidates, lowest J first (the
    # states are copies, so no batch stays alive); predict: the starts of a
    # batch, fixed by freeze()
    state = {"best": np.inf, "coeffs": None, "evals": 0, "parts": None, "states": None,
             "kept": [], "predict": affine_predictor([], dim)}
    batch = {}

    def freeze():
        kept = [(x, states) for _, x, states in state["kept"]]
        state["predict"] = affine_predictor(kept, dim, state["states"])

    def evaluate(points):
        """Solve and cost every candidate of a batch as one stack; the
        previous batch's solves are dropped first, so they are not held
        alongside."""
        batch.clear()
        rows = control_rows(basis, points)
        try:
            runs = simulate_controls(u0, rows, model, cfg, paths, state["predict"](points))
        except NonConvergence:  # the initial smoothing, shared by every candidate
            runs = [None] * len(rows)
        good = [i for i, run in enumerate(runs) if isinstance(run, Ensemble)]
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
        state["kept"] = []
        simplex = np.vstack([x0] + [x0 + scale * np.eye(dim)[j] for j in range(dim)])
        nelder_mead(evaluate, consume, simplex, remaining, xatol=1e-10, fatol=1e-12,
                    speculate=speculate, begin=freeze)
        if state["coeffs"] is None:
            raise NonConvergence(
                "every control candidate diverged in the step solver"
            )
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
