"""Implicit Euler time stepping for the degenerate diffusion

    du - div( |grad u|^(p-2) grad u + f(u) ) dt = compensated jump noise

with p > 2 and zero Dirichlet boundary.  Each step solves the nonlinear
nodal system

    (u - rhs, phi)_h + dt * [ <|grad u|^(p-2) grad u, grad phi>_h
                              + Conv(u; phi) ] = 0   for all test phi,

where rhs = previous state + noise increment, <.,.>_h is the per-cell
quadrature, and Conv is the conservative convection form built from divided
differences of the flux antiderivative (so Conv(u; u) telescopes to zero).

The solver is damped Newton with an Armijo line search on the convex step
energy when the convection flux vanishes, a residual-norm line search
otherwise, and a frozen-coefficient (Picard) rescue step on stagnation.
Residuals are measured as the L^2 norm of their nodal Riesz representer.
Both linearizations are assembled from per-cell and per-edge local blocks,
scattered through the grid's fixed table straight into LAPACK band storage
and factored and solved by `BandLU`: LAPACK's tridiagonal gttrf and gttrs
in 1D, its general band gbtrf and gbtrs in 2D and on 1D grids of 2-3 cells;
one code path serves both, and reads a singular row from its zero pivots.
A 2D march keeps each row's factors across rounds and steps while they
contract (`_LAG_CUT`); 1D factors afresh every round.

Paths march step by step, each step solving one row per distinct jump
history: a step sees a path only through its start and its step sums, so
paths that share both through step k share their states bitwise, and at low
jump rates most paths of a batch do (`_march`).  Given a reference
trajectory per row and few rows, the steps of a path are instead solved all
at once, as one Newton system over the whole trajectory (`_trajectories`):
its Jacobian is block lower-bidiagonal, the step Newton matrices on the
diagonal and the diagonal -d(residual_k)/d(u_{k-1}) below it, and a Newton
step is one factorization of all diagonal blocks and a forward sweep of
block solves.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import BandLU
from .grid import (
    ZERO_BOUNDARY,
    Field,
    Grid,
    l2_norm,
    lp_grad_norm,
    _embed_interior,
    _l2_norms,
    _lp_grad_pows,
)
from .levy import LevyModel, compensated_increments

CLAMP_BOUNDARY = "clamp_boundary"
LIFT_BOUNDARY = "lift_boundary"


class NonConvergence(RuntimeError):
    """Nonlinear step solver exhausted its iteration budget."""

    def __init__(self, message, residual=None, step=None, seed=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.seed = seed


@dataclass(frozen=True)
class FluxModel:
    """Convection flux f_d(u) = a_d g(u) along axis d, with coefs = (a_d)
    and g(u) = u (kind `linear`) or sin u (kind `sine`); its componentwise
    antiderivative is F_d = a_d G with G(u) = u^2 / 2 or 1 - cos u.  So
    f(0) = 0 and the Lipschitz constant c_f = max |a_d| hold by
    construction (assumption A2)."""

    kind: str
    coefs: tuple

    @property
    def c_f(self) -> float:
        return float(np.max(np.abs(self.coefs)))

    @cached_property  # read on every Newton trial
    def is_zero(self) -> bool:
        return self.c_f == 0.0

    def g(self, u: np.ndarray) -> np.ndarray:
        """The shape g(u) of every flux component."""
        return u if self.kind == "linear" else np.sin(u)

    def G(self, u: np.ndarray) -> np.ndarray:
        """The antiderivative of g with G(0) = 0."""
        return 0.5 * u**2 if self.kind == "linear" else 1.0 - np.cos(u)

    def validate(self):
        """Reject an unknown kind and a non-finite coefficient (A2)."""
        if self.kind not in ("linear", "sine"):
            raise ValueError(f"unknown flux kind {self.kind!r}")
        if not np.isfinite(self.c_f):
            raise ValueError("A2 violated: flux Lipschitz constant must be finite")
        return self


def zero_flux(dim: int) -> FluxModel:
    return FluxModel("linear", (0.0,) * dim)


def linear_flux(coefs) -> FluxModel:
    """f_d(u) = a_d * u (globally Lipschitz, F_d = a_d u^2 / 2)."""
    return FluxModel("linear", tuple(float(c) for c in np.atleast_1d(coefs)))


def sine_flux(coefs) -> FluxModel:
    """f_d(u) = a_d * sin(u), F_d(u) = a_d (1 - cos u)."""
    return FluxModel("sine", tuple(float(c) for c in np.atleast_1d(coefs)))


@dataclass(frozen=True)
class SchemeConfig:
    """Time discretization: p > 2, step dt, horizon T = n_steps * dt."""

    p: float
    dt: float
    n_steps: int
    flux: FluxModel
    newton_tol: float = 1e-10
    newton_max_iters: int = 50
    control_projection: str = CLAMP_BOUNDARY

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError(f"p must satisfy p > 2, got {self.p!r}")
        for name, value in (("dt", self.dt), ("newton_tol", self.newton_tol)):
            if not 0 < value < np.inf:  # false for NaN
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name, value in (("n_steps", self.n_steps), ("newton_max_iters", self.newton_max_iters)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps!r}")
        if self.newton_max_iters < 1:
            raise ValueError(f"newton_max_iters must be >= 1, got {self.newton_max_iters!r}")
        if self.control_projection not in (CLAMP_BOUNDARY, LIFT_BOUNDARY):
            raise ValueError(f"unknown control_projection {self.control_projection!r}")

    @property
    def T(self) -> float:
        return self.dt * self.n_steps


# ---------------------------------------------------------------------------
# per-step nonlinear solve


# Below this gap the divided differences switch to their end-value-mean
# limits, whose error is about |f''| gap^2 / 12.  The quotient's rounding
# error is about eps |F| / gap, and F can itself carry an absolute rounding
# error of eps (sine flux: 1 - cos u near u = 0).  At the former 1e-9, one
# edge with a gap of 2e-9 put a noise floor of 1e-9 on the residual norm of
# a 2D n=32 step, above newton_tol, and the step stagnated; at 1e-6 that
# floor is about 1e-12.
_NEAR_GAP = 1e-6

# The Newton matrix takes its p-flux coefficients at |g|^2 + _JACOBIAN_REG^2,
# so cells with a vanishing gradient keep an invertible system.
_JACOBIAN_REG = 1e-8


def _edge_quotients(grid: Grid, flux: FluxModel, v: np.ndarray,
                    slopes: bool = False) -> np.ndarray:
    """Divided differences q = (F_d(b) - F_d(a)) / (b - a) of the flux
    antiderivative over the convection edges a -> b along axis d
    (`Grid.conv_edges` order), shape (n_edges,) for a nodal vector v or
    (M, n_edges) for a stack of them.  With `slopes`, instead the chord
    derivatives dq/da = (q - f_d(a)) / (b - a) and
    dq/db = (f_d(b) - q) / (b - a), stacked as (..., 2, n_edges).  Gaps below
    _NEAR_GAP take the limits q = f_d(mid), dq/da = dq/db = f_d'(mid) / 2,
    evaluated as end-value means (f_d' by central difference).  G and g are
    evaluated once per node for all axes; each edge scales them by the
    coefficient a_d of its axis."""
    coef = np.array(flux.coefs)[grid.conv_edges[1]]  # a_d of each edge
    ends = grid.take("edges", v)
    a, b = ends[..., 0, :], ends[..., 1, :]
    gap = b - a
    near = np.abs(gap) < _NEAR_GAP
    div = np.where(near, 1.0, gap)
    F = coef * grid.take("edges", flux.G(v))
    q = (F[..., 1, :] - F[..., 0, :]) / div
    if slopes:
        f = coef * grid.take("edges", flux.g(v))
        out = np.stack([q - f[..., 0, :], f[..., 1, :] - q], axis=-2) / div[..., None, :]
    if near.any():
        # the few near edges evaluate g at their own end values only (and
        # f_d' by central difference): one call of g for all of them
        x = np.concatenate([a[near], b[near]])
        if slopes:
            x = np.concatenate([x, x + 1e-6, x - 1e-6])
        k = np.count_nonzero(near)
        f_x = np.tile(np.broadcast_to(coef, near.shape)[near], x.size // k) * flux.g(x)
        q[near] = 0.5 * (f_x[:k] + f_x[k : 2 * k])
        if slopes:
            df = (f_x[2 * k : 4 * k] - f_x[4 * k :]) / 2e-6
            out[..., 0, :][near] = out[..., 1, :][near] = 0.25 * (df[:k] + df[k:])
    return out if slopes else q


def _conv_residual(grid: Grid, flux: FluxModel, v: np.ndarray) -> np.ndarray:
    """Nodal functional of the conservative convection form
    sum_e w_e q_e(v) (phi[b] - phi[a]) of a nodal vector v or of each row of
    a stack; exact on interior rows (edges with both ends on the boundary
    are left out)."""
    wq = grid.conv_edges[2] * _edge_quotients(grid, flux, v)
    return grid.scatter_nodes("edges", np.stack([-wq, wq], axis=-2))


class _StepSolver:
    """Residual and linearizations of one implicit step for a stack of M
    paths, held as nodal arrays (M, n_nodes); unknowns are the interior
    nodes, boundary values stay fixed.  Every operation acts row by row.

    Residual and energy come from one gradient pass per iterate, and the
    Newton matrix reuses that gradient.  The Newton and frozen-coefficient
    matrices of the rows that need them are assembled as the diagonal
    blocks of one band matrix, through the grid's fixed scatter
    (`Grid.step_band`), factored by one `BandLU` (gttrf for the tridiagonal
    1D blocks of at least 3 unknowns, gbtrf otherwise) and solved by one
    call of its kernel's solve, in 1D and 2D alike.  A row holding kept
    factors (2D march) solves with them instead, one gbtrs call per row.
    """

    def __init__(self, grid: Grid, p: float, dt: float, flux: FluxModel):
        self.grid = grid
        self.p = p
        self.dt = dt
        self.flux = flux
        self.wc = grid.cell_weight

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, v: np.ndarray, rhs: np.ndarray) -> tuple:
        """Per row of v, rhs (M, n_nodes), which agree on the boundary: the
        interior residual (M, m), its norm (M,), the convex step energy (M,)
        (None unless the convection flux is zero, where it is the descent
        merit), and the cell gradient of v (M, dim, n_cells_total) for the
        Newton matrix at the same iterate.  A row that overflows (a trial far
        out, a large p) gets an inf or NaN norm, which every caller takes as
        not converged, so numpy does not warn of it."""
        grid, p, dt, wc = self.grid, self.p, self.dt, self.wc
        comps = grid.cell_gradient(v)
        sq = (comps * comps).sum(axis=-2)
        coef = sq ** ((p - 2.0) / 2.0)  # |g|^(p-2), so coef * g is the p-flux
        diff = v - rhs
        r = wc * diff + (dt * wc) * grid.cell_gradient_adjoint(coef[:, None, :] * comps)
        energy = None
        if self.flux.is_zero:
            # 1/2 |v - rhs|^2 wc + dt/p sum |g|^p wc; diff vanishes on the
            # boundary, where v keeps the values of rhs
            energy = (0.5 * wc) * np.vecdot(diff, diff) + (dt / p * wc) * np.vecdot(coef, sq)
        else:
            r += dt * _conv_residual(grid, self.flux, v)
        r_int = grid.take("interior", r)
        # L^2 norm of the nodal Riesz representer r_int / wc
        return r_int, np.sqrt(np.vecdot(r_int, r_int) / wc), energy, comps

    def newton_step(self, v: np.ndarray, comps: np.ndarray, r_int: np.ndarray,
                    kept: list = None) -> np.ndarray:
        """Solve J(v) delta = -r row by row for the interior increments; comps
        is the cell gradient of v from `evaluate`.  A row whose Newton matrix
        is singular gets a NaN delta.  kept, if given, holds per row None or
        the `BandLU` factors of an earlier Newton matrix of that row:
        a row holding factors solves with them (a lagged round), the others
        factor their own, and kept[i] becomes the factors row i used."""
        delta, fresh = -r_int, np.arange(len(v))
        if kept is not None:
            held = np.array([f is not None for f in kept], dtype=bool)
            for i in fresh[held].tolist():
                delta[i] = kept[i].solve(delta[i], overwrite=True)
            fresh = fresh[~held]
        if fresh.size:
            # all rows fresh: work on the full arrays, no gather or scatter
            rows = slice(None) if fresh.size == len(v) else fresh
            lu, ok = self.newton_factors(v[rows], comps[rows])
            b = delta[rows]
            if ok is not None:
                b[~ok] = 0.0  # a singular row solves to zeros, which reach no other row
            delta[rows] = lu.solve(b.ravel(), overwrite=True).reshape(b.shape)
            if ok is not None:
                delta[fresh[~ok]] = np.nan
            m = self.grid.step_band.m
            for j, i in enumerate(fresh.tolist() if kept is not None else ()):
                if ok is None or ok[j]:
                    kept[i] = lu.cols(j * m, (j + 1) * m)  # row i's columns, own pivots
        return delta

    def newton_factors(self, v: np.ndarray, comps: np.ndarray) -> tuple:
        """`BandLU` factors of the Newton matrices of rows v (..., A,
        n_nodes), with comps from `evaluate`; the blocks are step-major when
        a step axis leads.  Also returns None, or, if some row's block is
        singular, the mask (A,) of the other rows, read from the zero pivots
        of the one factorization by `BandLU.singular_blocks`."""
        band = self.grid.step_band
        ab = self._band_matrix(v.reshape(-1, v.shape[-1]), comps.reshape(-1, *comps.shape[-2:]),
                               newton=True)
        lu = BandLU(ab, band.kl, band.m, overwrite=True)
        if lu.info <= 0:
            return lu, None
        return lu, ~lu.singular_blocks(band.m).reshape(-1, v.shape[-2]).any(axis=0)

    def picard_solve(self, v: np.ndarray, comps: np.ndarray, b_int: np.ndarray) -> np.ndarray:
        """Solve the frozen-coefficient linearizations A(v) w = b row by row.
        A(v) is symmetric positive definite, so it meets no zero pivot."""
        band = self.grid.step_band
        lu = BandLU(self._band_matrix(v, comps, newton=False), band.kl, band.m, overwrite=True)
        return lu.solve(b_int.ravel()).reshape(b_int.shape)

    def _band_matrix(self, v: np.ndarray, comps: np.ndarray, newton: bool) -> np.ndarray:
        """wc I + dt sum_cells wc G^T (c0 I + c1 g g^T) G (+ dt times the
        convection derivative) on the interior unknowns of each row, as the
        diagonal blocks of one band array (ldab, M m) in gbtrf storage.
        c0 = s^((p-2)/2) and c1 = (p-2) c0 / s with s = |g|^2 + _JACOBIAN_REG^2
        give the regularized Newton matrix; the frozen-coefficient matrix has
        c1 = 0 and no convection term."""
        grid, p, band = self.grid, self.p, self.grid.step_band
        g = comps.transpose(1, 0, 2).reshape(grid.dim, -1)  # all rows' cells side by side
        s = (g * g).sum(axis=0) + _JACOBIAN_REG**2
        c0 = s ** ((p - 2.0) / 2.0)
        # per-cell blocks G^T (c0 I + c1 g g^T) G = [c0, c1 g_d g_e] @ local_block_basis
        coef = np.empty((1 + grid.dim**2, s.size))
        coef[0] = c0
        if newton:
            c1g = ((p - 2.0) * c0 / s) * g
            coef[1:] = (g[:, None, :] * c1g[None, :, :]).reshape(grid.dim**2, -1)
        else:
            coef[1:] = 0.0
        blocks = (coef.T @ grid.local_block_basis).reshape(len(v), -1)
        vals = (self.dt * self.wc) * blocks.take(band.cell_take, axis=-1)
        if newton and not self.flux.is_zero:
            slopes = _edge_quotients(grid, self.flux, v, slopes=True)
            dq = slopes.reshape(len(v), -1).take(band.edge_take, axis=-1)
            vals = np.concatenate([vals, (self.dt * band.edge_scale) * dq], axis=1)
        return band.assemble(vals, self.wc)


# A row keeps the factors of a Newton matrix while the round taken with them
# cuts its residual norm at least this much: the simplified Newton iteration
# of stiff integrators (Hairer & Wanner, Solving ODEs II, IV.8).  On
# perfbench's simulate-2d config, cuts 0.02/0.05/0.1/0.2 take 97/71/64/49 row
# factorizations and 345/352/390/471 row residual evaluations, and 0.05 to
# 0.2 time alike within 3%; the smaller cut keeps closer to full Newton.
_LAG_CUT = 0.05


def _newton(solver: _StepSolver, v: np.ndarray, rhs: np.ndarray,
            tol: float, max_iters: int, kept: list = None) -> tuple:
    """Damped Newton on each row of v (M, n_nodes): an Armijo line search on
    the step energy (zero flux) or on the residual norm, and a
    frozen-coefficient rescue where 40 halvings fail.  Rows run under
    active masks with their own step lengths and rescues, so a row's
    iterates do not depend on the other rows.  Returns the final rows and
    the (row, NonConvergence) pairs of the rows that failed, in row order;
    a failed row stops iterating.  A row without a finite Newton step (a
    singular Newton matrix) fails at once, before the line search.

    kept (2D march), updated in place, holds per row None or the factors of
    an earlier Newton matrix of that row, which a round then uses instead
    of fresh ones.  A row keeps the factors a round used only if that round
    cut its residual norm by _LAG_CUT; one that stalls on kept factors, or
    gets no finite step from them, retries with fresh ones instead of
    taking the rescue.  Lagged rounds count against max_iters.  1D passes
    no kept: a tridiagonal factorization costs less than a residual
    evaluation."""
    state = [v, *solver.evaluate(v, rhs)]  # v, r, rnorm, energy, comps
    live = np.ones(len(v), dtype=bool)
    failures = []

    def fail(rows, message):
        for i in rows:
            rn = float(state[2][i])
            failures.append((i, NonConvergence(message.format(rn), residual=rn)))
        live[rows] = False

    # a non-finite residual would spill into the neighbouring rows' blocks of
    # the batched band solves (0 * NaN), so its row fails before any solve
    finite = np.isfinite(state[2])
    if not finite.all():
        fail(np.flatnonzero(~finite), "step solver met a non-finite residual {:.3e}")
    for _ in range(max_iters):
        act = ~(state[2] <= tol)  # a NaN residual is not converged
        if failures:
            act &= live
        n_act = np.count_nonzero(act)
        if n_act == 0:
            break
        # all rows active: work on the full arrays, no gather or scatter
        at = np.flatnonzero(act)
        rows = None if n_act == len(act) else at
        cur = state if rows is None else _take(state, rows)
        b = rhs if rows is None else rhs[rows]
        if kept is None:
            delta = solver.newton_step(cur[0], cur[4], cur[1])
        else:
            lu = [kept[i] for i in at]
            lagged = np.array([f is not None for f in lu])
            delta = solver.newton_step(cur[0], cur[4], cur[1], lu)
        finite = np.isfinite(delta).all(axis=1)
        if not finite.all():
            # a row without a finite Newton step would stall through every
            # halving: it fails now, or, on kept factors, refactors next round
            fail(at[~finite if kept is None else ~finite & ~lagged],
                 "step solver found no finite Newton step at residual {:.3e}")
            if kept is not None:
                for i in at[~finite].tolist():
                    kept[i] = None
                lu, lagged = [f for f, ok in zip(lu, finite) if ok], lagged[finite]
            at = rows = at[finite]
            if not at.size:
                continue
            cur, b, delta = _take(cur, finite), b[finite], delta[finite]
        if kept is not None:
            rn0 = cur[2].copy()
        cur, stuck = _line_search(solver, cur, b, tol, delta)
        if kept is not None:
            cut = cur[2] <= _LAG_CUT * rn0  # false for a stalled row
            for j, i in enumerate(at.tolist()):
                kept[i] = lu[j] if cut[j] else None
            stuck = stuck[~lagged[stuck]]
        if stuck.size:
            # frozen-coefficient rescue: SPD approximation of the Jacobian
            # applied to the exact residual (increment form, so fixed
            # boundary values are respected)
            v_s, r_s, rn_s, _, g_s = _take(cur, stuck)
            v_new = v_s + _embed_interior(solver.grid, solver.picard_solve(v_s, g_s, -r_s))
            trial = [v_new, *solver.evaluate(v_new, b[stuck])]
            better = trial[2] < rn_s
            _put(cur, stuck[better], trial, better)
            stuck = stuck[~better]
        if rows is None:
            state = cur
        else:
            _put(state, rows, cur, slice(None))
            stuck = rows[stuck]
        if stuck.size:
            fail(stuck, "step solver stagnated at residual {:.3e}")
    else:
        fail(np.flatnonzero(live & ~(state[2] <= tol)),
             f"step solver exhausted {max_iters} iterations at residual {{:.3e}}")
    failures.sort(key=lambda f: f[0])
    return state[0], failures


def _line_search(solver: _StepSolver, cur: list, rhs: np.ndarray, tol: float,
                 delta: np.ndarray) -> tuple:
    """One step along the interior directions delta with backtracking for
    the rows of cur = [v, r, rnorm, energy, comps]: alpha = 1, 1/2, ...
    while a row's merit does not drop enough.  Returns the updated rows and
    the indices of the rows that exhausted 40 halvings."""
    use_energy = solver.flux.is_zero
    v, r, rnorm, energy, comps = cur
    slope = np.vecdot(r, delta) if use_energy else None
    delta = _embed_interior(solver.grid, delta)
    pend = None  # rows still backtracking; None while that is all of them
    alpha = 1.0
    for _ in range(40):
        sub = slice(None) if pend is None else pend
        v_try = v[sub] + alpha * delta[sub]
        trial = [v_try, *solver.evaluate(v_try, rhs[sub])]
        if use_energy:
            ok = trial[3] <= energy[sub] + 1e-4 * alpha * slope[sub]
        else:
            ok = trial[2] <= (1.0 - 1e-4 * alpha) * rnorm[sub]
        if pend is None:
            if ok.all():
                return trial, _NO_ROWS
            pend = np.arange(len(v))
        ok |= trial[2] <= tol
        _put(cur, pend[ok], trial, ok)
        pend = pend[~ok]
        if pend.size == 0:
            break
        alpha *= 0.5
    return cur, pend


_NO_ROWS = np.empty(0, dtype=int)


def _take(state: list, rows) -> list:
    return [None if x is None else x[rows] for x in state]


def _put(state: list, rows, src: list, sel):
    """state[j][rows] = src[j][sel] for every array of the state."""
    for dst, x in zip(state, src):
        if dst is not None:
            dst[rows] = x[sel]


# ---------------------------------------------------------------------------
# initial smoothing and path simulation


# The smoothing's Newton tolerance and iteration budget.
_SMOOTHING_TOL = 1e-12
_SMOOTHING_ITERS = 60


def initial_smoothings(data: list, dt: float, p: float) -> list:
    """Smooth each Field u0 of `data` (all on one grid) into the
    zero-boundary space by the proximal problem

        minimize  1/2 ||v - u0||^2 + dt * ||grad v||_p^p,

    every datum a row of one batched `_newton` solve; the rows are
    independent.  Returns per datum its report {smoothed, lhs, rhs, slack}:
    the minimizer v and both sides of its energy estimate
    lhs = 1/2 ||v||^2 + dt ||grad v||_p^p <= rhs = 1/2 ||u0||^2, which holds
    up to slack for the solver residual; or, if its row fails or its
    estimate does not hold, its NonConvergence."""
    grid = data[0].grid
    solver = _StepSolver(grid, p, p * dt, zero_flux(grid.dim))
    rhs = np.array([u0.flat for u0 in data])
    rhs[:, grid.boundary_nodes] = 0.0
    v, failures = _newton(solver, np.zeros_like(rhs), rhs, _SMOOTHING_TOL, _SMOOTHING_ITERS)
    out = [None] * len(data)
    for i, err in failures:
        out[i] = NonConvergence(f"initial smoothing: {err}", residual=err.residual)
    for i, u0 in enumerate(data):
        if out[i] is not None:
            continue
        smoothed = Field(grid, v[i].reshape(grid.node_shape), ZERO_BOUNDARY)
        lhs = 0.5 * l2_norm(smoothed) ** 2 + dt * lp_grad_norm(smoothed, p) ** p
        rhs_val = 0.5 * l2_norm(u0) ** 2
        slack = 10.0 * _SMOOTHING_TOL * max(1.0, l2_norm(smoothed))
        out[i] = {"smoothed": smoothed, "lhs": lhs, "rhs": rhs_val, "slack": slack}
        if not lhs <= rhs_val + slack:  # true for NaN
            out[i] = NonConvergence("initial smoothing violated its energy estimate: "
                                    f"lhs={lhs:.6e} > rhs={rhs_val:.6e}")
    return out


def prepare_initial(u0: Field, U, dt: float, p: float):
    """v + U for the smoothed state v of u0 alone (`initial_smoothings`);
    raises its NonConvergence.  U, a Field or nodal values (control rows
    (k, n_nodes), say), must already carry the boundary handling chosen by
    the caller."""
    v = _solved(initial_smoothings([u0], dt, p)[0])["smoothed"]
    return v + U if isinstance(U, Field) else v.flat + U


def project_control(U: Field, mode: str) -> Field:
    if mode == CLAMP_BOUNDARY:
        return U.clamp_boundary()
    if mode == LIFT_BOUNDARY:
        return U
    raise ValueError(f"unknown control projection {mode!r}")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Simulated paths of one scheme configuration: the nodal states
    (paths, n_steps + 1, n_nodes), with states[:, 0] the initial state, the
    jump paths that drove them, in row order, and the jump model."""

    states: np.ndarray
    paths: tuple
    config: SchemeConfig
    grid: Grid
    model: LevyModel

    def __post_init__(self):
        if self.states.shape[1] != self.config.n_steps + 1:
            raise ValueError("ensemble paths must have n_steps + 1 states")

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def state_norms(self) -> tuple:
        """`l2_norm` and `lp_grad_norm` ** config.p of every state, (paths,
        n_steps + 1) each, in one row-wise pass over `states`; computed once
        per ensemble."""
        return (_l2_norms(self.grid, self.states),
                _lp_grad_pows(self.grid, self.states, self.config.p))

    @cached_property
    def sums(self) -> np.ndarray:
        """The running martingale sums B(t_k), shaped like `states`: the
        compensated increments the step solves add to their right-hand
        sides, summed in step order; computed once per ensemble."""
        cfg, grid = self.config, self.grid
        incs = np.zeros_like(self.states)
        incs[:, 1:, grid.interior_nodes] = compensated_increments(
            self.model, grid.take("interior", self.states[:, :-1]),
            _path_mark_sums(self.paths, cfg.n_steps), cfg.dt)
        return np.cumsum(incs, axis=1)

    @cached_property
    def increments_sq_sums(self) -> np.ndarray:
        """Per path, sum_k l2_norm(states[k + 1] - states[k])^2, summed in
        step order; computed once per ensemble."""
        norms = _l2_norms(self.grid, np.diff(self.states, axis=1))
        return np.array([sum(row) for row in (norms**2).tolist()], dtype=float)

    def interp_gap_sq(self) -> np.ndarray:
        """Per path, ||u_step - u_affine||^2 over space-time, integrated
        exactly: on step k the gap is (1 - lam) (states[k + 1] - states[k])
        at t = t_k + lam dt, so it integrates to dt / 3 times the path's
        `increments_sq_sums`."""
        return (self.config.dt / 3.0) * self.increments_sq_sums


# Byte budget of the band array of one batched Newton system.  Larger path
# stacks are marched in chunks that fit it: 1D n=16 takes up to 17,476
# paths per chunk, 2D n=32 takes 11.  A whole-trajectory chunk holds
# n_steps band systems per row, so it takes n_steps times fewer rows.  A 2D
# march also keeps each row's factors, copied out of the batch's array: at
# most 8 MB (11 x 0.72 MB) for an 11-row chunk of 32x32 cells.  Rows are
# independent, so the chunking does not change results.
_BAND_BUDGET = 8 << 20


def simulate_paths(start: Field, model: LevyModel, cfg: SchemeConfig, paths) -> Ensemble:
    """The one-run form of `simulate_runs`: the scheme on each jump path in
    `paths` (from `sample_prms`), marched from the smoothed nodal start
    `start` (`prepare_initial`) by n_steps implicit steps (noise explicit,
    diffusion implicit).  Raises the NonConvergence of the first failing
    path in `paths` order with its step and seed: the error a path-by-path
    loop raises."""
    return _solved(simulate_runs(start.grid, start.flat[None], [paths], model, cfg)[0])


def _solved(result):
    """A result of `simulate_runs` or `initial_smoothings`, or, if it is
    a NonConvergence, that error raised."""
    if isinstance(result, NonConvergence):
        raise result
    return result


def simulate_runs(grid: Grid, starts: np.ndarray, runs: list, model: LevyModel,
                  cfg: SchemeConfig, ref: np.ndarray = None) -> list:
    """The solve entry of every simulation: run c is the jump paths runs[c]
    (from `sample_prms`), each marched from the finite nodal start state
    starts[c] (len(runs), n_nodes), a smoothed initial datum plus its
    control.  All runs' rows form one stack, run-major, with the paths
    advancing together, one batched solve per step of the step's distinct
    histories (`_march`); runs may share paths or starts, and a row does not
    depend on the other rows, so a run that repeats another's start and
    paths (verify's identical-data run) costs no solve.  Returns per run
    its Ensemble, or the NonConvergence of its first failing path in its
    path order (with step and seed), the error a path-by-path loop raises:
    a failing row stops alone, and every other row, of its run too, is
    solved to its end.  The stack is solved once, in contiguous chunks of
    rows within _BAND_BUDGET, each written into the call's one states array
    as it finishes (a stack of one chunk is that array).

    ref, with every run on the same paths, holds one trajectory set
    (len(paths), n_steps + 1, n_nodes) per run: a solved or predicted
    trajectory per path (the control search passes each candidate's
    prediction, `np.broadcast_to` of one solved set, or, before any
    candidate is solved, each candidate's start held constant).  Each
    row's step solves then start from its own ref[run, path] (see
    `_march`), and its states move by up to about newton_tol against the
    cold start from the previous state.  With ref and at most
    _TRAJECTORY_NODES nodal values per path set (len(paths) x grid nodes),
    each row's steps are solved as one system (`_trajectories`) instead, in
    chunks of whole trajectories; the choice depends on the paths and the
    grid, not on the number of runs, so a row's states still do not depend
    on which runs share the call."""
    runs = [tuple(paths) for paths in runs]
    if not np.isfinite(starts).all():
        raise ValueError("field values must be finite")
    # runs of unequal lengths give a set of several lengths, so no ref fits
    if ref is not None and ref.shape != (len(runs), *{len(paths) for paths in runs},
                                         cfg.n_steps + 1, grid.n_nodes):
        raise ValueError("ref must hold one trajectory set per run")
    # per row: its run and its path
    run_of = np.repeat(np.arange(len(runs)), [len(paths) for paths in runs])
    row_paths = [path for paths in runs for path in paths]
    n_rows = len(row_paths)
    whole = ref is not None and cfg.n_steps > 0 and ref.shape[1] * grid.n_nodes <= _TRAJECTORY_NODES
    if ref is not None:  # a view where ref is one array, as a predictor's is
        ref = ref.reshape(n_rows, *ref.shape[2:])
    solve = _trajectories if whole else _march
    band = grid.step_band
    chunk = max(1, _BAND_BUDGET // (8 * band.ldab * band.m * (cfg.n_steps if whole else 1)))
    # a stack of one chunk keeps the chunk's own array, not a copy of it
    states = None if 0 < n_rows <= chunk else np.empty((n_rows, cfg.n_steps + 1, grid.n_nodes))
    errors = []  # per row
    for lo in range(0, n_rows, chunk):
        rows = slice(lo, lo + chunk)
        part, chunk_errors = solve(grid, starts[run_of[rows]], model, cfg, row_paths[rows],
                                   None if ref is None else ref[rows])
        if states is None:
            states = part
        else:
            states[rows] = part
        errors += chunk_errors
    out, lo = [], 0
    for paths in runs:
        hi = lo + len(paths)
        failed = next((err for err in errors[lo:hi] if err is not None), None)
        out.append(failed or Ensemble(states[lo:hi], paths, cfg, grid, model))
        lo = hi
    return out


def _path_mark_sums(paths, n_steps: int) -> np.ndarray:
    """`mark_sums` of every step of every path, (len(paths), n_steps), from
    each path's own `PrmPath.step_sums`."""
    return np.array([path.step_sums for path in paths]).reshape(len(paths), n_steps)


def _history_reps(keys: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per row and step k, the lowest row with the same history through step
    k, (M, n_steps): rows whose keys (M, width) hold the same bytes (the
    start, and the ref row if given) and whose sums (M, n_steps) hold the
    same bits in steps 0..k.  Rows start grouped by their keys, and each
    step splits every group by that step's sums, one stable lexsort per step
    over (group, sum bits), so ties keep row order and each group's first
    row is its lowest; once every row stands alone, the later steps are not
    sorted."""
    M, n = sums.shape
    reps = np.empty((M, n), dtype=np.intp)
    every = np.arange(M)
    bits = np.ascontiguousarray(keys).view(np.int64)
    # equal neighbours first (a run's rows share its start), then the byte
    # strings of the distinct neighbours, each one opaque void item
    head = np.ones(M, dtype=bool)
    head[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    heads = np.flatnonzero(head)
    _, first, inv = np.unique(bits[heads].view(np.dtype((np.void, bits.shape[1] * 8))).ravel(),
                              return_index=True, return_inverse=True)
    rep = heads[first][inv.ravel()][np.cumsum(head) - 1]
    sum_bits = np.ascontiguousarray(sums).view(np.int64)
    for k in range(n):
        if np.array_equal(rep, every):  # every row alone: no later step groups
            reps[:, k:] = every[:, None]
            break
        order = np.lexsort((sum_bits[:, k], rep))
        group, step = rep[order], sum_bits[order, k]
        new = np.ones(M, dtype=bool)
        new[1:] = (group[1:] != group[:-1]) | (step[1:] != step[:-1])
        rep = np.empty_like(rep)
        rep[order] = order[new][np.cumsum(new) - 1]
        reps[:, k] = rep
    return reps


def _march(grid: Grid, starts: np.ndarray, model: LevyModel, cfg: SchemeConfig,
           paths, ref: np.ndarray = None) -> tuple:
    """Nodal states (M, n_steps + 1, n_nodes) of the paths, row i from the
    nodal state starts[i], and per row None or the NonConvergence (with step
    and seed) of its step solver.  A failed row stops marching (its later
    states are undefined); the other rows run on.

    Step k + 1's Newton solve starts from the previous state, or, given a
    reference trajectory ref (M, n_steps + 1, n_nodes), from the predictor
    ref[i, k + 1] + (prev - ref[i, k]) on the interior nodes, with the
    boundary values of prev, which the solve holds fixed.  In 2D each row
    keeps its Newton factors from round to round and step to step (see
    `_newton`), in one store per call.  `_trajectories` solves the same steps
    all at once and marches the rows it cannot finish with this function.

    Each step solves one row per distinct history (`_history_reps`): a step
    sees a row only through its start, its ref row and its path's step sums
    (`PrmPath.step_sums`), and a row's iterates do not depend on the other
    rows of its batch, so rows with the same bytes of those through step k
    hold bitwise-equal states through step k.  The lowest row of each live
    group is solved and its state taken by every member, whose kept factors
    (2D) it shares; a child group starts from its parent's.  If the group's
    row fails, each member gets its own NonConvergence with its own seed and
    stops.  This pays at low jump rates, where most paths of a batch jump
    rarely and share their history step after step; a dense measure makes
    every row distinct from the first step, and then every row is solved as
    alone, with no gather or scatter."""
    idx = grid.interior_nodes
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    M = len(paths)
    states = np.empty((M, cfg.n_steps + 1, grid.n_nodes))
    states[:, 0] = starts
    jumps = _path_mark_sums(paths, cfg.n_steps)
    reps = _history_reps(states[:, 0] if ref is None else
                         np.concatenate([states[:, 0], ref.reshape(M, -1)], axis=1), jumps)
    every = np.arange(M)
    alive = np.ones(M, dtype=bool)
    errors = [None] * M
    kept = [None] * M if grid.step_band.kl > 1 else None  # per row, held by groups' rows
    for k in range(cfg.n_steps):
        rep = reps[:, k]
        at = np.flatnonzero((rep == every) & alive)  # one row per live group
        if not at.size:
            break
        rows = slice(None) if at.size == M else at  # a slice while every row solves
        prev = states[rows, k]
        inc = np.zeros_like(prev)
        inc[:, idx] = compensated_increments(model, grid.take("interior", prev),
                                             jumps[rows, k], cfg.dt)
        guess = prev.copy()
        if ref is not None:
            guess[:, idx] = (ref[rows, k + 1] + (prev - ref[rows, k]))[:, idx]
        lu = None
        if kept is not None:
            if k:  # a child group starts from its parent's factors
                for i in at[reps[at, k - 1] != at].tolist():
                    kept[i] = kept[reps[i, k - 1]]
            lu = [kept[i] for i in at]
            for i in at.tolist():  # the solve holds them alone: what it replaces is freed
                kept[i] = None
        solved, failed = _newton(solver, guess, prev + inc, cfg.newton_tol,
                                 cfg.newton_max_iters, lu)
        if lu is not None:
            for j, i in enumerate(at.tolist()):  # no name left holding a factor
                kept[i] = lu[j]
        if at.size == M:
            states[:, k + 1] = solved
        else:  # every row takes its group's state (a failed row's, undefined)
            at_pos = np.zeros(M, dtype=np.intp)
            at_pos[at] = np.arange(at.size)
            states[:, k + 1] = solved.take(at_pos[rep], axis=0)
        if failed:
            group_errors = {int(at[j]): err for j, err in failed}
            for i in np.flatnonzero(alive & np.isin(rep, list(group_errors))).tolist():
                err = group_errors[int(rep[i])]
                if i != rep[i]:
                    err = NonConvergence(str(err), residual=err.residual)
                err.step, err.seed = k, paths[i].seed
                errors[i] = err
                alive[i] = False
                if kept is not None:
                    kept[i] = None
    return states, errors


# Whole-trajectory Newton (`_trajectories`) takes more iterations per call
# than the march takes per step, so it pays only while per-call overhead,
# not arithmetic, sets a solve's cost: simulate_runs takes it up to this
# many nodal values per path set (n_paths x grid nodes).  Measurements:
# ROADMAP item 11.
_TRAJECTORY_NODES = 100


def _rhs_coupling(model: LevyModel, u_int: np.ndarray, noise: np.ndarray,
                  wc: float) -> np.ndarray:
    """-dR/du_prev, diagonal on the interior nodes, of a step's residual R
    with rhs = u_prev + inc(u_prev), per row of u_int (M, m) with the rows'
    noise factors noise (M,), their `mark_sums` minus dt mark_mass:
    wc (1 + c f'(u_prev) noise)."""
    return wc * (1.0 + model.eta_du(u_int) * noise[:, None])


def _live_steps(x: np.ndarray, n: int, go: np.ndarray) -> np.ndarray:
    """The rows go (A,) of every step of x (n * A, ...), flat and step-major."""
    return x.reshape(n, len(go), *x.shape[1:])[:, go].reshape(-1, *x.shape[1:])


def _trajectories(grid: Grid, starts: np.ndarray, model: LevyModel, cfg: SchemeConfig,
                  paths, ref: np.ndarray) -> tuple:
    """`_march` given a reference trajectory ref (M, n_steps + 1, n_nodes),
    one per row (solved, predicted, or a start held constant), with every
    step of every row solved at once: Newton on the residuals
    R_k(u_k; u_{k-1} + inc(u_{k-1})) of steps k = 1..n_steps, the unknowns
    stacked step-major and started from the reference's own interior values
    ref[i, k]; the first Newton step carries the start's difference from
    ref[i, 0] through the coupling blocks into every state (a predicted ref
    has ref[i, 0] equal to the start up to rounding).

    The trajectory Jacobian is block lower-bidiagonal: its diagonal blocks
    are the step Newton matrices, factored by one `BandLU`, and its coupling
    blocks the diagonals -`_rhs_coupling`; a Newton step is the block
    forward substitution (`BandLU.forward_solve`), one solve per step on
    that step's columns of the factors.  Each row iterates under its own
    mask and leaves when every step's residual is at most newton_tol, the
    march's own acceptance test.  A row that exhausts newton_max_iters, goes
    non-finite or has a singular block in a round's factors is marched step
    by step from its start by `_march` instead, which gives its
    NonConvergence; only those rows go to `_march`, and a row that fails
    there stops alone."""
    n, M, idx = cfg.n_steps, len(paths), grid.interior_nodes
    if idx[-1] - idx[0] + 1 == idx.size:  # contiguous (1D): read and update them as views
        idx = slice(int(idx[0]), int(idx[-1]) + 1)
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux)
    m = grid.step_band.m
    # S_k - dt K of every row's every step, the factor of both the increments
    # and the coupling: (n, live rows), column j for row live[j]
    noise = np.ascontiguousarray(_path_mark_sums(paths, n).T) - cfg.dt * model.mark_mass
    states = np.empty((M, n + 1, grid.n_nodes))
    # cur[k, j] is state k of row live[j]; every state keeps the start's boundary
    cur = np.repeat(starts[None], n + 1, axis=0)
    cur[1:, :, idx] = ref[:, 1:, idx].transpose(1, 0, 2)
    live = np.arange(M)
    marched = []  # rows left to `_march`
    for it in range(cfg.newton_max_iters + 1):
        # every row-step flat, step-major: r, comps and u_int are (n * A, ...)
        A = len(live)
        prev = cur[:-1].reshape(n * A, -1)
        u_int = prev[:, idx]  # read by the increments and the coupling
        rhs = prev.copy()
        with np.errstate(invalid="ignore"):  # a diverged row, marched below, gives inf - inf
            rhs[:, idx] = u_int + (0.0 if model.eta_is_zero
                                   else model.eta_u(u_int) * noise.reshape(-1, 1))
        r, rnorm, _, comps = solver.evaluate(cur[1:].reshape(n * A, -1), rhs)
        rnorm = rnorm.reshape(n, A)
        done = (rnorm <= cfg.newton_tol).all(axis=0)
        if done.any():
            states[live[done]] = cur[:, done].transpose(1, 0, 2)
        go = ~done & np.isfinite(rnorm).all(axis=0) & (it < cfg.newton_max_iters)
        if not go.all():  # while every row stays live, no row is copied out
            marched.extend(live[~done & ~go].tolist())
            if not go.any():
                break
            live, noise, cur = live[go], noise[:, go], cur[:, go]
            r, comps, u_int = (_live_steps(x, n, go) for x in (r, comps, u_int))
        lu, ok = solver.newton_factors(cur[1:], comps)
        if ok is not None:  # a singular row solves to zeros, which reach no other row
            r.reshape(n, -1, m)[:, ~ok] = 0.0
        # block forward substitution: A_k delta_k = -r_k + coupling_k delta_{k-1}
        coupling = _rhs_coupling(model, u_int, noise.ravel(), solver.wc)
        delta = lu.forward_solve(-r.reshape(n, -1), coupling.reshape(n, -1)).reshape(n, -1, m)
        if ok is not None:  # a singular block sends its row to the march
            marched.extend(live[~ok].tolist())
            live, noise, cur, delta = live[ok], noise[:, ok], cur[:, ok], delta[:, ok]
            if not live.size:
                break
        cur[1:, :, idx] += delta
    errors = [None] * M
    if marched:
        rows = np.sort(marched)
        states[rows], marched_errors = _march(
            grid, starts[rows], model, cfg, [paths[i] for i in rows], ref[rows])
        for i, err in zip(rows.tolist(), marched_errors):
            errors[i] = err
    return states, errors
