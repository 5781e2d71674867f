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
Both linearizations are assembled per iterate from per-cell and per-edge
local blocks, scattered through the grid's fixed table straight into LAPACK
band storage, and solved by gbsv; one code path serves 1D and 2D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgbsv

from .grid import (
    FREE_BOUNDARY,
    ZERO_BOUNDARY,
    Field,
    Grid,
    l2_norm,
    lp_grad_norm,
    _check_same_grid,
)
from .levy import LevyModel, PrmPath, compensated_increment, sample_prm

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
    """Convection flux f: R -> R^dim with componentwise antiderivative F
    (F_d' = f_d, F_d(0) = 0) and a Lipschitz constant c_f.  Requires
    f(0) = 0."""

    f: tuple  # per-axis callables, vectorized
    F: tuple  # per-axis antiderivatives, vectorized
    c_f: float

    @property
    def dim(self) -> int:
        return len(self.f)

    @property
    def is_zero(self) -> bool:
        return self.c_f == 0.0

    def validate(self, rng_seed: int = 0, n_checks: int = 200):
        """Spot-check f(0) = 0 and the Lipschitz bound (assumption A2)."""
        for fd in self.f:
            if abs(float(np.asarray(fd(np.zeros(1))).ravel()[0])) > 1e-14:
                raise ValueError("A2 violated: flux must satisfy f(0) = 0")
        rng = np.random.default_rng(rng_seed)
        u = rng.normal(0, 3, n_checks)
        v = rng.normal(0, 3, n_checks)
        gap = np.abs(u - v)
        for fd in self.f:
            if np.any(np.abs(fd(u) - fd(v)) > self.c_f * gap + 1e-10):
                raise ValueError("A2 violated: flux exceeds its Lipschitz constant")
        return self


def zero_flux(dim: int) -> FluxModel:
    z = lambda u: np.zeros_like(u, dtype=float)
    return FluxModel(f=(z,) * dim, F=(z,) * dim, c_f=0.0)


def linear_flux(coefs) -> FluxModel:
    """f_d(u) = a_d * u (globally Lipschitz, F_d = a_d u^2 / 2)."""
    coefs = tuple(float(c) for c in np.atleast_1d(coefs))
    f = tuple((lambda a: lambda u: a * np.asarray(u, dtype=float))(a) for a in coefs)
    F = tuple((lambda a: lambda u: 0.5 * a * np.asarray(u, dtype=float) ** 2)(a) for a in coefs)
    return FluxModel(f=f, F=F, c_f=max(abs(a) for a in coefs))


def sine_flux(coefs) -> FluxModel:
    """f_d(u) = a_d * sin(u), F_d(u) = a_d (1 - cos u)."""
    coefs = tuple(float(c) for c in np.atleast_1d(coefs))
    f = tuple((lambda a: lambda u: a * np.sin(u))(a) for a in coefs)
    F = tuple((lambda a: lambda u: a * (1.0 - np.cos(u)))(a) for a in coefs)
    return FluxModel(f=f, F=F, c_f=max(abs(a) for a in coefs))


@dataclass(frozen=True)
class SchemeConfig:
    """Time discretization: p > 2, step dt, horizon T = n_steps * dt.

    smoothing_dt overrides the weight of the initial proximal smoothing
    (defaults to dt).  Decoupling it matters for dt-convergence studies:
    the smoothing error is itself O(dt) with a much larger constant than
    the march error, so sweeps that vary dt hold the smoothing weight
    fixed to isolate the order of the time march.
    """

    p: float
    dt: float
    n_steps: int
    flux: FluxModel
    newton_tol: float = 1e-10
    newton_max_iters: int = 50
    control_projection: str = CLAMP_BOUNDARY
    jacobian_reg: float = 1e-8
    smoothing_dt: float = None

    def __post_init__(self):
        if self.p <= 2:
            raise ValueError(f"p must exceed 2, got {self.p}")
        if self.dt <= 0 or self.n_steps < 0:
            raise ValueError("dt must be positive and n_steps nonnegative")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.control_projection not in (CLAMP_BOUNDARY, LIFT_BOUNDARY):
            raise ValueError(f"unknown control_projection {self.control_projection!r}")
        if self.smoothing_dt is not None and self.smoothing_dt <= 0:
            raise ValueError("smoothing_dt must be positive when given")

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    @property
    def effective_smoothing_dt(self) -> float:
        return self.dt if self.smoothing_dt is None else self.smoothing_dt


# ---------------------------------------------------------------------------
# per-step nonlinear solve


def _edge_quotients(grid: Grid, flux: FluxModel, v: np.ndarray) -> np.ndarray:
    """Rows (q, dq/da, dq/db) over the convection edges a -> b along axis d
    (`Grid.conv_edges` order): the divided difference
    q = (F_d(b) - F_d(a)) / (b - a) of the flux antiderivative and its chord
    derivatives dq/da = (q - f_d(a)) / (b - a), dq/db = (f_d(b) - q) / (b - a).
    Gaps below 1e-9 take the limits q = f_d(mid), dq/da = dq/db = f_d'(mid) / 2,
    evaluated as end-value means (f_d' by central difference); their O(gap^2)
    error is far below the rounding error of the quotients there."""
    nodes, (ia, ib), _ = grid.conv_edges
    Fv = np.concatenate([F(v) for F in flux.F])  # per-axis nodal values
    fv = np.concatenate([f(v) for f in flux.f])
    a, b = v[nodes]
    gap = b - a
    near = np.abs(gap) < 1e-9
    safe = np.where(near, 1.0, gap)
    fa, fb = fv[ia], fv[ib]
    out = np.empty((3, gap.size))
    q, dq_da, dq_db = out
    np.divide(Fv[ib] - Fv[ia], safe, out=q)
    np.divide(q - fa, safe, out=dq_da)
    np.divide(fb - q, safe, out=dq_db)
    if near.any():
        df = np.concatenate([(f(v + 1e-6) - f(v - 1e-6)) / 2e-6 for f in flux.f])
        q[near] = 0.5 * (fa + fb)[near]
        dq_da[near] = dq_db[near] = 0.25 * (df[ia] + df[ib])[near]
    return out


def _conv_residual(grid: Grid, flux: FluxModel, v: np.ndarray) -> np.ndarray:
    """Nodal functional of the conservative convection form
    sum_e w_e q_e(v) (phi[b] - phi[a]); exact on interior rows (edges with
    both ends on the boundary are left out)."""
    nodes, _, w = grid.conv_edges
    wq = w * _edge_quotients(grid, flux, v)[0]
    return np.bincount(nodes.ravel(), np.concatenate([-wq, wq]), grid.n_nodes)


class _StepSolver:
    """Assembles residual/Jacobian of one implicit step on full nodal
    vectors; unknowns are the interior nodes, boundary values stay fixed.

    Residual and energy come from one gradient pass per iterate.  The
    Newton and frozen-coefficient matrices are assembled per iterate
    straight into LAPACK band storage through the grid's fixed scatter
    (`Grid.step_band`) and solved by gbsv, in 1D and 2D alike.
    """

    def __init__(self, grid: Grid, p: float, dt: float, flux: FluxModel,
                 reg: float):
        self.grid = grid
        self.p = p
        self.dt = dt
        self.flux = flux
        self.reg = reg
        self.idx = grid.interior_nodes
        self.wc = grid.cell_weight

    def evaluate(self, v: np.ndarray, rhs: np.ndarray) -> tuple:
        """Interior residual, its norm, and the convex step energy (None
        unless the convection flux is zero, where it is the descent merit),
        all from one gradient pass over v."""
        grid, p, dt, wc = self.grid, self.p, self.dt, self.wc
        comps = grid.cell_gradient(v)
        sq = (comps * comps).sum(axis=0)
        coef = sq ** ((p - 2.0) / 2.0)  # |g|^(p-2), so coef * g is the p-flux
        diff = v - rhs
        r = wc * diff + (dt * wc) * grid.cell_gradient_adjoint(coef * comps)
        energy = None
        if self.flux.is_zero:
            d_int = diff[self.idx]
            gp = float(np.dot(coef, sq))  # sum |g|^p
            energy = 0.5 * wc * float(np.dot(d_int, d_int)) + (dt / p) * wc * gp
        else:
            r += dt * _conv_residual(grid, self.flux, v)
        r_int = r[self.idx]
        # L^2 norm of the nodal Riesz representer r_int / wc
        return r_int, float(np.sqrt(np.dot(r_int, r_int) / wc)), energy

    def newton_step(self, v: np.ndarray, r_int: np.ndarray) -> np.ndarray:
        """Solve J(v) delta = -r for the interior increment."""
        return self._band_solve(self._band_matrix(v, newton=True), -r_int)

    def picard_solve(self, v: np.ndarray, b_int: np.ndarray) -> np.ndarray:
        """Solve the frozen-coefficient linearization A(v) w = b."""
        return self._band_solve(self._band_matrix(v, newton=False), b_int)

    def _band_matrix(self, v: np.ndarray, newton: bool) -> np.ndarray:
        """wc I + dt sum_cells wc G^T (c0 I + c1 g g^T) G (+ dt times the
        convection derivative) on the interior unknowns, in gbsv band storage
        of shape (ldab, m).  c0 = s^((p-2)/2) and c1 = (p-2) c0 / s with
        s = |g|^2 + reg^2 give the regularized Newton matrix; the
        frozen-coefficient matrix has c1 = 0 and no convection term."""
        grid, p, band = self.grid, self.p, self.grid.step_band
        comps = grid.cell_gradient(v)
        s = (comps * comps).sum(axis=0) + self.reg**2
        c0 = s ** ((p - 2.0) / 2.0)
        c1 = (p - 2.0) * c0 / s if newton else np.zeros_like(s)
        # per-cell blocks G^T (c0 I + c1 g g^T) G = [c0, c1 g_d g_e] @ local_block_basis
        coef = np.empty((1 + grid.dim**2, comps.shape[1]))
        coef[0] = c0
        coef[1:] = (comps[:, None, :] * (c1 * comps)[None, :, :]).reshape(grid.dim**2, -1)
        blocks = coef.T @ grid.local_block_basis
        vals = (self.dt * self.wc) * blocks.ravel()[band.cell_take]
        if newton and not self.flux.is_zero:
            dq = _edge_quotients(grid, self.flux, v)[1:].ravel()
            vals = np.concatenate([vals, self.dt * band.edge_scale * dq[band.edge_src]])
        return band.assemble(vals, self.wc)

    def _band_solve(self, ab: np.ndarray, b_int: np.ndarray) -> np.ndarray:
        kl = self.grid.step_band.kl
        *_, x, info = dgbsv(kl, kl, ab, b_int, overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"singular Newton system (gbsv info {info})")
        return x


def step_solve(u_prev: Field, noise_inc: Field, cfg: SchemeConfig,
               initial_guess: Field = None) -> Field:
    """Solve one implicit step for u_next given u_prev and the noise
    increment; raises NonConvergence (with the final residual attached) when
    the iteration budget runs out."""
    _check_same_grid(u_prev, noise_inc)
    if noise_inc.space_tag != ZERO_BOUNDARY:
        raise ValueError("noise increment must be a zero-boundary field")
    grid = u_prev.grid
    solver = _StepSolver(grid, cfg.p, cfg.dt, cfg.flux, cfg.jacobian_reg)
    rhs = u_prev.flat + noise_inc.flat
    v = (initial_guess.flat if initial_guess is not None else u_prev.flat).copy()
    # boundary stays at u_prev's trace (zero unless a lifted control is used)
    v[grid.boundary_nodes] = u_prev.flat[grid.boundary_nodes]
    v = _newton(solver, v, rhs, cfg.newton_tol, cfg.newton_max_iters)
    tag = u_prev.space_tag if np.any(v[grid.boundary_nodes]) else ZERO_BOUNDARY
    return Field(grid, v.reshape(grid.node_shape), tag)


def _newton(solver: _StepSolver, v: np.ndarray, rhs: np.ndarray,
            tol: float, max_iters: int) -> np.ndarray:
    idx = solver.idx
    use_energy = solver.flux.is_zero
    r, rnorm, energy = solver.evaluate(v, rhs)
    for it in range(max_iters):
        if rnorm <= tol:
            return v
        delta = solver.newton_step(v, r)
        slope = float(np.dot(r, delta)) if use_energy else None
        alpha, accepted = 1.0, False
        for _ in range(40):
            v_try = v.copy()
            v_try[idx] += alpha * delta
            r_try, rnorm_try, energy_try = solver.evaluate(v_try, rhs)
            if use_energy:
                ok = energy_try <= energy + 1e-4 * alpha * slope
            else:
                ok = rnorm_try <= (1.0 - 1e-4 * alpha) * rnorm
            if ok or rnorm_try <= tol:
                v, r, rnorm, energy, accepted = v_try, r_try, rnorm_try, energy_try, True
                break
            alpha *= 0.5
        if not accepted:
            # frozen-coefficient rescue: SPD approximation of the Jacobian
            # applied to the exact residual (increment form, so fixed
            # boundary values are respected)
            v_new = v.copy()
            v_new[idx] += solver.picard_solve(v, -r)
            r_new, rnorm_new, energy_new = solver.evaluate(v_new, rhs)
            if rnorm_new < rnorm:
                v, r, rnorm, energy = v_new, r_new, rnorm_new, energy_new
            else:
                raise NonConvergence(
                    f"step solver stagnated at residual {rnorm:.3e}", residual=rnorm
                )
    if rnorm <= tol:
        return v
    raise NonConvergence(
        f"step solver exhausted {max_iters} iterations at residual {rnorm:.3e}",
        residual=rnorm,
    )


# ---------------------------------------------------------------------------
# initial smoothing and path simulation


def prepare_initial(u0: Field, U: Field, dt: float, p: float, *,
                    newton_tol: float = 1e-12, max_iters: int = 60) -> Field:
    """Smooth u0 into the zero-boundary space by the proximal problem

        minimize  1/2 ||v - u0||^2 + dt * ||grad v||_p^p

    and return v + U.  The minimizer satisfies
    1/2 ||v||^2 + dt ||grad v||_p^p <= 1/2 ||u0||^2 (checked, with slack for
    the solver residual).  U must already carry the boundary handling chosen
    by the caller.

    The smoothed state is memoized on the values of (u0, dt, p, newton_tol,
    max_iters), so the paths of an ensemble and the candidates of a control
    search share one solve; failures are not cached."""
    _check_same_grid(u0, U)
    return _smoothed(u0.grid, u0.values.tobytes(), dt, p, newton_tol, max_iters) + U


@lru_cache(maxsize=16)
def _smoothed(grid: Grid, u0_bytes: bytes, dt: float, p: float, newton_tol: float,
              max_iters: int) -> Field:
    u0 = Field(grid, np.frombuffer(u0_bytes).reshape(grid.node_shape), FREE_BOUNDARY)
    report = initial_smoothing(u0, dt, p, newton_tol=newton_tol, max_iters=max_iters)
    if not report["satisfied"]:
        raise NonConvergence(
            "initial smoothing violated its energy estimate: "
            f"lhs={report['lhs']:.6e} > rhs={report['rhs']:.6e}"
        )
    return report["smoothed"]


def initial_smoothing(u0: Field, dt: float, p: float, *,
                      newton_tol: float = 1e-12, max_iters: int = 60) -> dict:
    """Run the proximal smoothing solve and report both sides of its energy
    estimate (lhs = 1/2||v||^2 + dt||grad v||_p^p, rhs = 1/2||u0||^2)."""
    grid = u0.grid
    cfg_flux = zero_flux(grid.dim)
    solver = _StepSolver(grid, p, p * dt, cfg_flux, 1e-8)
    rhs = u0.flat.copy()
    rhs[grid.boundary_nodes] = 0.0
    v = np.zeros(grid.n_nodes)
    v = _newton(solver, v, rhs, newton_tol, max_iters)
    smoothed = Field(grid, v.reshape(grid.node_shape), ZERO_BOUNDARY)
    lhs = 0.5 * l2_norm(smoothed) ** 2 + dt * lp_grad_norm(smoothed, p) ** p
    rhs_val = 0.5 * l2_norm(u0) ** 2
    slack = 10.0 * newton_tol * max(1.0, l2_norm(smoothed))
    return {
        "smoothed": smoothed,
        "lhs": lhs,
        "rhs": rhs_val,
        "slack": slack,
        "satisfied": lhs <= rhs_val + slack,
    }


def project_control(U: Field, mode: str) -> Field:
    if mode == CLAMP_BOUNDARY:
        return U.clamp_boundary()
    if mode == LIFT_BOUNDARY:
        return U
    raise ValueError(f"unknown control projection {mode!r}")


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: nodal states hats[k] at t_k = k dt, the jump path
    that drove it, and the running martingale sums B(t_k)."""

    hats: tuple
    prm: PrmPath
    martingale_partials: tuple
    config: SchemeConfig

    def __post_init__(self):
        if len(self.hats) != self.config.n_steps + 1:
            raise ValueError("trajectory length must be n_steps + 1")

    @property
    def grid(self) -> Grid:
        return self.hats[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.config.n_steps + 1) * self.config.dt

    def noise_increments(self):
        b = self.martingale_partials
        return [b[k + 1] - b[k] for k in range(len(b) - 1)]

    def increments_sq_sum(self) -> float:
        return sum(
            l2_norm(self.hats[k + 1] - self.hats[k]) ** 2
            for k in range(self.config.n_steps)
        )


def simulate_path(u0: Field, U: Field, model: LevyModel, cfg: SchemeConfig,
                  seed: int) -> Trajectory:
    """Run the full scheme for one noise path: initial smoothing, then
    n_steps implicit solves with per-step compensated jump increments
    (noise explicit, diffusion implicit).  Deterministic in seed."""
    _check_same_grid(u0, U)
    U_used = project_control(U, cfg.control_projection)
    hat0 = prepare_initial(u0, U_used, cfg.effective_smoothing_dt, cfg.p)
    path = sample_prm(model, cfg.T, cfg.dt, seed) if cfg.n_steps > 0 else PrmPath(
        dt=cfg.dt, n_steps=0, seed=seed, eps=model.eps, events=()
    )
    hats = [hat0]
    partials = [Field.zeros(u0.grid)]
    for k in range(cfg.n_steps):
        inc = compensated_increment(model, hats[k], path, k)
        try:
            hats.append(step_solve(hats[k], inc, cfg))
        except NonConvergence as err:
            raise NonConvergence(str(err), residual=err.residual, step=k, seed=seed) from err
        partials.append(partials[k] + inc)
    return Trajectory(
        hats=tuple(hats), prm=path, martingale_partials=tuple(partials), config=cfg
    )


# ---------------------------------------------------------------------------
# interpolants in time


class Interpolants:
    """Step and affine interpolants of a trajectory.

    u_step   : right-continuous, equals hats[k+1] on [t_k, t_{k+1})
    u_left   : left-continuous, equals hats[k] on (t_k, t_{k+1}], hats[0] at 0
    u_affine : affine on each [t_k, t_{k+1}] through the nodal states
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.dt = traj.config.dt
        self.T = traj.config.T

    def _locate(self, t: float):
        if not 0.0 <= t <= self.T + 1e-12 * max(self.T, 1.0):
            raise ValueError(f"query time {t} outside [0, {self.T}]")
        k = min(int(np.floor(t / self.dt)), self.traj.config.n_steps - 1)
        return max(k, 0), t - max(k, 0) * self.dt

    def u_step(self, t: float) -> Field:
        if t >= self.T:
            self._locate(t)  # range check
            return self.traj.hats[-1]
        k, _ = self._locate(t)
        return self.traj.hats[k + 1]

    def u_left(self, t: float) -> Field:
        if t <= 0.0:
            self._locate(t)
            return self.traj.hats[0]
        k = int(np.ceil(t / self.dt)) - 1
        k = min(k, self.traj.config.n_steps - 1)
        self._locate(t)
        return self.traj.hats[k]

    def u_affine(self, t: float) -> Field:
        hats = self.traj.hats
        if t >= self.T:
            self._locate(t)
            return hats[-1]
        k, s = self._locate(t)
        lam = s / self.dt
        return hats[k] * (1.0 - lam) + hats[k + 1] * lam

    def gap_sq_exact(self) -> float:
        """||u_step - u_affine||^2 over space-time, integrated exactly
        (the in-step profile is quadratic in t)."""
        return (self.dt / 3.0) * self.traj.increments_sq_sum()


def interpolants(traj: Trajectory) -> Interpolants:
    if traj.config.n_steps < 1:
        raise ValueError("interpolants need at least one step")
    return Interpolants(traj)
