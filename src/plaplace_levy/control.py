"""Tracking cost for the jump-driven evolution and a sample-average
minimizer over a finite family of initial-value controls.

The cost of a control U on a path ensemble is

    J = mean_paths [ sum_k dt ||u(t_{k+1}) - u_tar(t_{k+1})||^2 ]
        + ||U||_{W^{1,p}}^p + mean_paths psi(u(T))

(right-endpoint rectangle rule in time, matching the step interpolant).
Candidates are compared under common random numbers: a fixed seed set makes
the sample-average objective deterministic in the coefficients, so the
recorded best-so-far history is monotone and runs reproduce bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .grid import Field, Grid, _check_same_grid, l2_norm, w1p_norm
from .levy import LevyModel
from .scheme import NonConvergence, SchemeConfig, sample_path, simulate_paths

FREE = "free_boundary"


def psi_zero():
    fn = lambda f: 0.0
    return fn, 0.0


def psi_l2(cap: float = None):
    """Terminal payoff ||v||_{L^2}, optionally clipped at cap; Lipschitz
    constant 1 either way."""
    if cap is None:
        return (lambda f: l2_norm(f)), 1.0
    return (lambda f: min(l2_norm(f), float(cap))), 1.0


@dataclass
class CostSpec:
    """Deterministic target profile (one field per scheme time point),
    terminal payoff, and its Lipschitz constant."""

    u_tar: list
    psi: callable
    psi_lipschitz: float

    def validate(self, n_steps: int, rng_seed: int = 0, n_checks: int = 20):
        if len(self.u_tar) != n_steps + 1:
            raise ValueError(
                f"target profile has {len(self.u_tar)} entries, scheme needs {n_steps + 1}"
            )
        if not np.isfinite(self.psi_lipschitz):
            raise ValueError("psi Lipschitz constant must be finite")
        grid = self.u_tar[0].grid
        rng = np.random.default_rng(rng_seed)
        for _ in range(n_checks):
            a = _random_zb(grid, rng)
            b = _random_zb(grid, rng)
            gap = abs(self.psi(a) - self.psi(b))
            if gap > self.psi_lipschitz * l2_norm(a - b) + 1e-9:
                raise ValueError("psi exceeds its declared Lipschitz constant")
        return self


def _random_zb(grid: Grid, rng) -> Field:
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = rng.normal(size=len(grid.interior_nodes))
    return Field(grid, vals.reshape(grid.node_shape))


def constant_target(grid: Grid, n_steps: int, value_field: Field = None) -> list:
    f = value_field if value_field is not None else Field.zeros(grid)
    return [f] * (n_steps + 1)


def cost_J(trajectories, U: Field, spec: CostSpec, p: float) -> tuple:
    """Sample-average cost of U over the ensemble; returns (total, parts)
    with parts = {tracking, control, terminal}."""
    if not trajectories:
        raise ValueError("empty ensemble")
    cfg = trajectories[0].config
    if len(spec.u_tar) != cfg.n_steps + 1:
        raise ValueError("target profile does not match the scheme time grid")
    grid = trajectories[0].grid
    targets = np.array([f.flat for f in spec.u_tar[1:]])
    tracking = 0.0
    terminal = 0.0
    for traj in trajectories:
        if traj.config.n_steps != cfg.n_steps or traj.config.dt != cfg.dt:
            raise ValueError("ensemble mixes time grids")
        _check_same_grid(traj.hat0, spec.u_tar[0])
        # dt l2_norm(u(t_{k+1}) - u_tar(t_{k+1}))^2 per step, summed in step order
        gaps = grid.take("interior", traj.states[1:] - targets)
        norms = np.sqrt(np.vecdot(gaps, gaps) * grid.cell_weight)
        tracking += sum((cfg.dt * norms**2).tolist())
        terminal += spec.psi(traj.state(-1))
    tracking /= len(trajectories)
    terminal /= len(trajectories)
    control = w1p_norm(U, p) ** p
    parts = {"tracking": tracking, "control": control, "terminal": terminal}
    return tracking + control + terminal, parts


@dataclass
class ControlParam:
    """Control U = sum_j coeffs[j] * basis[j] in a fixed free-boundary
    basis; the basis must have a nonsingular Gram matrix."""

    basis: list
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if len(self.basis) != len(self.coeffs):
            raise ValueError("coefficient count must match basis size")
        gram = np.array(
            [[float(np.dot(a.flat, b.flat)) for b in self.basis] for a in self.basis]
        )
        if len(self.basis) and abs(np.linalg.det(gram)) < 1e-12:
            raise ValueError("control basis is linearly dependent")

    def build(self) -> Field:
        grid = self.basis[0].grid
        vals = np.zeros(grid.node_shape)
        for c, phi in zip(self.coeffs, self.basis):
            vals = vals + c * phi.values
        return Field(grid, vals, FREE)


def sine_basis(grid: Grid, size: int) -> list:
    """Low sine modes (tensorized in 2D); smooth elements of the control
    space with zero trace, so boundary projection never distorts them."""
    out = []
    if grid.dim == 1:
        for j in range(1, size + 1):
            out.append(
                Field.from_function(grid, lambda x, j=j: np.sin(j * np.pi * x), FREE)
            )
        return out
    modes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
    for i, j in modes[:size]:
        out.append(
            Field.from_function(
                grid,
                lambda x, y, i=i, j=j: np.sin(i * np.pi * x) * np.sin(j * np.pi * y),
                FREE,
            )
        )
    return out


@dataclass
class SAAResult:
    best_coeffs: np.ndarray
    best_J: float
    J_history: list
    n_paths: int
    common_seeds: list
    n_evaluations: int
    parts: dict

    def to_dict(self) -> dict:
        return {
            "best_coeffs": np.asarray(self.best_coeffs).tolist(),
            "best_J": self.best_J,
            "J_history": list(self.J_history),
            "n_paths": self.n_paths,
            "common_seeds": list(self.common_seeds),
            "n_evaluations": self.n_evaluations,
            "parts": dict(self.parts),
        }


def saa_minimize(model: LevyModel, cfg: SchemeConfig, u0: Field, spec: CostSpec,
                 basis: list, n_paths: int, budget: int = 200, base_seed: int = 0,
                 restarts: int = 3, initial_coeffs=None, simplex_scale: float = 0.5,
                 ) -> SAAResult:
    """Derivative-free simplex search over control coefficients with common
    random numbers and restarts from the incumbent with a shrinking simplex.

    The zero control is always evaluated, so best_J <= J(0).  A candidate
    whose path solve diverges scores +inf and the search continues.
    """
    dim = len(basis)
    if budget < dim + 1:
        raise ValueError("budget must cover at least one simplex (dim + 1 evaluations)")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    seeds = [base_seed + i for i in range(n_paths)]
    spec.validate(cfg.n_steps)
    # common random numbers: each seed's jump path serves every candidate
    paths = [sample_path(model, cfg, s) for s in seeds]

    history = []
    state = {"best": np.inf, "coeffs": None, "evals": 0, "parts": None}

    def objective(coeffs) -> float:
        state["evals"] += 1
        U = ControlParam(basis=basis, coeffs=coeffs).build()
        try:
            trajs = simulate_paths(u0, U, model, cfg, paths)
            val, parts = cost_J(trajs, U, spec, cfg.p)
        except NonConvergence:
            val, parts = np.inf, None
        if val < state["best"]:
            state["best"], state["coeffs"], state["parts"] = val, np.array(coeffs), parts
        history.append(state["best"])
        return val

    x0 = np.zeros(dim) if initial_coeffs is None else np.asarray(initial_coeffs, dtype=float)
    if np.any(x0 != 0.0):
        objective(np.zeros(dim))  # anchor the zero-control candidate
    scale = simplex_scale
    for _ in range(restarts):
        remaining = budget - state["evals"]
        if remaining < dim + 1:
            break
        simplex = np.vstack([x0] + [x0 + scale * np.eye(dim)[j] for j in range(dim)])
        scipy.optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": remaining,
                "initial_simplex": simplex,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
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
