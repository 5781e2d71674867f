"""Jump-noise model: truncated intensity measure, per-step jump sampling, and
compensated increments of the noise coefficient eta.

The intensity measure is either a finite list of point masses (z_j, lam_j) or
a density with small-jump truncation |z| > eps.  Densities are discretized
once by a composite midpoint rule (_N_QUAD = 256 nodes) on
[-z_max, -eps] u [eps, z_max]; the same discretization drives both the
compensator integral and the jump-mark sampler, so the two stay consistent.

Sampling is counter-based (Philox keyed by the path seed, counter = step), so
paths are reproducible bitwise and independent across steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Field

_KEY_SALT = 0x9E3779B97F4A7C15

_N_QUAD = 256


class InfiniteMassError(ValueError):
    """Truncated measure has non-finite total mass."""


@dataclass(frozen=True)
class LevyModel:
    """Jump model: intensity measure, noise coefficient eta(u; z), and the
    contraction constant lambda_star of eta in u.

    eta must broadcast over both arguments (it is evaluated on the
    (nodes x marks) outer grid) and satisfy
    eta(0; z) = 0 and |eta(u;z) - eta(v;z)| <= lambda_star |u-v| (1 ^ |z|)
    with 0 < lambda_star < 1; `validate` spot-checks both.
    """

    eta: callable
    lambda_star: float
    point_masses: tuple = ()  # ((z, lam), ...)
    density: callable = None
    eps: float = 1e-3
    z_max: float = 1.0

    @cached_property
    def atoms(self) -> tuple:
        """(marks, masses) arrays of the discretized truncated measure."""
        if self.density is None:
            if not self.point_masses:
                return np.array([]), np.array([])
            z = np.array([zm[0] for zm in self.point_masses], dtype=float)
            lam = np.array([zm[1] for zm in self.point_masses], dtype=float)
            return z, lam
        return self._quad_atoms()

    def _quad_atoms(self):
        if self.eps <= 0:
            raise InfiniteMassError(
                "density measures need a positive truncation eps"
            )
        if self.z_max <= self.eps:
            raise ValueError("z_max must exceed eps")
        half = _N_QUAD // 2
        width = (self.z_max - self.eps) / half
        pos = self.eps + (np.arange(half) + 0.5) * width
        z = np.concatenate([-pos[::-1], pos])
        lam = np.array([self.density(zz) for zz in z], dtype=float) * width
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise InfiniteMassError("density must be finite and nonnegative")
        return z, lam

    @property
    def total_mass(self) -> float:
        _, lam = self.atoms
        return float(lam.sum())

    @property
    def c_eta(self) -> float:
        """Quadrature of (1 ^ z^2) against the truncated measure."""
        z, lam = self.atoms
        if len(z) == 0:
            return 0.0
        clip = np.minimum(1.0, np.abs(z))  # (1 ^ |z|)^2 = 1 ^ z^2, without overflow
        return float(np.sum(clip * clip * lam))

    @property
    def eta_is_zero(self) -> bool:
        """eta vanishes on a probe grid of states at the marks 0.5, 1 and 2,
        which tells the preset `eta_zero` from the nonzero presets."""
        probe = np.linspace(-2, 2, 9)
        return all(not np.any(self.eta(probe, z)) for z in (0.5, 1.0, 2.0))

    def compensator(self, u: np.ndarray) -> np.ndarray:
        """integral eta(u; z) m(dz) over the truncated measure, per node."""
        z, lam = self.atoms
        return _eta_outer(self.eta, u, z) @ lam

    def eta_sq_compensator(self, u: np.ndarray) -> np.ndarray:
        """integral eta(u; z)^2 m(dz), per node (isometry right-hand side)."""
        z, lam = self.atoms
        return _eta_outer(self.eta, u, z) ** 2 @ lam

    def validate(self):
        """Spot-check the structural assumptions; raises ValueError naming
        the violated one (A3 for eta, A4 for the measure)."""
        if not (0.0 < self.lambda_star < 1.0):
            raise ValueError(
                f"A3 violated: lambda_star must lie in (0,1), got {self.lambda_star}"
            )
        rng = np.random.default_rng(0)
        z_grid = np.concatenate([np.linspace(-2.0, 2.0, 17), rng.uniform(-5, 5, 50)])
        zero = np.zeros(1)
        for z in z_grid:
            if abs(float(np.asarray(self.eta(zero, z)).ravel()[0])) > 1e-14:
                raise ValueError(f"A3 violated: eta(0; z) != 0 at z={z}")
        u = rng.normal(0, 2, 200)
        v = rng.normal(0, 2, 200)
        for z in rng.uniform(-3, 3, 8):
            lhs = np.abs(self.eta(u, z) - self.eta(v, z))
            rhs = self.lambda_star * np.abs(u - v) * min(1.0, abs(z)) + 1e-12
            if np.any(lhs > rhs):
                raise ValueError(
                    "A3 violated: eta is not lambda_star-Lipschitz in u"
                )
        c = self.c_eta
        if not np.isfinite(c):
            raise ValueError("A4 violated: c_eta is not finite")
        return self


def _eta_outer(eta, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """eta on the (nodes x marks) outer grid: entry [..., i, j] = eta(u[..., i]; z_j)."""
    return eta(u[..., None], z)


def eta_zero():
    return lambda u, z: np.zeros(np.broadcast_shapes(np.shape(u), np.shape(z)))


def eta_linear(coef: float):
    """eta(u; z) = coef * u * (1 ^ |z|); Lipschitz constant coef."""
    return lambda u, z: coef * np.asarray(u, dtype=float) * np.minimum(1.0, np.abs(z))


def eta_sine(coef: float):
    """eta(u; z) = coef * sin(u) * (1 ^ |z|); Lipschitz constant coef."""
    return lambda u, z: coef * np.sin(u) * np.minimum(1.0, np.abs(z))


@dataclass(frozen=True)
class PrmPath:
    """Sampled jump events of one noise path on a uniform step grid.

    events[k] is a pair (times, marks) of equal-length arrays with
    t in (t_k, t_{k+1}], times strictly increasing.  Regenerating with the
    same (model, T, dt, seed) reproduces the path bitwise.
    """

    dt: float
    n_steps: int
    seed: int
    eps: float
    events: tuple = field(repr=False)

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    def jump_count(self, k: int = None) -> int:
        if k is None:
            return sum(len(t) for t, _ in self.events)
        return len(self.events[k][0])


class _StepDraws:
    """Per-step jump events of counter-based paths: step k of the path with
    seed s draws from Philox keyed by s with counter k, so its events depend
    on (s, k) alone.  One bit generator is re-keyed per draw, which gives
    the same stream as a fresh one at a fraction of the set-up cost."""

    def __init__(self, model: LevyModel, dt: float):
        z, lam = model.atoms
        self.total = float(lam.sum()) if len(lam) else 0.0
        if not np.isfinite(self.total):
            raise InfiniteMassError("truncated measure has infinite mass")
        self.z = z
        self.probs = lam / self.total if self.total > 0 else None
        self.dt = dt
        self.bits = np.random.Philox()
        self.rng = np.random.Generator(self.bits)

    def events(self, seed: int, k: int) -> tuple:
        """(times, marks) of step k: a Poisson(total_mass dt) count, then
        sorted uniform times in (t_k, t_{k+1}], then marks drawn i.i.d.
        proportional to the (discretized) measure."""
        if self.total == 0.0:
            return np.array([]), np.array([])
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([k, 0, 0, 0], dtype=np.uint64),
                      "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, _KEY_SALT], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        rng, dt = self.rng, self.dt
        count = int(rng.poisson(self.total * dt))
        if count == 0:
            return np.array([]), np.array([])
        # uniform in (t_k, t_{k+1}]: 1 - U with U in [0, 1)
        times = k * dt + dt * np.sort(1.0 - rng.random(count))
        if len(self.z) == 1:
            return times, np.full(count, self.z[0])
        return times, self.z[rng.choice(len(self.z), size=count, p=self.probs)]


def sample_prm(model: LevyModel, T: float, dt: float, seed: int) -> PrmPath:
    """Sample the truncated jump measure on [0, T] with step dt.

    Per step the jump count is Poisson(total_mass * dt) and marks are drawn
    i.i.d. proportional to the (discretized) measure.  T/dt must be integral.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T/dt must be a positive integer, got T={T}, dt={dt}")
    draws = _StepDraws(model, dt)
    events = tuple(draws.events(seed, k) for k in range(n_steps))
    return PrmPath(dt=dt, n_steps=n_steps, seed=seed, eps=model.eps, events=events)


def step_marks(model: LevyModel, dt: float, seeds, k: int = 0) -> list:
    """Jump marks of step k of each seed's path, bitwise those of
    sample_prm(model, T, dt, seed).events[k][1] for any horizon T > k dt."""
    draws = _StepDraws(model, dt)
    return [draws.events(seed, k)[1] for seed in seeds]


def compensated_increments(model: LevyModel, u_int: np.ndarray, marks: list,
                           dt: float) -> np.ndarray:
    """Interior increments of the compensated jump integral over one step,
    one row per entry of `marks`, with the integrand frozen at the rows of
    u_int (M, m) (or at u_int (m,) for every row):

        sum_{z in marks[i]} eta(u_int[i]; z)  -  dt * integral eta(u_int[i]; z) m(dz)
    """
    drift = dt * model.compensator(u_int)
    if any(map(len, marks)):
        return jump_sums(model, u_int, marks) - drift
    return np.broadcast_to(-drift, (len(marks), u_int.shape[-1]))  # no row jumps


def jump_sums(model: LevyModel, u_int: np.ndarray, marks: list) -> np.ndarray:
    """(M, m) sums of eta(u_int[i]; z) over the marks z of row i, for
    integrands u_int of shape (M, m) or one shared u_int of shape (m,); one
    eta evaluation over all marks and one scatter into the rows."""
    m = u_int.shape[-1]
    rows = np.repeat(np.arange(len(marks)), [len(z) for z in marks])
    z = np.concatenate(marks)
    jumps = model.eta(u_int if u_int.ndim == 1 else u_int[rows], z[:, None])
    index = (m * rows[:, None] + np.arange(m)).ravel()
    return np.bincount(index, jumps.ravel(), len(marks) * m).reshape(len(marks), m)


def isometry_rhs(model: LevyModel, u: Field, dt: float) -> float:
    """Closed-form second moment of the compensated increment:
    dt * integral ||eta(u; z)||_{L^2}^2 m(dz)."""
    idx = u.grid.interior_nodes
    per_node = model.eta_sq_compensator(u.flat[idx])
    return float(dt * np.sum(per_node) * u.grid.cell_weight)
