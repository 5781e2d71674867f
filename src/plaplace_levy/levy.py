"""Jump-noise model: truncated intensity measure, per-step jump sampling, and
compensated increments of the noise coefficient eta.

The intensity measure is either a finite list of point masses (z_j, lam_j) or
a density, |z|^-2 (`invsq`) or 1 (`uniform`), with small-jump truncation
|z| > eps, so its truncated mass is finite by construction (assumption A4).
Densities are discretized once by a composite midpoint rule (_N_QUAD = 256
nodes) on [-z_max, -eps] u [eps, z_max]; the same discretization drives both
the compensator integral and the jump-mark sampler, so the two stay
consistent.

Sampling is counter-based (Philox keyed by the path seed, counter = step), so
paths are reproducible bitwise and a step's events depend on (seed, step)
alone.  The draws of a whole batch of (seed, step) lanes are decoded from
vectorized Philox4x64-10 blocks, bitwise what numpy's Generator draws from a
Philox keyed per lane.
"""

from __future__ import annotations

import math
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
    """Jump model: intensity measure, noise coefficient eta, and the
    contraction constant lambda_star of eta in u.

    eta is separable, eta(u; z) = c f(u) (1 ^ |z|) with f one of 0, u and
    sin u (the pair (kind, c) from `eta_zero`, `eta_linear` or `eta_sine`),
    so eta(0; z) = 0 and Lip(f) = 1 hold by construction, and assumption A3,
    |eta(u;z) - eta(v;z)| <= lambda_star |u-v| (1 ^ |z|) with
    0 < lambda_star < 1, holds iff |c| <= lambda_star; `validate` checks it.
    """

    eta: tuple  # (kind, c)
    lambda_star: float
    point_masses: tuple = ()  # ((z, lam), ...)
    density: str = None  # "invsq", "uniform" or None
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
        if self.density == "uniform":
            return z, np.full(z.size, width)
        # per atom in Python arithmetic: numpy's vectorized power may differ
        # from pow in the last bit, which would move the atom masses
        return z, np.array([abs(zz) ** -2 for zz in z.tolist()]) * width

    # the masses below are read in every Newton iteration of a march or a
    # trajectory solve, so each is computed once per model, like `atoms`
    @cached_property
    def total_mass(self) -> float:
        _, lam = self.atoms
        return float(lam.sum())

    @cached_property
    def mark_mass(self) -> float:
        """Quadrature of (1 ^ |z|) against the truncated measure."""
        z, lam = self.atoms
        return float(np.minimum(1.0, np.abs(z)) @ lam)

    @cached_property
    def c_eta(self) -> float:
        """Quadrature of (1 ^ z^2) against the truncated measure."""
        z, lam = self.atoms
        if len(z) == 0:
            return 0.0
        clip = np.minimum(1.0, np.abs(z))  # (1 ^ |z|)^2 = 1 ^ z^2, without overflow
        return float(np.sum(clip * clip * lam))

    @property
    def eta_is_zero(self) -> bool:
        return self.eta[1] == 0

    def eta_u(self, u: np.ndarray) -> np.ndarray:
        """c f(u), the factor of eta(u; z) = c f(u) (1 ^ |z|) that depends on u."""
        kind, c = self.eta
        return c * (np.sin(u) if kind == "sine" else u)

    def eta_du(self, u: np.ndarray) -> np.ndarray:
        """c f'(u), the derivative of `eta_u` in u: 0, c or c cos u."""
        kind, c = self.eta
        return c * np.cos(u) if kind == "sine" else np.full(np.shape(u), c)

    def eta_sq_compensator(self, u: np.ndarray) -> np.ndarray:
        """integral eta(u; z)^2 m(dz), per node (isometry right-hand side)."""
        return self.eta_u(u) ** 2 * self.c_eta

    def validate(self):
        """Check the structural assumptions; raises ValueError naming the
        violated one (A3 for eta, A4 for the measure)."""
        if self.density not in (None, "invsq", "uniform"):
            raise ValueError(f"unknown density {self.density!r}")
        if not (0.0 < self.lambda_star < 1.0):
            raise ValueError(
                f"A3 violated: lambda_star must lie in (0,1), got {self.lambda_star}"
            )
        if not abs(self.eta[1]) <= self.lambda_star:
            raise ValueError("A3 violated: eta is not lambda_star-Lipschitz in u")
        c = self.c_eta
        if not np.isfinite(c):
            raise ValueError("A4 violated: c_eta is not finite")
        return self


def eta_zero() -> tuple:
    """eta = 0."""
    return ("zero", 0.0)


def eta_linear(coef: float) -> tuple:
    """eta(u; z) = coef * u * (1 ^ |z|); Lipschitz constant coef."""
    return ("linear", float(coef))


def eta_sine(coef: float) -> tuple:
    """eta(u; z) = coef * sin(u) * (1 ^ |z|); Lipschitz constant coef."""
    return ("sine", float(coef))


@dataclass(frozen=True)
class PrmPath:
    """Sampled jump events of one noise path on a uniform step grid.

    counts[k] is the number of jumps in step k; marks holds the marks of
    every step's jumps, step by step, in draw order.  Sampling the same
    (model, dt, seed) again reproduces the path bitwise.
    """

    seed: int
    counts: np.ndarray = field(repr=False)
    marks: np.ndarray = field(repr=False)

    def jump_count(self, k: int = None) -> int:
        return int(self.counts.sum() if k is None else self.counts[k])

    @cached_property
    def step_sums(self) -> np.ndarray:
        """`mark_sums` of each step, (n_steps,), read-only: what every solve
        on this path adds to its right-hand sides, computed once per path."""
        sums = mark_sums(self.counts, self.marks)
        sums.flags.writeable = False
        return sums


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) with numpy's multipliers and key increments, as (2, 1)
# columns: a round multiplies counter words 0 and 2, stacked on a leading
# axis, in one operation (a trailing axis of two is several times slower)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MASK64 = (1 << 64) - 1
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _32


def _philox(ctr: tuple, key: tuple) -> np.ndarray:
    """The Philox4x64-10 blocks at the counters ctr = (c0, c1, c2, c3) under
    the keys key = (k0, k1), words that broadcast, as uint64 (..., 4):
    numpy's Philox(counter=c, key=k).random_raw(4) for the counter c + 1.
    Each round runs in place on (2, lanes) work arrays allocated once."""
    words = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64) for w in (*ctr, *key)))
    c0, c1, c2, c3, k0, k1 = (w.ravel() for w in words)
    even, odd, key = np.stack([c0, c2]), np.stack([c1, c3]), np.stack([k0, k1])
    hi, lo, x_lo, x_hi, t, u = (np.empty_like(even) for _ in range(6))
    for r in range(10):
        if r:
            key += _PHILOX_W
        # the 128-bit products hi:lo = _PHILOX_M * even, from 32-bit halves
        np.multiply(even, _PHILOX_M, out=lo)
        np.bitwise_and(even, _LO32, out=x_lo)
        np.right_shift(even, _32, out=x_hi)
        np.multiply(x_lo, _M_LO, out=t)
        t >>= _32
        np.multiply(x_hi, _M_LO, out=u)
        u += t
        np.bitwise_and(u, _LO32, out=t)
        x_lo *= _M_HI
        x_lo += t  # the middle product with carry
        np.multiply(x_hi, _M_HI, out=hi)
        u >>= _32
        hi += u
        x_lo >>= _32
        hi += x_lo
        # even, odd = swapped hi ^ odd ^ key, swapped lo
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= key
        np.copyto(odd, lo[::-1])
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(*words[0].shape, 4)


def _uniforms(keys: np.ndarray, steps: np.ndarray, n_blocks: int) -> np.ndarray:
    """The first 4 n_blocks doubles (lanes, 4 n_blocks) that numpy's
    Generator draws from the Philox keyed by (keys[i], _KEY_SALT) with
    counter (steps[i], 0, 0, 0): its stream starts at block steps[i] + 1, so
    from the second block on step k's stream is step k + 1's (see the
    README's numerical notes).  A double is (raw >> 11) 2^-53."""
    ctr = (steps[:, None] + np.arange(1, n_blocks + 1, dtype=np.uint64), 0, 0, 0)
    raw = _philox(ctr, (keys[:, None], _KEY_SALT))
    return (raw.reshape(len(keys), 4 * n_blocks) >> np.uint64(11)) * 2.0**-53


# A Philox pass decodes at most this many (lane, block) pairs (512 KB of
# doubles); a call with more is decoded in chunks of lanes.
_PASS_BLOCKS = 1 << 14


def _decoded_events(keys: np.ndarray, steps: np.ndarray, lam: float, cdf: np.ndarray,
                    z: np.ndarray, per_jump: int, n_blocks: int) -> tuple:
    """(counts, marks) of the lanes (keys[i], steps[i]) for a Poisson mean
    lam < 10, decoded from numpy's draw order: the count by the
    multiplication method (the first index at which the running product of
    the doubles is <= exp(-lam)), then one double per jump for its time,
    stepped over, then one per jump for its mark (the inverse of cdf):
    per_jump = 3 doubles read per jump, or 1 for a single atom, whose marks
    are drawn from nothing.  Lanes whose draws run past n_blocks blocks take
    another pass."""
    enlam = math.exp(-lam)
    counts = np.zeros(len(keys), dtype=np.int64)
    passes = []
    todo = np.arange(len(keys))
    while todo.size:
        u = _uniforms(keys[todo], steps[todo], n_blocks)
        hit = np.cumprod(u, axis=1) <= enlam
        c = hit.argmax(axis=1)
        need = 1 + per_jump * c
        done = hit.any(axis=1) & (need <= u.shape[1])
        counts[todo[done]] = c[done]
        passes.append((todo[done], u[done]))
        todo = todo[~done]
        n_blocks = max(2 * n_blocks, -(-int(need.max()) // 4))
    if per_jump == 1:
        return counts, np.full(int(counts.sum()), z[0])
    first = np.cumsum(counts) - counts
    draws = np.empty(int(counts.sum()))  # U of each mark
    for lanes, u in passes:
        c = counts[lanes]
        row = np.repeat(np.arange(len(lanes)), c)
        j = np.arange(len(row)) - np.repeat(np.cumsum(c) - c, c)
        draws[first[lanes][row] + j] = u[row, 2 * c[row] + 1 + j]
    return counts, z[cdf.searchsorted(draws, side="right")]


def _generated_events(keys: np.ndarray, steps: np.ndarray, lam: float, probs: np.ndarray,
                      z: np.ndarray) -> tuple:
    """(counts, marks) of the lanes from numpy's Generator, one re-keyed
    Philox per lane: for a Poisson mean lam >= 10, where numpy draws the
    count by rejection (PTRS) and `_decoded_events` does not apply."""
    bits = np.random.Philox()
    rng = np.random.Generator(bits)
    counts, marks = [], [np.empty(0)]
    for key, k in zip(keys.tolist(), steps.tolist()):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([k, 0, 0, 0], dtype=np.uint64),
                      "key": np.array([key, _KEY_SALT], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        count = int(rng.poisson(lam))
        counts.append(count)
        rng.random(count)  # the jump times, drawn to reach the marks
        marks.append(z[rng.choice(len(z), size=count, p=probs)] if len(z) > 1
                     else np.full(count, z[0]))
    return np.array(counts, dtype=np.int64), np.concatenate(marks)


def step_events(model: LevyModel, dt: float, seeds, steps) -> tuple:
    """Jump events of the steps `steps` of each seed's path.  Lane (s, k)
    is step k of seed s; lanes run seed by seed, and by `steps` within a
    seed.  Returns the per-lane counts and the lanes' marks, flat in lane
    order.

    Lane (s, k) draws what numpy's Generator draws from the Philox keyed by
    (s mod 2^64, _KEY_SALT) with counter (k, 0, 0, 0), bitwise: a
    Poisson(total_mass dt) count, then uniform jump times in (t_k, t_{k+1}],
    which nothing reads, then marks drawn i.i.d. proportional to the
    (discretized) measure.  Its events depend on (s, k) alone."""
    z, lam = model.atoms
    total = float(lam.sum()) if len(lam) else 0.0
    if not np.isfinite(total):
        raise InfiniteMassError("truncated measure has infinite mass")
    if np.any(lam < 0):
        raise ValueError("jump masses must be nonnegative")
    steps = np.asarray(steps, dtype=np.uint64)
    if isinstance(seeds, range):  # s mod 2^64 by wrapping uint64 arithmetic, no Python loop
        keys = (np.uint64(seeds.start & _MASK64)
                + np.uint64(seeds.step & _MASK64) * np.arange(len(seeds), dtype=np.uint64))
    else:
        keys = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    keys, steps = np.repeat(keys, len(steps)), np.tile(steps, len(keys))
    if total == 0.0 or len(keys) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.empty(0)
    mean = total * dt
    probs = lam / total
    if mean >= 10.0:
        return _generated_events(keys, steps, mean, probs, z)
    cdf = probs.cumsum()  # as Generator.choice forms it
    cdf /= cdf[-1]
    per_jump = 3 if len(z) > 1 else 1  # doubles read per jump: Poisson, time, mark; or Poisson
    # the first pass holds a count up to mean + 3 sqrt(mean) + 1, which a
    # lane exceeds with a chance below 0.5% (about mean^2 / 2 if small)
    n_blocks = -(-(1 + per_jump * int(mean + 3.0 * math.sqrt(mean) + 1.0)) // 4)
    chunk = max(1, _PASS_BLOCKS // n_blocks)
    parts = [_decoded_events(keys[i : i + chunk], steps[i : i + chunk], mean, cdf, z,
                             per_jump, n_blocks) for i in range(0, len(keys), chunk)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def sample_prms(model: LevyModel, dt: float, n_steps: int, seeds) -> list:
    """Sample the truncated jump measure on n_steps steps of size dt, one
    path per seed, every step of every path from one `step_events` call
    (no events when n_steps = 0)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    seeds = list(seeds)
    counts, marks = step_events(model, dt, seeds, range(n_steps))
    counts = counts.reshape(len(seeds), n_steps)
    ends = np.cumsum(counts.sum(axis=1))[:-1]
    return [PrmPath(seed=s, counts=c, marks=m)
            for s, c, m in zip(seeds, counts, np.split(marks, ends))]


def mark_sums(counts: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Per entry of `counts` (any shape), the sum of (1 ^ |z|) over its marks,
    where the flat `marks` hold counts.ravel()[i] marks for entry i, entry
    by entry: one `np.bincount`."""
    counts = np.asarray(counts)
    entries = np.repeat(np.arange(counts.size), counts.ravel())
    return np.bincount(entries, np.minimum(1.0, np.abs(marks)), counts.size).reshape(counts.shape)


def compensated_increments(model: LevyModel, u_int: np.ndarray, sums: np.ndarray,
                           dt: float) -> np.ndarray:
    """Interior increments of the compensated jump integral over one step,
    one row per entry of `sums` (the rows' `mark_sums` of the step), with
    the integrand frozen at the rows of u_int (M, m) (or at u_int (m,) for
    every row):

        sum_{z in marks of row i} eta(u_int[i]; z)  -  dt * integral eta(u_int[i]; z) m(dz)
            = c f(u_int[i]) (sums[i] - dt * mark_mass)"""
    if model.eta_is_zero:
        return np.zeros((len(sums), u_int.shape[-1]))
    return model.eta_u(u_int) * (sums - dt * model.mark_mass)[:, None]


def isometry_rhs(model: LevyModel, u: Field, dt: float) -> float:
    """Closed-form second moment of the compensated increment:
    dt * integral ||eta(u; z)||_{L^2}^2 m(dz)."""
    idx = u.grid.interior_nodes
    per_node = model.eta_sq_compensator(u.flat[idx])
    return float(dt * np.sum(per_node) * u.grid.cell_weight)
