"""Uniform grids on the unit interval/square, nodal fields, and discrete operators.

The domain is (0,1)^dim with dim in {1, 2}, discretized by n_cells per axis
(mesh width h = 1/n_cells, nodes at the h-lattice including the boundary).
Gradients are forward differences evaluated per cell; the divergence is the
negative adjoint of the gradient with respect to the nodal inner product, so
discrete integration by parts holds to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ZERO_BOUNDARY = "zero_boundary"
FREE_BOUNDARY = "free_boundary"


class GridMismatchError(ValueError):
    """Two fields from different grids were combined."""


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on (0,1)^dim.

    Nodes carry the unknowns; cells carry gradient values.  All operator
    matrices act on the flattened (C-order) nodal vector and are cached on
    first use, so a Grid can be shared read-only between concurrent runs.
    """

    dim: int
    n_cells: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_cells < 2:
            raise ValueError(
                f"n_cells must be >= 2 (need interior nodes), got {self.n_cells}"
            )

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def node_shape(self) -> tuple:
        return (self.n_cells + 1,) * self.dim

    @property
    def n_nodes(self) -> int:
        return (self.n_cells + 1) ** self.dim

    @property
    def n_cells_total(self) -> int:
        return self.n_cells**self.dim

    @property
    def cell_weight(self) -> float:
        return self.h**self.dim

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask over flattened nodes, True on the boundary."""
        n = self.n_cells
        if self.dim == 1:
            mask = np.zeros(n + 1, dtype=bool)
            mask[0] = mask[n] = True
            return mask
        mask = np.zeros((n + 1, n + 1), dtype=bool)
        mask[0, :] = mask[n, :] = mask[:, 0] = mask[:, n] = True
        return mask.ravel()

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Coordinates of all nodes, shape (n_nodes, dim), C-order."""
        n = self.n_cells
        axis = np.linspace(0.0, 1.0, n + 1)
        if self.dim == 1:
            return axis[:, None]
        x, y = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([x.ravel(), y.ravel()])

    @cached_property
    def grad_ops(self) -> tuple:
        """Sparse matrices (one per axis) mapping nodal values to per-cell
        gradient components.

        In 1D the cell value is the forward difference (f[i+1]-f[i])/h.  In 2D
        it is the gradient of the bilinear interpolant at the cell center,
        i.e. the mean of the two forward differences across the cell.
        """
        n, h = self.n_cells, self.h
        if self.dim == 1:
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

    def cell_gradient(self, v: np.ndarray) -> np.ndarray:
        """Per-cell gradient components of the flattened nodal vector v,
        shape (dim, n_cells_total): the action of `grad_ops` as a stencil."""
        n, h = self.n_cells, self.h
        if self.dim == 1:
            return ((v[1:] - v[:-1]) / h)[None, :]
        V = v.reshape(n + 1, n + 1)
        diag = V[1:, 1:] - V[:-1, :-1]
        anti = V[1:, :-1] - V[:-1, 1:]
        c = 0.5 / h
        return np.stack([(c * (diag + anti)).ravel(), (c * (diag - anti)).ravel()])

    def cell_gradient_adjoint(self, q: np.ndarray) -> np.ndarray:
        """Flattened nodal vector sum_d grad_ops[d].T @ q[d] for per-cell
        components q of shape (dim, n_cells_total)."""
        n, h = self.n_cells, self.h
        if self.dim == 1:
            out = np.zeros(n + 1)
            out[:-1] -= q[0]
            out[1:] += q[0]
            return out / h
        c = 0.5 / h
        qx, qy = c * q[0].reshape(n, n), c * q[1].reshape(n, n)
        diag, anti = qx + qy, qx - qy
        out = np.zeros((n + 1, n + 1))
        out[1:, 1:] += diag
        out[:-1, :-1] -= diag
        out[1:, :-1] += anti
        out[:-1, 1:] -= anti
        return out.ravel()

    @cached_property
    def conv_edges(self) -> tuple:
        """Per-axis edge lists (idx_a, idx_b, weight) for the conservative
        convection form  sum_e w_e * q_e(u) * (phi[b]-phi[a]).

        Edge weights are h^(dim-1) with trapezoidal halving on transverse
        boundary lines; this makes the form telescope exactly along grid
        lines, so the convection integral vanishes for zero-boundary fields.
        """
        n, h = self.n_cells, self.h
        if self.dim == 1:
            a = np.arange(n)
            return ((a, a + 1, np.ones(n)),)

        node = lambda i, j: i * (n + 1) + j
        theta = np.ones(n + 1)
        theta[0] = theta[n] = 0.5
        # x-edges: i -> i+1 along each node row j
        i, j = np.meshgrid(np.arange(n), np.arange(n + 1), indexing="ij")
        wx = (theta[j] * h).ravel()
        ax, bx = node(i, j).ravel(), node(i + 1, j).ravel()
        # y-edges: j -> j+1 along each node column i
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
        wy = (theta[i] * h).ravel()
        ay, by = node(i, j).ravel(), node(i, j + 1).ravel()
        return ((ax, bx, wx), (ay, by, wy))

    @cached_property
    def _laplacian_lu(self):
        """Factorized interior discrete Laplacian (for Poisson seeds)."""
        wc = self.cell_weight
        L = sum(g.T @ (wc * g) for g in self.grad_ops).tocsc()
        idx = self.interior_nodes
        return spla.splu(L[np.ix_(idx, idx)])

    def poisson_solve(self, rhs_interior: np.ndarray) -> np.ndarray:
        """Solve the interior nodal system -div(grad(phi)) = rhs, phi = 0 on
        the boundary; returns the full nodal vector."""
        out = np.zeros(self.n_nodes)
        out[self.interior_nodes] = self._laplacian_lu.solve(
            rhs_interior * self.cell_weight
        )
        return out


class Field:
    """Scalar nodal function on a Grid.

    zero_boundary fields vanish exactly on boundary nodes (the discrete
    counterpart of a zero Dirichlet trace); free_boundary fields are
    unconstrained.  Values are stored full-shape and should be treated as
    immutable once the field is constructed.
    """

    __slots__ = ("grid", "values", "space_tag")

    def __init__(self, grid: Grid, values, space_tag: str = ZERO_BOUNDARY):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.node_shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid nodes {grid.node_shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if space_tag not in (ZERO_BOUNDARY, FREE_BOUNDARY):
            raise ValueError(f"unknown space_tag {space_tag!r}")
        if space_tag == ZERO_BOUNDARY:
            flat = values.ravel()
            if np.any(flat[grid.boundary_nodes] != 0.0):
                raise ValueError("zero_boundary field has nonzero boundary values")
        self.grid = grid
        self.values = values
        self.space_tag = space_tag

    @classmethod
    def zeros(cls, grid: Grid, space_tag: str = ZERO_BOUNDARY) -> "Field":
        return cls(grid, np.zeros(grid.node_shape), space_tag)

    @classmethod
    def from_function(cls, grid: Grid, fn, space_tag: str = ZERO_BOUNDARY) -> "Field":
        """Sample fn(x) (1D) or fn(x, y) (2D) at the nodes."""
        coords = grid.node_coords
        vals = fn(*(coords[:, d] for d in range(grid.dim)))
        vals = np.asarray(vals, dtype=float).reshape(grid.node_shape)
        if space_tag == ZERO_BOUNDARY:
            flat = vals.ravel()
            flat[grid.boundary_nodes] = 0.0
            vals = flat.reshape(grid.node_shape)
        return cls(grid, vals, space_tag)

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.space_tag)

    def clamp_boundary(self) -> "Field":
        """Project onto the zero-boundary space by zeroing boundary nodes."""
        flat = self.flat.copy()
        flat[self.grid.boundary_nodes] = 0.0
        return Field(self.grid, flat.reshape(self.grid.node_shape), ZERO_BOUNDARY)

    def _combine_tag(self, other: "Field") -> str:
        if self.space_tag == ZERO_BOUNDARY and other.space_tag == ZERO_BOUNDARY:
            return ZERO_BOUNDARY
        return FREE_BOUNDARY

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values, self._combine_tag(other))

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values, self._combine_tag(other))

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c), self.space_tag)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"Field(dim={self.grid.dim}, n_cells={self.grid.n_cells}, "
            f"{self.space_tag}, |v|_max={np.abs(self.values).max():.3g})"
        )


def _check_same_grid(f: Field, g: Field):
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


# ---------------------------------------------------------------------------
# differential operators and norms


def gradient(f: Field) -> np.ndarray:
    """Per-cell gradient, shape (n_cells_total, dim)."""
    return f.grid.cell_gradient(f.flat).T


def div_flux(grid: Grid, cell_flux: np.ndarray) -> Field:
    """Discrete divergence of a per-cell vector field, defined as the
    negative adjoint of `gradient`:

        l2_inner(div_flux(G), phi) == -sum_cells G . grad(phi) * h^dim

    for every zero-boundary phi, exactly.  Returns a zero-boundary Field.
    """
    cell_flux = np.asarray(cell_flux, dtype=float)
    if cell_flux.shape != (grid.n_cells_total, grid.dim):
        raise ValueError("cell_flux must have shape (n_cells_total, dim)")
    acc = grid.cell_gradient_adjoint(cell_flux.T)
    # acc[i] = (1/h^dim) * d/dphi_i [ sum_cells G . grad(phi) h^dim ]; negate
    # and zero the boundary rows to land in the zero-boundary space.
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = -acc[grid.interior_nodes]
    return Field(grid, vals.reshape(grid.node_shape), ZERO_BOUNDARY)


def lp_grad_norm(f: Field, p: float) -> float:
    """(sum_cells |grad f|^p h^dim)^(1/p); the gradient seminorm used as the
    W_0^{1,p} norm.  Rejects p <= 1."""
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    g = gradient(f)
    mag = np.sqrt(np.sum(g * g, axis=1)) if f.grid.dim > 1 else np.abs(g[:, 0])
    return float(np.sum(mag**p) * f.grid.cell_weight) ** (1.0 / p)


def l2_inner(f: Field, g: Field) -> float:
    """Nodal inner product over interior nodes, weight h^dim."""
    _check_same_grid(f, g)
    idx = f.grid.interior_nodes
    return float(np.dot(f.flat[idx], g.flat[idx]) * f.grid.cell_weight)


def l2_norm(f: Field) -> float:
    idx = f.grid.interior_nodes
    v = f.flat[idx]
    return float(np.sqrt(np.dot(v, v) * f.grid.cell_weight))


def l1_norm(f: Field) -> float:
    idx = f.grid.interior_nodes
    return float(np.sum(np.abs(f.flat[idx])) * f.grid.cell_weight)


def nodal_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal quadrature weights over all nodes (flattened)."""
    n = grid.n_cells
    w1 = np.ones(n + 1)
    w1[0] = w1[n] = 0.5
    if grid.dim == 1:
        return w1 * grid.h
    return np.outer(w1, w1).ravel() * grid.h**2


def w1p_norm(f: Field, p: float) -> float:
    """Discrete W^{1,p} norm: (sum |f|^p w_node + sum_cells |grad f|^p h^dim)^(1/p).

    Nodal part uses trapezoidal weights so free-boundary fields are handled
    consistently; for zero-boundary fields it reduces to the interior sum.
    """
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    w = nodal_weights(f.grid)
    val = float(np.sum(np.abs(f.flat) ** p * w))
    return (val + lp_grad_norm(f, p) ** p) ** (1.0 / p)


def dual_norm_estimate(g: Field, p: float, iters: int = 30) -> float:
    """Lower bound for the negative-order dual norm

        sup { l2_inner(g, phi) / lp_grad_norm(phi, p) : phi zero-boundary }

    by normalized gradient ascent.  The iterate path is deterministic and
    scale-equivariant in g, so the estimate is exactly homogeneous; it is
    nondecreasing in `iters` because the best value seen is returned.
    """
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if g.space_tag != ZERO_BOUNDARY:
        raise ValueError("dual norm is defined for zero-boundary fields")
    grid = g.grid
    g_int = g.flat[grid.interior_nodes]
    if not np.any(g_int):
        return 0.0

    def normalized(vec: np.ndarray) -> np.ndarray | None:
        phi = Field(grid, vec.reshape(grid.node_shape), ZERO_BOUNDARY)
        nrm = lp_grad_norm(phi, p)
        if nrm == 0.0:
            return None
        return vec / nrm

    def pairing(vec: np.ndarray) -> float:
        return abs(float(np.dot(vec[grid.interior_nodes], g_int) * grid.cell_weight))

    # seed with the discrete Poisson solution (exact maximizer at p = 2) and
    # ascend along the scale-free direction of g itself
    phi = normalized(grid.poisson_solve(g_int))
    if phi is None:
        phi = normalized(_embed_interior(grid, g_int))
    if phi is None:
        return 0.0
    ascent = normalized(_embed_interior(grid, g_int))
    best = pairing(phi)
    step = 1.0
    for _ in range(iters - 1):
        if ascent is None:
            break
        sgn = 1.0 if np.dot(phi[grid.interior_nodes], g_int) >= 0 else -1.0
        cand = normalized(phi + step * sgn * ascent)
        if cand is not None and pairing(cand) > best:
            best = pairing(cand)
            phi = cand
            step *= 1.5
        else:
            step *= 0.5
    return best


def _embed_interior(grid: Grid, interior_vals: np.ndarray) -> np.ndarray:
    out = np.zeros(grid.n_nodes)
    out[grid.interior_nodes] = interior_vals
    return out
