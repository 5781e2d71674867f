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

from ._lapack import BandLU

ZERO_BOUNDARY = "zero_boundary"
FREE_BOUNDARY = "free_boundary"


class GridMismatchError(ValueError):
    """Two fields from different grids were combined."""


class _RowTable:
    """A fixed index table scattered into each row of a stack whose rows lie
    `stride` apart in memory: one bincount for all rows, through the table
    repeated with offsets r * stride.  The repeated index for r rows is a
    prefix of the one for more rows, so one array serves every row count;
    its capacity doubles as stacks grow.  Gathers need no such table: they
    take along the last axis with the plain index."""

    def __init__(self, index: np.ndarray, stride: int):
        self.index = index
        self.stride = stride
        self._full = index.ravel()

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """Per-row sums of w (rows of index.size values, row by row) at the
        table's positions: flat array of rows * stride values."""
        size, full, k = w.size, self._full, self.index.size
        if full.size < size:
            offsets = self.stride * np.arange(max(size, 2 * full.size) // k)[:, None]
            full = self._full = (offsets + self.index.ravel()).ravel()
        return np.bincount(full[:size], w.ravel(), size // k * self.stride)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on (0,1)^dim.

    Nodes carry the unknowns; cells carry gradient values.  Operators act on
    the flattened (C-order) nodal vector or on each row of a stack of them;
    their index tables are cached on first use, so a Grid can be shared
    read-only between concurrent runs.
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
    def _coords(self) -> np.ndarray:
        """(dim, n_nodes) integer lattice coordinates of the flattened nodes."""
        return np.indices(self.node_shape).reshape(self.dim, -1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask over flattened nodes, True on the boundary."""
        return np.any((self._coords == 0) | (self._coords == self.n_cells), axis=0)

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Coordinates of all nodes, shape (n_nodes, dim), C-order."""
        return self._coords.T / self.n_cells

    def cell_gradient(self, v: np.ndarray) -> np.ndarray:
        """Per-cell gradient components of a flattened nodal vector v
        (n_nodes,), shape (dim, n_cells_total), or of each row of a stack
        v (..., n_nodes), shape (..., dim, n_cells_total).  In 1D the cell value
        is the forward difference (v[i+1]-v[i])/h; in 2D it is the gradient
        of the bilinear interpolant at the cell center, the mean of the two
        forward differences across the cell."""
        return self.local_gradient @ self.take("corners", v)

    def cell_gradient_adjoint(self, q: np.ndarray) -> np.ndarray:
        """Adjoint of `cell_gradient`: the flattened nodal vector(s) that
        scatter G^T q[..., :, c] to the corners of each cell c, for per-cell
        components q of shape (dim, n_cells_total) or (M, dim, n_cells_total)."""
        return self.scatter_nodes("corners", self.local_gradient.T @ q)

    def take(self, table: str, v: np.ndarray) -> np.ndarray:
        """Values of a nodal vector v (n_nodes,), or of each row of a stack
        v (..., n_nodes), at a fixed node table, taken along the last axis:
        "corners" (2^dim, n_cells_total), the corner nodes of each cell,
        corner by corner; "interior" (m,); "edges" (2, n_edges), the
        convection edge ends of `conv_edges`."""
        return v.take(self._tables[table].index, axis=-1)

    def scatter_nodes(self, table: str, w: np.ndarray) -> np.ndarray:
        """Nodal sums of weights w at the nodes of a `take` table ("corners"
        or "edges"; w of the table's shape, or a stack of them), one bincount
        for all rows: shape (n_nodes,) or (M, n_nodes)."""
        nodes = self._tables[table]
        return nodes.scatter(w).reshape(*w.shape[: w.ndim - nodes.index.ndim], self.n_nodes)

    @cached_property
    def _tables(self) -> dict:
        n = self.n_nodes
        return {
            "corners": _RowTable(np.ascontiguousarray(self.cell_nodes.T), n),
            "interior": _RowTable(self.interior_nodes, n),
            "edges": _RowTable(self.conv_edges[0], n),
        }

    @cached_property
    def conv_edges(self) -> tuple:
        """Edges (nodes, axis, w) of the conservative convection form
        sum_e w_e * q_e(u) * (phi[b]-phi[a]), axes concatenated.

        nodes (2, n_edges) holds the a and b ends, b one step past a along
        the edge's axis d, and axis (n_edges,) holds d.  Edge weights are
        h^(dim-1) with trapezoidal halving on transverse boundary lines;
        this makes the form telescope exactly along grid lines, so the
        convection integral vanishes for zero-boundary fields.  Edges with
        both ends on the boundary touch only boundary rows and are left
        out.
        """
        n, dim = self.n_cells, self.dim
        theta = np.ones(n + 1)
        theta[[0, n]] = 0.5
        coords = self._coords
        parts = []
        for d in range(dim):
            a = np.flatnonzero(coords[d] < n)
            w = self.h ** (dim - 1) * np.prod(theta[np.delete(coords[:, a], d, 0)], axis=0)
            parts.append((a, a + (n + 1) ** (dim - 1 - d), w, np.full(a.size, d)))
        a, b, w, axis = (np.concatenate(x) for x in zip(*parts))
        keep = ~(self.boundary_mask[a] & self.boundary_mask[b])
        return np.stack([a, b])[:, keep], axis[keep], w[keep]

    @cached_property
    def interior_index(self) -> np.ndarray:
        """Number of each flattened node among the interior unknowns (C order);
        -1 on the boundary."""
        return np.where(self.boundary_mask, -1, np.cumsum(~self.boundary_mask) - 1)

    @cached_property
    def _corner_bits(self) -> np.ndarray:
        """(dim, 2^dim): cell corner k lies at offset bit (dim-1-d) of k along axis d."""
        return (np.arange(2**self.dim) >> np.arange(self.dim - 1, -1, -1)[:, None]) & 1

    @cached_property
    def cell_nodes(self) -> np.ndarray:
        """(n_cells_total, 2^dim) corner nodes of each cell, cells in
        `cell_gradient` order."""
        n, dim = self.n_cells, self.dim
        stride = (n + 1) ** np.arange(dim - 1, -1, -1)
        lower = np.indices((n,) * dim).reshape(dim, -1).T @ stride
        return lower[:, None] + stride @ self._corner_bits

    @cached_property
    def local_gradient(self) -> np.ndarray:
        """(dim, 2^dim) matrix G with cell_gradient(v)[:, c] = G @ v[cell_nodes[c]]."""
        return (2.0 * self._corner_bits - 1.0) / (2 ** (self.dim - 1) * self.h)

    @cached_property
    def local_block_basis(self) -> np.ndarray:
        """(1 + dim^2, 4^dim) raveled G^T G and G_d^T G_e (row 1 + dim d + e)
        for the `local_gradient` G, so that the per-cell blocks
        G^T (c0 I + c1 g g^T) G are the product [c0, c1 g_d g_e] @ basis."""
        G = self.local_gradient
        outer = G[:, None, :, None] * G[None, :, None, :]  # [d, e, k, l] = G_dk G_el
        return np.vstack([(G.T @ G).ravel(), outer.reshape(self.dim**2, -1)])

    @cached_property
    def step_band(self) -> "BandScatter":
        """Scatter of the interior step matrix into LAPACK gbtrf band storage."""
        tables, idx = [], self.interior_index
        for nodes in (self.cell_nodes, self.conv_edges[0].T):
            i, j = (x.ravel() for x in np.broadcast_arrays(
                idx[nodes[:, :, None]], idx[nodes[:, None, :]]))
            take = np.flatnonzero((i >= 0) & (j >= 0))
            tables.append((take, i[take], j[take]))
        kl = max(int(np.abs(i - j).max(initial=0)) for _, i, j in tables)
        # gbtrf (kl = ku) keeps A[i, j] at row 2 kl + i - j of column j
        pos = np.concatenate([j * (3 * kl + 1) + 2 * kl + i - j for _, i, j in tables])
        # entry (r, c) of edge e's block is -+ w_e d q_e / d(end c), rows
        # r = a, b of the form sum_e w_e q_e (phi[b] - phi[a])
        take = tables[1][0]
        e, r, c = take // 4, take // 2 % 2, take % 2
        n_edges = self.conv_edges[0].shape[1]
        m = self.interior_nodes.size
        n_cell = tables[0][0].size
        return BandScatter(
            kl=kl,
            m=m,
            cell_take=tables[0][0],
            edge_take=c * n_edges + e,
            edge_scale=(2.0 * r - 1.0) * self.conv_edges[2][e],
            cell_pos=_RowTable(pos[:n_cell], (3 * kl + 1) * m),
            pos=_RowTable(pos, (3 * kl + 1) * m),
        )

    @cached_property
    def _laplacian_lu(self) -> BandLU:
        """Factors of the interior discrete Laplacian sum_cells wc G^T G (for
        Poisson seeds), assembled through `step_band`."""
        band = self.step_band
        blocks = np.tile(self.cell_weight * self.local_block_basis[0], self.n_cells_total)
        return BandLU(band.assemble(blocks.take(band.cell_take)), band.kl)

    def poisson_solve(self, rhs_interior: np.ndarray) -> np.ndarray:
        """Solve the interior nodal system -div(grad(phi)) = rhs, phi = 0 on
        the boundary, for each row of rhs_interior (..., m); returns the full
        nodal vectors (..., n_nodes) from one band solve."""
        rhs = rhs_interior.reshape(-1, self.step_band.m)
        out = np.zeros((rhs.shape[0], self.n_nodes))
        out[:, self.interior_nodes] = self._laplacian_lu.solve(rhs.T * self.cell_weight).T
        return out.reshape(*rhs_interior.shape[:-1], self.n_nodes)


@dataclass(frozen=True, eq=False)
class BandScatter:
    """Fixed value scatter of the interior step matrix into LAPACK gbtrf band
    storage, kept only for entries whose two nodes are interior.

    Coupled interior unknowns (C order) are at most kl apart: 1 in 1D and
    n_cells in 2D, 0 with a single unknown.  The band array of one system
    has ldab = 3 kl + 1 rows and m columns and is held flat in column-major
    order.  `cell_take` picks the kept entries of the raveled per-cell
    (2^dim x 2^dim) blocks; edge entry k is `edge_scale[k]` times the entry
    `edge_take` picks from the raveled (dq/da, dq/db) rows over
    `Grid.conv_edges`.  `pos` holds the band positions of the cell entries,
    then the edge entries; `cell_pos` is its cell part.  All tables act on
    each row of a stack of systems.
    """

    kl: int
    m: int
    cell_take: np.ndarray
    edge_take: np.ndarray
    edge_scale: np.ndarray
    cell_pos: _RowTable
    pos: _RowTable

    @property
    def ldab(self) -> int:
        return 3 * self.kl + 1

    def assemble(self, vals: np.ndarray, diag: float = 0.0) -> np.ndarray:
        """Band array of shape (ldab, M m) holding M systems as diagonal
        blocks, one per row of `vals` (M, n): each row sums its cell entries,
        optionally followed by its edge entries, at `pos`, plus `diag` on the
        diagonal.  Blocks share kl and nothing couples them, so the partial
        pivoting of `BandLU` (gbtrf, or gttrf for kl = 1 and m >= 3) never
        leaves a block and factors each as it would alone.  A 1-D `vals` is
        one system."""
        pos = self.cell_pos if vals.shape[-1] == self.cell_pos.index.size else self.pos
        ab = pos.scatter(vals)
        ab[2 * self.kl :: self.ldab] += diag
        return ab.reshape(-1, self.ldab).T


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
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        if space_tag not in (ZERO_BOUNDARY, FREE_BOUNDARY):
            raise ValueError(f"unknown space_tag {space_tag!r}")
        if space_tag == ZERO_BOUNDARY:
            if values.ravel()[grid.boundary_nodes].any():  # -0.0 counts as zero
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


def lp_grad_norm(f: Field, p: float) -> float:
    """(sum_cells |grad f|^p h^dim)^(1/p); the gradient seminorm used as the
    W_0^{1,p} norm.  Rejects p <= 1."""
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    return float(_lp_grad_pows(f.grid, f.flat, p) ** (1.0 / p))


def _lp_grad_pows(grid: Grid, v: np.ndarray, p: float) -> np.ndarray:
    """`lp_grad_norm` ** p of each row of the nodal vectors v (..., n_nodes):
    sum_cells |grad v|^p h^dim, without the root."""
    g = grid.cell_gradient(v)
    mag = np.sqrt(np.sum(g * g, axis=-2)) if grid.dim > 1 else np.abs(g[..., 0, :])
    return np.sum(mag**p, axis=-1) * grid.cell_weight


def l2_norm(f: Field) -> float:
    return float(_l2_norms(f.grid, f.flat))


def _l2_norms(grid: Grid, v: np.ndarray) -> np.ndarray:
    """`l2_norm` of each row of the nodal vectors v (..., n_nodes): interior
    nodes, weight h^dim."""
    x = grid.take("interior", v)
    return np.sqrt(np.vecdot(x, x) * grid.cell_weight)


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


def dual_norm_estimates(grid: Grid, g: np.ndarray, p: float, iters: int = 30) -> np.ndarray:
    """Lower bound for the negative-order dual norm

        sup { l2_inner(g, phi) / lp_grad_norm(phi, p) : phi zero-boundary }

    of each row of the nodal vectors g (M, n_nodes), which must vanish on
    the boundary, by normalized gradient ascent.  One ascent runs over all
    rows, each with its own step length, acceptance and best value, so a
    row's result does not depend on the other rows.  The iterate path is
    deterministic and scale-equivariant in g, so the estimate is exactly
    homogeneous; it is nondecreasing in `iters` because the best value seen
    is returned."""
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    g = np.atleast_2d(g)
    if g[:, grid.boundary_nodes].any():
        raise ValueError("dual norm is defined for zero-boundary fields")
    idx = grid.interior_nodes
    g_int = g[:, idx]

    def normalized(vec: np.ndarray) -> tuple:
        nrm = _lp_grad_pows(grid, vec, p) ** (1.0 / p)
        ok = nrm != 0.0
        return np.divide(vec, nrm[:, None], out=np.zeros_like(vec), where=ok[:, None]), ok

    def pairing(vec: np.ndarray) -> np.ndarray:
        return np.abs(np.sum(vec[:, idx] * g_int, axis=-1) * grid.cell_weight)

    # seed with the discrete Poisson solution (exact maximizer at p = 2) and
    # ascend along the scale-free direction of g itself
    nonzero = g_int.any(axis=-1)
    ascent, live = normalized(_embed_interior(grid, g_int))
    phi, seeded = normalized(grid.poisson_solve(g_int))
    phi[~seeded] = ascent[~seeded]
    best = np.where((seeded | live) & nonzero, pairing(phi), 0.0)
    live &= nonzero
    step = np.ones(len(g))
    for _ in range(iters - 1):
        sgn = np.where(np.sum(phi[:, idx] * g_int, axis=-1) >= 0, 1.0, -1.0)
        cand, ok = normalized(phi + (step * sgn)[:, None] * ascent)
        value = pairing(cand)
        up = live & ok & (value > best)
        best = np.where(up, value, best)
        phi[up] = cand[up]
        step *= np.where(up, 1.5, 0.5)
    return best


def _embed_interior(grid: Grid, interior_vals: np.ndarray) -> np.ndarray:
    out = np.zeros(interior_vals.shape[:-1] + (grid.n_nodes,))
    out[..., grid.interior_nodes] = interior_vals
    return out
