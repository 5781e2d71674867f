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
