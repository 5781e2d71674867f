"""Grid, field, operator, and norm tests."""

import numpy as np
import pytest

from plaplace_levy import (
    Field,
    Grid,
    GridMismatchError,
    dual_norm_estimates,
    l2_norm,
    lp_grad_norm,
    w1p_norm,
)
from plaplace_levy.scheme import _conv_residual, linear_flux, sine_flux
from _oracles import div_flux, grad_ops, gradient, l2_inner


def random_zero_boundary(grid, rng, scale=1.0):
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = scale * rng.normal(size=len(grid.interior_nodes))
    return Field(grid, vals.reshape(grid.node_shape))


def test_grid_invariants():
    for dim in (1, 2):
        g = Grid(dim, 8)
        assert g.h * g.n_cells == pytest.approx(1.0, abs=0.0)
        interior = set(g.interior_nodes.tolist())
        boundary = set(g.boundary_nodes.tolist())
        assert interior.isdisjoint(boundary)
        assert len(interior | boundary) == g.n_nodes


def test_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        Grid(3, 4)
    with pytest.raises(ValueError):
        Grid(1, 0)


def test_field_validation():
    g = Grid(1, 4)
    with pytest.raises(ValueError):
        Field(g, [0, 1, 2, 3, 4])  # nonzero boundary under zero_boundary tag
    with pytest.raises(ValueError):
        Field(g, [0, np.nan, 0, 0, 0])
    Field(g, [1, 2, 3, 4, 5], "free_boundary")  # fine


def test_gradient_zero_field():
    for dim in (1, 2):
        g = Grid(dim, 4)
        assert np.all(gradient(Field.zeros(g)) == 0.0)


def test_gradient_1d_hand_example():
    g = Grid(1, 2)
    f = Field(g, [0.0, 1.0, 0.0])
    assert gradient(f)[:, 0] == pytest.approx([2.0, -2.0])


def test_gradient_2d_linear_exact():
    g = Grid(2, 5)
    f = Field.from_function(g, lambda x, y: x, "free_boundary")
    grad = gradient(f)
    assert grad[:, 0] == pytest.approx(np.ones(g.n_cells_total))
    assert grad[:, 1] == pytest.approx(np.zeros(g.n_cells_total), abs=1e-14)


def test_lp_grad_norm_hand_example():
    g = Grid(1, 2)
    f = Field(g, [0.0, 1.0, 0.0])
    assert lp_grad_norm(f, 4) == pytest.approx(2.0)
    assert lp_grad_norm(Field.zeros(g), 4) == 0.0


def test_lp_grad_norm_homogeneity():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        g = Grid(dim, 6)
        f = random_zero_boundary(g, rng)
        for c in (-2.5, 0.3):
            assert lp_grad_norm(c * f, 3) == pytest.approx(abs(c) * lp_grad_norm(f, 3))


def test_lp_grad_norm_rejects_small_p():
    g = Grid(1, 4)
    with pytest.raises(ValueError):
        lp_grad_norm(Field.zeros(g), 1.0)
    with pytest.raises(ValueError):
        lp_grad_norm(Field.zeros(g), 0.5)


def test_l2_hand_example():
    g = Grid(1, 4)
    f = Field(g, [0.0, 1.0, 1.0, 1.0, 0.0])
    assert l2_norm(f) ** 2 == pytest.approx(0.75)
    assert l2_norm(Field.zeros(g)) == 0.0


def test_l2_inner_cauchy_schwarz_and_mismatch():
    rng = np.random.default_rng(11)
    g = Grid(1, 10)
    for _ in range(25):
        f = random_zero_boundary(g, rng)
        k = random_zero_boundary(g, rng)
        assert abs(l2_inner(f, k)) <= l2_norm(f) * l2_norm(k) + 1e-14
    with pytest.raises(GridMismatchError):
        l2_inner(Field.zeros(Grid(1, 4)), Field.zeros(Grid(1, 5)))


def test_norms_vanish_only_at_zero():
    rng = np.random.default_rng(3)
    g = Grid(2, 4)
    f = random_zero_boundary(g, rng)
    assert l2_norm(f) > 0
    assert lp_grad_norm(f, 3) > 0
    assert l2_norm(Field.zeros(g)) == 0.0


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 9), (2, 2), (2, 7)])
def test_stencils_match_grad_ops(dim, n):
    rng = np.random.default_rng(31 + 10 * dim + n)
    g = Grid(dim, n)
    for _ in range(5):
        v = rng.normal(size=g.n_nodes)
        q = rng.normal(size=(dim, g.n_cells_total))
        grad_ref = np.stack([op @ v for op in grad_ops(g)])
        adj_ref = sum(op.T @ q[d] for d, op in enumerate(grad_ops(g)))
        assert np.max(np.abs(g.cell_gradient(v) - grad_ref)) <= 1e-12
        assert np.max(np.abs(g.cell_gradient_adjoint(q) - adj_ref)) <= 1e-12


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 9), (2, 2), (2, 7)])
def test_poisson_solve_inverts_assembled_laplacian(dim, n):
    g = Grid(dim, n)
    idx = g.interior_nodes
    L = sum(op.T @ (g.cell_weight * op) for op in grad_ops(g)).toarray()[np.ix_(idx, idx)]
    rhs = np.random.default_rng(dim + n).normal(size=idx.size)
    phi = g.poisson_solve(rhs)
    assert np.all(phi[g.boundary_nodes] == 0.0)
    assert L @ phi[idx] == pytest.approx(rhs * g.cell_weight, rel=1e-12, abs=1e-14)


def test_integration_by_parts_exact():
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        g = Grid(dim, 7)
        G = rng.normal(size=(g.n_cells_total, dim))
        phi = random_zero_boundary(g, rng)
        lhs = l2_inner(div_flux(g, G), phi)
        rhs = -float(np.sum(G * gradient(phi)) * g.cell_weight)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_convection_form_zero_mean():
    rng = np.random.default_rng(9)
    for dim, flux in ((1, sine_flux([0.8])), (2, linear_flux([0.5, -0.3]))):
        g = Grid(dim, 6)
        v = random_zero_boundary(g, rng, scale=2.0)
        form = float(np.dot(_conv_residual(g, flux, v.flat), v.flat))
        assert form == pytest.approx(0.0, abs=1e-12)


def test_convection_quotients_accurate_for_near_equal_values():
    # gaps of 1e-11 between neighbours: the divided difference of F cancels
    # most digits there; for the sine flux it has the stable closed form
    # (F(b) - F(a)) / (b - a) = c sin(mid) sin(gap/2) / (gap/2)
    rng = np.random.default_rng(1)
    g = Grid(1, 40)
    v = np.zeros(g.n_nodes)
    v[g.interior_nodes] = 0.3 + 1e-11 * rng.normal(size=g.interior_nodes.size)
    gap, mid = np.diff(v), 0.5 * (v[1:] + v[:-1])
    q = 0.6 * np.sin(mid) * np.sin(gap / 2) / (gap / 2)
    ref = np.zeros(g.n_nodes)
    ref[1:] += q
    ref[:-1] -= q
    err = (_conv_residual(g, sine_flux([0.6]), v) - ref)[g.interior_nodes]
    assert np.max(np.abs(err)) <= 1e-14


@pytest.mark.parametrize("gap", [2e-9, 1e-7, 5e-7, 2e-6])
def test_convection_quotients_accurate_near_the_limit_switch(gap):
    # small values and small gaps: 1 - cos u loses absolute digits near
    # u = 0 and the quotient divides that loss by the gap; both sides of the
    # switch to the end-value means must stay accurate
    g = Grid(1, 40)
    v = np.zeros(g.n_nodes)
    v[g.interior_nodes] = 0.0255 + gap * np.cos(np.arange(g.interior_nodes.size))
    gaps, mid = np.diff(v), 0.5 * (v[1:] + v[:-1])
    q = 0.6 * np.sin(mid) * np.sinc(gaps / (2 * np.pi))
    ref = np.zeros(g.n_nodes)
    ref[1:] += q
    ref[:-1] -= q
    err = (_conv_residual(g, sine_flux([0.6]), v) - ref)[g.interior_nodes]
    # quotient side: 2 edges x 2 eps |F| / 1e-6 with |F| ~ 0.6 from the
    # cancellation in 1 - cos u; limit side: |f''| gap^2 / 12
    assert np.max(np.abs(err)) <= 3e-10


def test_w1p_norm_scaling_and_positivity():
    rng = np.random.default_rng(13)
    g = Grid(1, 8)
    f = Field(g, rng.normal(size=g.node_shape), "free_boundary")
    assert w1p_norm(f, 3) > 0
    assert w1p_norm(2.0 * f, 3) == pytest.approx(2.0 * w1p_norm(f, 3))


# ---------------------------------------------------------------------------
# dual norm


def dual_norm(g, p, iters=30):
    """dual_norm_estimates of one field."""
    (value,) = dual_norm_estimates(g.grid, g.flat, p, iters)
    return value


def test_dual_norm_zero():
    g = Grid(1, 8)
    assert dual_norm(Field.zeros(g), 3) == 0.0


def test_dual_norm_homogeneity():
    rng = np.random.default_rng(17)
    g = Grid(1, 8)
    f = random_zero_boundary(g, rng)
    base = dual_norm(f, 3, iters=25)
    for c in (4.0, -0.25):
        assert dual_norm(c * f, 3, iters=25) == pytest.approx(abs(c) * base, rel=1e-12)


def test_dual_norm_monotone_in_iters():
    rng = np.random.default_rng(19)
    g = Grid(1, 16)
    f = random_zero_boundary(g, rng)
    vals = [dual_norm(f, 3, iters=k) for k in (1, 3, 10, 40)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def brute_force_dual_norm(g_field, p, rng, trials=120_000):
    """Random-search oracle: best pairing over ~trials normalized candidate
    test functions, refined in shrinking neighborhoods of the incumbent."""
    grid = g_field.grid
    idx = grid.interior_nodes
    gi = g_field.flat[idx]
    dims = len(idx)
    batch = trials // 12
    center = rng.normal(size=dims)
    scale, best = 1.0, 0.0
    gmat = np.column_stack([grad_ops(grid)[0][:, idx].toarray()])
    for _ in range(12):
        cand = center[None, :] + scale * rng.normal(size=(batch, dims))
        grads = cand @ gmat.T
        norms = (np.sum(np.abs(grads) ** p, axis=1) * grid.cell_weight) ** (1.0 / p)
        ok = norms > 0
        vals = np.abs(cand[ok] @ gi) * grid.cell_weight / norms[ok]
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            center = cand[ok][j] / norms[ok][j]
        scale *= 0.55
    return best


def test_dual_norm_vs_brute_force_spike():
    g = Grid(1, 8)
    vals = np.zeros(g.n_nodes)
    vals[4] = 1.0
    spike = Field(g, vals)
    rng = np.random.default_rng(23)
    oracle = brute_force_dual_norm(spike, 3, rng)
    est = dual_norm(spike, 3, iters=60)
    assert abs(est - oracle) <= 0.05 * oracle
