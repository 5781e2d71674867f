"""The banded LAPACK routines loaded without scipy.linalg are SciPy's own,
and `BandLU` solves with them, by the tridiagonal kernels in 1D."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from plaplace_levy import Grid, _lapack

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_shim_routines_are_scipy_lapack_routines():
    assert _lapack._flapack is lapack._flapack
    for name in ("dgbtrf", "dgbtrs", "dgttrf", "dgttrs"):
        assert getattr(_lapack, name) is getattr(lapack, name)


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (2, 32)])
def test_shim_band_solves_match_scipy_lapack_bitwise(dim, n):
    band = Grid(dim=dim, n_cells=n).step_band
    rng = np.random.default_rng(dim)
    # cell and convection-edge entries, made diagonally dominant
    ab = band.assemble(rng.normal(size=band.pos.index.size), 4.0 * dim**2 * (2 * band.kl + 1))
    b = rng.normal(size=(band.m, 3))
    kl = band.kl
    x = lapack.dgbsv(kl, kl, ab.copy(), b)[2]
    lub, piv, info = _lapack.dgbtrf(ab, kl, kl)
    lub_ref, piv_ref, _ = lapack.dgbtrf(ab, kl, kl)
    assert info == 0 and np.array_equal(lub, lub_ref) and np.array_equal(piv, piv_ref)
    y = _lapack.dgbtrs(lub, kl, kl, b, piv)[0]
    assert np.array_equal(y, lapack.dgbtrs(lub_ref, kl, kl, b, piv_ref)[0])
    # gbtrf then gbtrs is gbsv, bit for bit
    assert np.array_equal(y, x)
    # the band layout is the matrix the solves were meant for
    i, j = np.indices((band.m, band.m))
    inside = np.abs(i - j) <= kl
    dense = np.where(inside, ab[np.where(inside, 2 * kl + i - j, 0), j], 0.0)
    assert np.allclose(dense @ x, b, rtol=0.0, atol=1e-12)


def test_failed_extension_load_falls_back_to_scipy_linalg_lapack():
    code = (
        "import sys, importlib.machinery\n"
        "sys.path.insert(0, sys.argv[1])\n"
        # no extension file has this suffix; the import system's own finders
        # keep the suffixes they were built with
        "importlib.machinery.EXTENSION_SUFFIXES = ['.unbuilt.so']\n"
        "from plaplace_levy import _lapack, Grid\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert _lapack._flapack is lapack, _lapack._flapack\n"
        "assert _lapack.dgbtrs is lapack.dgbtrs and _lapack.dgbtrf is lapack.dgbtrf\n"
        "assert _lapack.dgttrs is lapack.dgttrs and _lapack.dgttrf is lapack.dgttrf\n"
        "import numpy as np\n"
        "phi = Grid(dim=1, n_cells=8).poisson_solve(np.ones(7))\n"
        "assert phi[0] == phi[-1] == 0.0 and (phi[1:-1] > 0).all(), phi\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, os.path.join(REPO, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _dense(ab, kl):
    n = ab.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= kl
    return np.where(inside, ab[np.where(inside, 2 * kl + i - j, 0), j], 0.0)


@pytest.mark.parametrize("n", [16, 4, 3])
def test_tridiagonal_kernel_is_scipys_gttrf_and_gttrs(n):
    # a 1D step matrix of 2 rows: BandLU factors it with gttrf from the
    # band array's three diagonals, and its solve is gttrs, bit for bit
    band = Grid(1, n).step_band
    rng = np.random.default_rng(n)
    ab = band.assemble(rng.normal(size=(2, band.pos.index.size)), 3.0)
    b = rng.normal(size=ab.shape[1])
    lu = _lapack.BandLU(ab.copy(), band.kl)
    dl, d, du, du2, ipiv, info = lapack.dgttrf(ab[3, :-1], ab[2], ab[1, 1:])
    assert lu.kl == 1 and lu.info == info == 0
    for got, want in zip(lu.factors, (dl, d, du, du2, ipiv)):
        assert np.array_equal(got, want)
    x = lu.solve(b.copy())
    assert np.array_equal(x, lapack.dgttrs(dl, d, du, du2, ipiv, b)[0])
    assert np.allclose(_dense(ab, 1) @ x, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_cells", [2, 3, 4])
@pytest.mark.parametrize("rows", [1, 2])
def test_band_systems_of_one_to_three_unknowns_solve(n_cells, rows):
    # gttrf's wrapper rejects n <= 2, so blocks of fewer than 3 unknowns
    # factor with gbtrf: to the same factors and solution as in a larger batch
    band = Grid(1, n_cells).step_band
    rng = np.random.default_rng(n_cells)
    ab = band.assemble(rng.normal(size=(3, band.pos.index.size)), 3.0)
    b = rng.normal(size=(ab.shape[1], 2))
    m, kl = band.m, band.kl
    batch = _lapack.BandLU(ab.copy(), kl, m)
    assert batch.tridiagonal == (m >= 3)
    whole = batch.solve(b.copy())
    lu = _lapack.BandLU(ab[:, : rows * m].copy(), kl, m)
    assert lu.info == 0 and lu.n == rows * m
    x = lu.solve(b[: rows * m].copy())
    assert np.allclose(_dense(ab[:, : rows * m], kl) @ x, b[: rows * m], rtol=0.0, atol=1e-12)
    assert np.array_equal(x[:, 0], lu.solve(b[: rows * m, 0].copy()))
    for i in range(rows):
        block = slice(i * m, (i + 1) * m)
        alone = _lapack.BandLU(ab[:, block].copy(), kl, m).solve(b[block].copy())
        assert np.array_equal(x[block], alone)
        assert np.array_equal(whole[block], alone)


@pytest.mark.parametrize("dim", [1, 2])
def test_singular_block_names_its_row_and_spares_the_others(dim):
    # rows 1 and 3 of 4 are zero blocks: one factorization (gttrf in 1D,
    # gbtrf in 2D) shows exact zero pivots in exactly those blocks, and with
    # them set to 1 the other rows solve as they do alone
    band = Grid(dim, 8).step_band
    m, kl = band.m, band.kl
    rng = np.random.default_rng(dim)
    vals = rng.normal(size=(4, band.pos.index.size))
    ab = band.assemble(vals, 4.0 * dim**2 * (2 * kl + 1))
    ab[:, m : 2 * m] = ab[:, 3 * m :] = 0.0  # rows 1 and 3's blocks are zero matrices
    b = rng.normal(size=4 * m)
    lu = _lapack.BandLU(ab.copy(), kl, m)
    assert lu.tridiagonal == (dim == 1)
    assert (lu.info - 1) // m == 1
    assert lu.singular_blocks(m).tolist() == [False, True, False, True]
    assert not lu.singular_blocks(m).any()  # the zero pivots are now 1
    singular = np.repeat([False, True, False, True], m)
    x = lu.solve(np.where(singular, 0.0, b))
    assert np.all(x[singular] == 0.0)
    for i in (0, 2):
        block = slice(i * m, (i + 1) * m)
        alone = _lapack.BandLU(ab[:, block].copy(), kl, m).solve(b[block].copy())
        assert np.array_equal(x[block], alone)
        if dim == 2:  # kept factors exist only in 2D
            assert np.array_equal(lu.cols(i * m, (i + 1) * m).solve(b[block].copy()), alone)
