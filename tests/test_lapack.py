"""The banded LAPACK routines loaded without scipy.linalg are SciPy's own."""

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
    for name in ("dgbsv", "dgbtrf", "dgbtrs"):
        assert getattr(_lapack, name) is getattr(lapack, name)


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
def test_shim_band_solves_match_scipy_lapack_bitwise(dim, n):
    band = Grid(dim=dim, n_cells=n).step_band
    rng = np.random.default_rng(dim)
    # cell and convection-edge entries, made diagonally dominant
    ab = band.assemble(rng.normal(size=band.pos.index.size), 4.0 * dim**2 * (2 * band.kl + 1))
    b = rng.normal(size=(band.m, 3))
    kl = band.kl
    x = _lapack.dgbsv(kl, kl, ab.copy(), b)[2]
    ref = lapack.dgbsv(kl, kl, ab.copy(), b)[2]
    assert np.array_equal(x, ref)
    lub, piv, info = _lapack.dgbtrf(ab, kl, kl)
    lub_ref, piv_ref, _ = lapack.dgbtrf(ab, kl, kl)
    assert info == 0 and np.array_equal(lub, lub_ref) and np.array_equal(piv, piv_ref)
    y = _lapack.dgbtrs(lub, kl, kl, b, piv)[0]
    assert np.array_equal(y, lapack.dgbtrs(lub_ref, kl, kl, b, piv_ref)[0])
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
        "assert _lapack.dgbtrs is lapack.dgbtrs and _lapack.dgbsv is lapack.dgbsv\n"
        "import numpy as np\n"
        "phi = Grid(dim=1, n_cells=8).poisson_solve(np.ones(7))\n"
        "assert phi[0] == phi[-1] == 0.0 and (phi[1:-1] > 0).all(), phi\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, os.path.join(REPO, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
