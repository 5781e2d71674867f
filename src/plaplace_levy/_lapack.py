"""The LAPACK band solvers: one factor/solve pair, `BandLU`, over gbtrf and
gbtrs for a general band and gttrf and gttrs for a tridiagonal one.

The routines come from SciPy's Fortran extension `scipy.linalg._flapack`,
loaded from its file without running `scipy/__init__` or
`scipy/linalg/__init__`, whose imports cost several times the rest of the
package's start-up.  The module is registered under its own name, so a later
`import scipy.linalg` reuses the same extension object and the routines are
the ones `scipy.linalg.lapack` exports.  If the file cannot be found or
loaded, they come from `scipy.linalg.lapack` itself.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not an installed package")
    path = os.path.join(scipy.submodule_search_locations[0], "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    _flapack = _load_flapack()
except ImportError:
    from scipy.linalg import lapack as _flapack

dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs


class BandLU:
    """LU factors, with partial pivoting, of an n x n band matrix with kl
    sub- and kl superdiagonals given in gbtrf storage ab (3 kl + 1, n):
    A[i, j] at row 2 kl + i - j of column j, possibly made of uncoupled
    diagonal blocks of `block` unknowns (default n), which factor as alone.

    Tridiagonal blocks (kl = 1) of at least 3 unknowns are factored by gttrf
    from the diagonals dl = ab[3, :-1], d = ab[2] and du = ab[1, 1:], about
    twice as fast as gbtrf, and solved by gttrs (whose SciPy wrapper rejects
    n <= 2); any other band by gbtrf and gbtrs.  `info` is LAPACK's: 0, or
    the 1-based index of the first exactly zero pivot (the factors are
    complete either way)."""

    __slots__ = ("kl", "n", "tridiagonal", "factors", "info")

    def __init__(self, ab: np.ndarray, kl: int, block: int = None, overwrite: bool = False):
        self.kl, self.n = kl, ab.shape[1]
        self.tridiagonal = kl == 1 and (block or self.n) >= 3
        if self.tridiagonal:
            # the wrapper copies the strided diagonals into its own arrays
            *self.factors, self.info = dgttrf(ab[3, :-1], ab[2], ab[1, 1:])
        else:
            *self.factors, self.info = dgbtrf(ab, kl, kl, overwrite_ab=overwrite)

    def singular_blocks(self, size: int) -> np.ndarray:
        """Per diagonal block of `size` unknowns, whether it has an exactly
        zero pivot on U's diagonal (gttrf's d, row 2 kl of gbtrf's lub), as a
        singular block does.  Those pivots are set to 1, so that solves stay
        finite: a zero right-hand side on a singular block solves to zero."""
        diag = self.factors[1] if self.tridiagonal else self.factors[0][2 * self.kl]
        zero = diag == 0.0
        diag[zero] = 1.0
        return zero.reshape(-1, size).any(axis=1)

    def cols(self, start: int, stop: int) -> "BandLU":
        """A general band's factors of the diagonal block start:stop, which
        nothing couples to the other columns, with its own pivots: a view if
        it spans the batch, else a copy, so that kept factors do not hold the
        batch's other rows alive."""
        lub, piv = self.factors
        out = BandLU.__new__(BandLU)
        out.kl, out.n, out.tridiagonal, out.info = self.kl, stop - start, False, 0
        lub = lub[:, start:stop]
        out.factors = [lub if out.n == self.n else lub.copy(order="F"), piv[start:stop] - start]
        return out

    def forward_solve(self, b: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """The solution x (n_blocks, size) of the block lower-bidiagonal
        system A_k x_k - lower_k x_{k-1} = b_k, k = 0 .. n_blocks - 1, where
        A_k, the diagonal block of columns k size:(k + 1) size, is factored
        here and lower (n_blocks, size) holds the diagonal below it
        (lower[0] is not read): one solve per block, in block order, on
        views of the block's slices of the factors.  The blocks must tile
        the matrix and be those it was factored with."""
        n_blocks, size = b.shape
        *factors, piv = self.factors
        piv = (piv.reshape(n_blocks, size)  # every block's pivots made local at once
               - np.arange(0, self.n, size, dtype=piv.dtype)[:, None])
        x = b.copy()  # each block's right-hand side, then its solution
        prev, a = None, 0  # the previous block's solution; the block's first column
        for xk, lk, pk in zip(x, lower, piv):
            if a:
                xk += lk * prev
            z = a + size
            if self.tridiagonal:  # gttrf's dl, du and du2 are 1 and 2 shorter
                dl, d, du, du2 = factors
                out = dgttrs(dl[a : z - 1], d[a:z], du[a : z - 1], du2[a : z - 2], pk, xk,
                             overwrite_b=True)[0]
            else:
                out = dgbtrs(factors[0][:, a:z], self.kl, self.kl, xk, pk, overwrite_b=True)[0]
            if out is not xk:  # the wrappers solve a contiguous row in place
                xk[:] = out
            prev, a = xk, z
        return x

    def solve(self, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """x with A x = b, for b of shape (n,) or (n, nrhs)."""
        if self.tridiagonal:
            return dgttrs(*self.factors, b, overwrite_b=overwrite)[0]
        lub, piv = self.factors
        return dgbtrs(lub, self.kl, self.kl, b, piv, overwrite_b=overwrite)[0]
