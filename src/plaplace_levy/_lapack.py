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
    A[i, j] at row 2 kl + i - j of column j.

    A tridiagonal matrix (kl = 1) is factored by gttrf from the diagonals
    dl = ab[3, :-1], d = ab[2] and du = ab[1, 1:], about twice as fast as
    gbtrf, and solved by gttrs; any other band by gbtrf and gbtrs.  SciPy's
    gttrf and gttrs wrappers reject n <= 2, so a smaller tridiagonal system
    is factored and solved with decoupled unit rows appended, which leave its
    own factors and solution as they are.  `info` is LAPACK's: 0, or the
    1-based index of the first exactly zero pivot (the factors are complete
    either way).  Where nothing couples the columns start:stop to the others
    (the diagonal blocks `Grid.step_band` assembles), `cols` gives that
    block's own factors (a copy for a general band, views for a tridiagonal
    one)."""

    __slots__ = ("kl", "n", "factors", "info")

    def __init__(self, ab: np.ndarray, kl: int, overwrite: bool = False):
        self.kl, self.n = kl, ab.shape[1]
        if kl != 1:
            *self.factors, self.info = dgbtrf(ab, kl, kl, overwrite_ab=overwrite)
        elif self.n >= 3:
            # the wrapper copies the strided diagonals into its own arrays
            *self.factors, self.info = dgttrf(ab[3, :-1], ab[2], ab[1, 1:])
        else:
            *factors, self.info = dgttrf(*_unit_rows([ab[3, :-1], ab[2], ab[1, 1:]], self.n))
            self.factors = _tri_cols(factors, 0, self.n)

    def cols(self, start: int, stop: int) -> "BandLU":
        """The factors of the diagonal block start:stop, with its own pivots."""
        if self.kl == 1:
            return _of(1, stop - start, _tri_cols(self.factors, start, stop))
        lub, piv = self.factors
        # a copy, so kept factors do not hold the whole batch's array alive
        return _of(self.kl, stop - start, [lub[:, start:stop].copy(order="F"),
                                           piv[start:stop] - start])

    def forward_solve(self, b: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """The solution x (n_blocks, size) of the block lower-bidiagonal
        system A_k x_k - lower_k x_{k-1} = b_k, k = 0 .. n_blocks - 1, where
        A_k, the diagonal block of columns k size:(k + 1) size, is factored
        here and lower (n_blocks, size) holds the diagonal below it
        (lower[0] is not read): one solve per block, in block order.  The
        blocks must tile the matrix."""
        n_blocks, size = b.shape
        *factors, piv = self.factors
        piv = (piv.reshape(n_blocks, size)  # every block's pivots made local at once
               - np.arange(0, self.n, size, dtype=piv.dtype)[:, None])
        if self.kl == 1:
            # each factor as one row per block, cut to the block's length
            dl, d, du, du2 = (np.concatenate([x, np.zeros(cut)]).reshape(n_blocks, size)
                              [:, : max(size - cut, 0)]
                              for x, cut in zip(factors, (1, 0, 1, 2)))
            parts = zip(dl, d, du, du2, piv)
        else:
            lub = factors[0]
            parts = ((lub[:, k * size : (k + 1) * size], p) for k, p in enumerate(piv))
        fast = self.kl == 1 and size >= 3  # gttrs straight on the rows
        x, rhs = np.empty_like(b), b.copy()
        for k, part in enumerate(parts):
            if k:
                rhs[k] += lower[k] * x[k - 1]
            x[k] = (dgttrs(*part, rhs[k], overwrite_b=True)[0] if fast
                    else _of(self.kl, size, part).solve(rhs[k], overwrite=True))
        return x

    def solve(self, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """x with A x = b, for b of shape (n,) or (n, nrhs)."""
        if self.kl != 1:
            lub, piv = self.factors
            return dgbtrs(lub, self.kl, self.kl, b, piv, overwrite_b=overwrite)[0]
        if self.n >= 3:
            return dgttrs(*self.factors, b, overwrite_b=overwrite)[0]
        ipiv = self.factors[4]
        ipiv = np.concatenate([ipiv, np.arange(self.n + 1, 4, dtype=ipiv.dtype)])
        pad = np.zeros((3 - self.n, *b.shape[1:]))
        return dgttrs(*_unit_rows(self.factors[:3], self.n), np.zeros(1), ipiv,
                      np.concatenate([b, pad]))[0][: self.n]


def _of(kl: int, n: int, factors) -> BandLU:
    """A `BandLU` holding given factors of a nonsingular n x n matrix."""
    out = BandLU.__new__(BandLU)
    out.kl, out.n, out.factors, out.info = kl, n, factors, 0
    return out


def _unit_rows(diags: list, n: int) -> list:
    """The diagonals (dl, d, du) of a tridiagonal system of n < 3 unknowns,
    extended by decoupled unit rows to 3."""
    return [np.concatenate([x, np.full(3 - n, fill)]) for x, fill in zip(diags, (0.0, 1.0, 0.0))]


def _tri_cols(factors: list, start: int, stop: int) -> list:
    """gttrf's factors (dl, d, du, du2, ipiv) of the diagonal block
    start:stop, with 1-based pivots local to the block."""
    dl, d, du, du2, ipiv = factors
    return [dl[start : stop - 1], d[start:stop], du[start : stop - 1],
            du2[start : max(start, stop - 2)], ipiv[start:stop] - start]
