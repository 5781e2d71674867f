"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by 10-20% over tens of
seconds, far more than the run-to-run bounds the benchmark needs.  The
runner therefore times a fixed kernel in its own process before the first
child and after every child, and scales each child's times by
REFERENCE_S / (mean of the two kernel timings that bracket it): timings
are reported in seconds at the reference host's speed.

The kernel is the core of one implicit step as the CLI does it -- a
sparse matrix assembled from COO triplets, converted to CSC, factorised by
SuperLU and solved -- once on a 2D 32x32 five-point system, where the
work is in the sparse routines, and many times on a 1D 16-point system,
where it is per-call overhead.  Of the kernels tried (interpreter loops,
short numpy vector operations, dict building, streaming over a large
array, sparse assembly, SuperLU, and these two step kernels alone), the
sum of the two step kernels tracked the drift of both the 1D and the 2D
path solves best.  It calls no code of the package, so a change to the
package never changes the kernel.  Import this module only after the BLAS
thread variables are pinned.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median kernel time on the reference host: 2 vCPUs of a shared x86-64
# host, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.
REFERENCE_S = 0.27


def _stencil(shape):
    """COO rows and columns of the 5-point (3-point in 1D) stencil matrix,
    diagonal entries first."""
    idx = np.arange(np.prod(shape)).reshape(shape)
    rows, cols = [idx.ravel()], [idx.ravel()]
    for axis in range(idx.ndim):
        a = np.delete(idx, 0, axis=axis).ravel()
        b = np.delete(idx, -1, axis=axis).ravel()
        rows += [a, b]
        cols += [b, a]
    return np.concatenate(rows), np.concatenate(cols)


def _step_kernel(shape, rounds: int) -> None:
    size = int(np.prod(shape))
    rows, cols = _stencil(shape)
    off_diagonal = -np.ones(len(rows) - size)
    rhs = np.cos(np.arange(size, dtype=float))
    for i in range(rounds):
        values = np.concatenate([np.full(size, 2.0 * len(shape) + 0.01 * i), off_diagonal])
        matrix = sp.coo_matrix((values, (rows, cols)), shape=(size, size))
        spla.splu(matrix.tocsc()).solve(rhs)


def sample() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _step_kernel((32, 32), 45)
    _step_kernel((16,), 560)
    return time.perf_counter() - start
