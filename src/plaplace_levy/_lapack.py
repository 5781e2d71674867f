"""The banded LAPACK routines the solvers call: gbtrf and gbtrs.

They come from SciPy's Fortran extension `scipy.linalg._flapack`, loaded from
its file without running `scipy/__init__` or `scipy/linalg/__init__`, whose
imports cost several times the rest of the package's start-up.  The module is
registered under its own name, so a later `import scipy.linalg` reuses the
same extension object and the routines are the ones `scipy.linalg.lapack`
exports.  If the file cannot be found or loaded, they come from
`scipy.linalg.lapack` itself.
"""

import importlib.machinery
import importlib.util
import os
import sys


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
