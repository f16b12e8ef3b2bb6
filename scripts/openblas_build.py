"""Query the OpenBLAS copies that the NumPy and SciPy wheels bundle.

Each wheel ships a ``libscipy_openblas*.so`` under ``numpy.libs`` or
``scipy.libs``.  BLAS results and timings depend on that build and on the
core kernel it picks at load time, so the golden trace and the maximizer
bench record them.
"""

from __future__ import annotations

import ctypes
import glob
from pathlib import Path


def openblas_string(module, symbol: str) -> str | None:
    """The string returned by ``symbol`` in ``module``'s bundled OpenBLAS, or None."""
    libs_dir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libs_dir / "libscipy_openblas*.so"))):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None
