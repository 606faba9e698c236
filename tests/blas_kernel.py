"""The OpenBLAS kernel numpy's BLAS runs, for tests whose bytes depend on it.

numpy's wheels bundle scipy-openblas, which can report the kernel it
selected for this CPU (or the one ``OPENBLAS_CORETYPE`` names). Run as a
script, this prints that name, so a test can ask a subprocess too.
"""

import ctypes
import glob
import os

import numpy


def corename() -> str | None:
    """The running OpenBLAS kernel's name, or None if the BLAS cannot say."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    if not libs:
        return None
    query = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    query.argtypes = []
    query.restype = ctypes.c_char_p
    return query().decode()


if __name__ == "__main__":
    print(corename() or "")
