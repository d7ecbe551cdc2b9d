"""The BLAS thread policy: one thread below PARALLEL_MIN_DIM.

OpenBLAS wakes its second thread for eigh from n = 26 and for GEMM
from about n = 100, and the thread then spin-waits between calls. On a
2-core host that doubles the CPU time of small solves for no wall-time
gain, and in fresh processes it sometimes stalls a small call by about
1 s. Large solves do gain: epbeat solve at 16x128 takes 3.1 s at two
threads against 5.4 s at one. So the thread count follows the
problem's dimension N_tot * N_g (see PARALLEL_MIN_DIM).

The OpenBLAS controls are looked up with ctypes in the libraries the
process has mapped, on first use and not at import. Without them (an
MKL or Accelerate build, or no /proc) the policy does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

# Dimension from which epbeat solve is faster at the host's default
# thread count. Median wall time on a 2-core host, two threads against
# one: +18% at dimension 200 (5x40), -3% at 300 (6x50), +7% at 324
# (6x54); -11% at 336 (6x56), -10% at 350 (7x50), -22% at 392 (7x56)
# and -11% at 480 (8x60)
PARALLEL_MIN_DIM = 330

# (get, set) symbol names of the OpenBLAS builds numpy ships or links
_CONTROLS = (("scipy_openblas_get_num_threads64_",
              "scipy_openblas_set_num_threads64_"),
             ("scipy_openblas_get_num_threads",
              "scipy_openblas_set_num_threads"),
             ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
             ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def control():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None.

    numpy's own copy comes first when scipy has mapped another one.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()
                     and line.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _CONTROLS:
            get, set_ = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def threads() -> int | None:
    """The current OpenBLAS thread count, or None without the controls."""
    ctl = control()
    return None if ctl is None else ctl[0]()


@contextmanager
def threads_for(dim: int):
    """Run the body on one BLAS thread if dim < PARALLEL_MIN_DIM.

    The count on entry is restored on exit, also when the body raises,
    so uses nest. At or above the threshold the count is left alone:
    the host default and OPENBLAS_NUM_THREADS govern large solves.
    """
    ctl = control()
    if ctl is None or dim >= PARALLEL_MIN_DIM:
        yield
        return
    get, set_ = ctl
    entry = get()
    set_(1)
    try:
        yield
    finally:
        set_(entry)
