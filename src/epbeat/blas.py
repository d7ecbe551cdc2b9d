"""The BLAS thread policy: OpenBLAS starts on one thread, and only a
solve at dimension PARALLEL_MIN_DIM or above runs on more.

OpenBLAS wakes its second thread for eigh from n = 26 and for GEMM
from about n = 100, and the thread then spin-waits between calls. On a
2-core host that doubles the CPU time of small solves for no wall-time
gain, and in fresh processes it sometimes stalls a small call by about
1 s. Large solves do gain: epbeat solve at 16x128 takes 3.1 s at two
threads against 5.4 s at one. So the thread count follows the
problem's dimension N_tot * N_g (see PARALLEL_MIN_DIM).

OpenBLAS takes its start count from OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS when it loads; with none set it
starts a thread per core, and the extra ones spin-wait through the
import. epbeat imports this module first and its first numpy import
inside loading_openblas. When numpy is not loaded yet and the caller
set none of the three variables, that import runs with
OPENBLAS_NUM_THREADS=1 and the variable is removed once numpy has
loaded, so OpenBLAS starts with no worker thread and child processes
see the caller's environment. threads_for then raises the count to the
host's CPU count for solves at PARALLEL_MIN_DIM and above. When the
caller set one of the variables, or imported numpy before epbeat, the
start count is the caller's: threads_for lowers it to one below the
threshold and leaves it alone at and above.

The OpenBLAS controls are looked up on first use through numpy's
linalg extension, whose linked libraries include the BLAS numpy calls.
Without them (an MKL or Accelerate build) the policy does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
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


def _host_cpus() -> int:
    """The CPUs this process may run on (OpenBLAS's own default)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The count a solve at PARALLEL_MIN_DIM and above runs on: the host's
# CPU count when epbeat chooses OpenBLAS's start count (numpy is not
# loaded yet and the caller set none of the variables), else None, the
# count on entry to threads_for
_LARGE_SOLVE_THREADS = (
    None if "numpy" in sys.modules or not os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    else _host_cpus())


@contextmanager
def loading_openblas():
    """Run the body, whose first numpy import loads OpenBLAS, with
    OPENBLAS_NUM_THREADS=1 when epbeat chooses the start count."""
    if _LARGE_SOLVE_THREADS is None:
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


@functools.cache
def control():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.
    A lookup on the handle of numpy's linalg extension searches it and
    the libraries it links, never another copy (scipy's, say)."""
    # imported here: this module loads before numpy (loading_openblas)
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:  # no dynamic loading of the extension
        return None
    for names in _CONTROLS:
        get, set_ = (getattr(lib, name, None) for name in names)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _os_threads() -> int | None:
    """The OS threads of this process, or None without /proc/self/task."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def threads() -> int | None:
    """The current OpenBLAS thread count, or None without the controls."""
    ctl = control()
    return None if ctl is None else ctl[0]()


@contextmanager
def threads_for(dim: int):
    """Run the body on the BLAS threads dimension dim calls for: one
    below PARALLEL_MIN_DIM; at or above it the host's CPU count when
    epbeat chose OpenBLAS's start count, else the count on entry.

    The count is set only when it differs from the count on entry,
    which is restored on exit, also when the body raises, so uses nest.
    OpenBLAS starts the threads of a raised count as it is set, without
    checking that each started (a thread stack past the address-space
    limit fails), and its next threaded call then hangs. So a raise the
    OS thread count does not reach is undone: the body runs on the
    entry count. The OS count holds every thread of the process, so
    this sees a failed start only when OpenBLAS's are its only threads
    (the CLI's case); a caller's own threads can hide one.
    """
    ctl = control()
    if ctl is None:
        yield
        return
    get, set_ = ctl
    entry = get()
    count = 1 if dim < PARALLEL_MIN_DIM else _LARGE_SOLVE_THREADS or entry
    if count == entry:
        yield
        return
    set_(count)
    started = _os_threads() if count > entry else None
    if started is not None and started < count:
        set_(entry)
        yield
        return
    try:
        yield
    finally:
        set_(entry)
