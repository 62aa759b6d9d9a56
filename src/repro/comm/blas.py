"""One BLAS thread budget for the rank threads of this process.

Ranks are threads of one process, and every rank's matrix products call
into the one OpenBLAS that numpy loaded.  That library keeps a single
process-wide thread pool, sized to the core count by default, so two
ranks on two cores run two steps' worth of GEMMs on four contending BLAS
threads.  The count is process-wide in the pthreads build numpy ships:
even ``openblas_set_num_threads_local`` changes it for every thread.

This module owns that count.  :func:`rank_threads` is entered by each
launch (``run_distributed``, an elastic generation) around its rank
threads' start and join.  It keeps a lock-protected count of the rank
threads live in the process, across concurrent launches, and sizes the
pool to::

    max(1, min(original, cores // live))

where ``cores`` is the CPU affinity count and ``original`` the pool size
before the first rank went live.  When the last rank leaves, the pool is
restored to ``original``.  The count changes only at launch boundaries,
never from inside a rank.

There is no knob.  If the process was started with
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` set, the owner already
chose and the pool is left alone.  If numpy did not load an OpenBLAS
this module can find, it is a no-op.

Thread-safety: the state is module-level because the pool it mirrors
is process-wide, and one module lock guards it; entering and leaving
cost a ``ctypes`` call or two.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy

#: (get, set) symbol pairs, in lookup order: the ``scipy-openblas``
#: wheels numpy ships, then a plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_OWNER_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_lock = threading.Lock()
_live = 0
_original = 0
#: ``(get, set)`` once resolved, ``False`` when there is nothing to
#: manage, ``None`` before the first launch.
_pool = None


def _find_openblas() -> Optional[tuple]:
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _resolve():
    global _pool
    if _pool is None:
        owned = any(os.environ.get(name) for name in _OWNER_ENV)
        _pool = False if owned else (_find_openblas() or False)
    return _pool


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _apply(pool) -> None:
    if pool:
        pool[1](_original if _live == 0 else max(1, min(_original, _cores() // _live)))


@contextmanager
def rank_threads(n: int) -> Iterator[None]:
    """Count ``n`` rank threads live for the ``with`` body and size the
    BLAS pool to the rule above; leaving re-applies it (a failing body
    included) and restores the original size once no rank is live."""
    global _live, _original
    with _lock:
        pool = _resolve()
        if pool and _live == 0:
            _original = pool[0]()
        _live += n
        _apply(pool)
    try:
        yield
    finally:
        with _lock:
            _live -= n
            _apply(pool)


def live_ranks() -> int:
    """Rank threads currently counted by :func:`rank_threads`."""
    with _lock:
        return _live


def pool_threads() -> Optional[int]:
    """The BLAS pool's current thread count; None when it is not managed
    (no OpenBLAS found, or the environment chose the count)."""
    with _lock:
        pool = _resolve()
        return pool[0]() if pool else None
