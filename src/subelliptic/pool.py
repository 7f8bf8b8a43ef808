"""An ordered map over one thread per usable core.

The mapped work is numpy and scipy.sparse on arrays of a block's size,
which release the interpreter lock, so threads run it in parallel.  The
items are fixed by the caller and the results come back in item order,
so a caller that combines them in that order gets the same bits on any
number of workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# one worker per usable core
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

_POOL_THREAD = threading.local()


def _enter_pool():
    _POOL_THREAD.active = True


def _ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on up to ``_WORKERS`` threads.

    Results come back in item order, and an exception raised by fn reaches
    the caller as raised.  A map called from inside a worker runs inline,
    so nested maps cannot deadlock waiting for the threads they occupy.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers < 2 or getattr(_POOL_THREAD, "active", False):
        return [fn(item) for item in items]
    pool = ThreadPoolExecutor(workers, initializer=_enter_pool)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)
