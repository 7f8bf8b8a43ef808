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
from collections import deque
from concurrent.futures import ThreadPoolExecutor

# one worker per usable core
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# The package's one grain size: work is cut into parts of at least this
# many node-values.  A streamed cubature's temporaries then hold 256 KB
# each, so a block's working set stays inside a 2 MB L2 cache; whole
# levels (0.26-2 M nodes) do not.  Below it a part's numpy calls are too
# short for a thread to pay: a two-way split of one 81^2 distance field
# ran at 0.46x.
# The cubatures' speed also rests on glibc's allocator: block temporaries
# are reused from the heap only while its dynamic mmap and trim thresholds
# stand well above their size.  A freed mmapped chunk raises them to its
# size and twice that; the 2 MB hole masks of liftgroup._graded_levels do
# it.  With the masks kept alive the one-worker normalization cubature
# takes 1.9-2.2 s instead of 1.2 s (a 2 MB free before it restores that, a
# 1 MB one does not), and with the trim threshold frozen at 128 KB
# (MALLOC_MMAP_THRESHOLD_=4194304 alone) 2.4-3.4 s (2-core Xeon VM).
_BLOCK = 1 << 15

_POOL_THREAD = threading.local()


def _enter_pool():
    _POOL_THREAD.active = True


def _in_worker() -> bool:
    return getattr(_POOL_THREAD, "active", False)


def _parts(values: int) -> int:
    """How many parts to cut work on `values` node-values into: one per
    worker, each of at least ``_BLOCK`` values, and one inside a worker,
    where maps run inline."""
    if _in_worker():
        return 1
    return max(1, min(_WORKERS, values // _BLOCK))


def _ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on up to ``_WORKERS`` threads.

    Results come back in item order, and an exception raised by fn reaches
    the caller as raised.  A map called from inside a worker runs inline,
    so nested maps cannot deadlock waiting for the threads they occupy.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers < 2 or _in_worker():
        return [fn(item) for item in items]
    pool = ThreadPoolExecutor(workers, initializer=_enter_pool)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def _ordered_imap(fn, items):
    """fn(item) for each item, yielded in item order as ``_ordered_map``
    computes it.  The workers run at most two items per worker ahead of
    the caller, so results that the caller has not taken yet stay few;
    ``_ordered_map`` submits every item at once."""
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers < 2 or _in_worker():
        yield from map(fn, items)
        return
    ahead = 2 * workers
    pool = ThreadPoolExecutor(workers, initializer=_enter_pool)
    try:
        pending = deque(pool.submit(fn, item) for item in items[:ahead])
        for item in items[ahead:]:
            pending.append(pool.submit(fn, item))
            yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
