"""One ordered map over independent fits, serial or on forked workers.

Workers are forked, so they inherit the function and the items; only an
item's index goes to a worker and only its result comes back. Results are
returned in item order, and a failure raises the exception of the earliest
failing item, as the serial loop would. A worker that dies (killed, or
crashed in native code) makes the map raise `BrokenProcessPool` instead of
waiting for it.
"""

from __future__ import annotations

_task = None  # (fn, items) of the pool this worker was forked for


def _start(fn, items) -> None:
    global _task
    _task = (fn, items)


def _run(i: int):
    fn, items = _task
    return fn(items[i])


def map_ordered(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]`, on min(jobs, len(items)) forked workers."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, get_context("fork"), _start, (fn, items))
    try:
        return list(pool.map(_run, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)
