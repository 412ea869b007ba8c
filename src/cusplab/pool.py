"""One thread pool for node-block work, and the size rule that decides when
a grid uses it.

scipy's special-function ufuncs and numpy's loops release the GIL, so the
node blocks of one kernel pair (`bessel.h_pair`) and the two cumulative
integrals of one mode solve (`modes._solve_with_plan`) run on several cores
at once, each block with the same operations in the same order as on one
core, so the results are the same bit for bit.  A grid goes parallel only
when it holds at least two blocks of `BLOCK` nodes per worker: below that,
handing small arrays between threads costs more than it saves.

The pool has one worker per CPU this process may run on.  It is made on
first use, so importing cusplab starts no thread, and it is keyed by process
id, so a child made by fork builds its own instead of queueing work for
threads it does not have.  `run` runs each pool task in a copy of the
caller's context, so `np.errstate` (a contextvar) holds in it, and reads
every result, so a worker's exception reaches the caller.
"""

from __future__ import annotations

import contextvars
import os
import threading

# nodes per block of node-block work, and the unit of the size rule
BLOCK = 2**13

_lock = threading.Lock()
_pool = None  # (pid, executor) of the process that made it


def workers() -> int:
    """CPUs this process may run on (all CPUs where the platform has no
    affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel(nodes: int) -> bool:
    """True when a grid of this many nodes holds at least two blocks per
    worker, and there is more than one worker."""
    count = workers()
    return count > 1 and nodes >= 2 * BLOCK * count


def _executor():
    global _pool
    with _lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(max_workers=workers(), thread_name_prefix="cusplab"))
        return _pool[1]


def run(tasks, nodes: int) -> list:
    """Results of the tasks (fn, *args), in order, for a grid of this many
    nodes: on the caller below the size rule, on the pool past it.  The pool
    runs every task before any result is read, so the first exception raised
    in a task is raised here, after all tasks have ended."""
    if not parallel(nodes):
        return [fn(*args) for fn, *args in tasks]
    from concurrent.futures import wait

    executor = _executor()
    futures = [executor.submit(contextvars.copy_context().run, *task) for task in tasks]
    wait(futures)
    return [f.result() for f in futures]
