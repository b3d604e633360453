"""Ordered process-parallel map shared by ``refine``, ``verify`` and
``montecarlo``.

Workers are forked, so they start from the parent's modules and state
without a fresh import, and the results come back in task order whatever
order the workers finish in.  One job, or a single task, runs in-process
and starts nothing.  The pool's modules are imported only when a pool is
used, so a program that never maps on several processes does not load
them.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], tasks: Sequence[T], jobs: int | None = None,
                weights: Sequence[float] | None = None) -> list[R]:
    """``[fn(t) for t in tasks]`` on up to ``jobs`` forked worker processes.

    ``jobs`` None means every available CPU; the pool never has more
    workers than tasks.  Tasks are submitted heaviest ``weights`` first
    (ties in task order), so the longest tasks do not start last.  The
    first task, in task order, whose call raised re-raises its exception
    here; tasks not yet started are cancelled and every worker is joined
    before this returns or raises.  ``fn`` and each task must pickle, and
    ``fn`` must be a module-level function or a ``functools.partial`` of one.
    """
    workers = min(available_cpus() if jobs is None else jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: see the module docstring
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = range(len(tasks))
    if weights is not None:
        order = sorted(order, key=lambda i: -weights[i])
    # fork: this program starts no thread, so the children inherit no
    # lock held by another thread
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")
                             ) as pool:
        futures = {i: pool.submit(fn, tasks[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(tasks))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
