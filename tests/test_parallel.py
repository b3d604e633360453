import concurrent.futures
import multiprocessing
import os

import pytest

from orbtour import parallel
from orbtour.parallel import ordered_map


def square(x):
    return x * x


def pid(_):
    return os.getpid()


def fail_on_two_and_three(x):
    if x in (2, 3):
        raise ValueError(f"task {x}")
    return x


def test_results_come_back_in_task_order():
    tasks = list(range(7))
    assert ordered_map(square, tasks, jobs=3, weights=[1, 5, 2, 7, 0, 3, 3]) == [
        t * t for t in tasks]
    assert multiprocessing.active_children() == []


def test_one_job_or_one_task_runs_in_process():
    assert ordered_map(pid, [0, 1], jobs=1) == [os.getpid()] * 2
    assert ordered_map(pid, [0], jobs=4) == [os.getpid()]
    assert ordered_map(pid, [], jobs=4) == []


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    pids = ordered_map(pid, [0, 1], jobs=None)
    assert os.getpid() not in pids
    ordered_map(square, list(range(5)), jobs=None)
    ordered_map(square, list(range(5)), jobs=4)
    assert sizes == [2, 3, 4]


def test_first_failing_task_in_order_raises_and_workers_are_joined():
    # task 3 is submitted first and fails first, but task 2 comes first in
    # task order, as in a serial run
    with pytest.raises(ValueError, match="task 2"):
        ordered_map(fail_on_two_and_three, list(range(6)), jobs=2,
                    weights=[0, 0, 0, 5, 0, 0])
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="task 2"):
        ordered_map(fail_on_two_and_three, list(range(6)), jobs=1)
