"""The fanout primitive.

``jobs > 1`` changes wall-clock time and nothing else: that every sweep
built on :func:`repro.testkit.parallel.fanout` returns the same result
under two workers is the ``jobs`` row of ``tests/test_knob_invariance.py``.
These tests pin the primitive's own semantics — item order, exceptions,
and that no worker outlives the call.
"""

import multiprocessing
import os

import pytest

from repro.experiments.ablations import run_farm_throughput_sweep
from repro.sim.clock import MINUTE
from repro.testkit.parallel import fanout, resolve_jobs


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


class TestFanoutPrimitive:
    def test_results_come_back_in_item_order(self):
        items = list(range(17))
        assert fanout(_square, items, jobs=4) == [x * x for x in items]

    def test_single_item_skips_the_pool(self):
        assert fanout(_square, [7], jobs=8) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="three"):
            fanout(_fail_on_three, [1, 2, 3], jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_item_names_itself(self, jobs):
        """A failed sweep says which seed or config broke: the error names
        the item's repr, and the original rides along as its cause."""
        named = r"^three \(while running 3\)$"
        with pytest.raises(ValueError, match=named) as info:
            fanout(_fail_on_three, [1, 2, 3], jobs=jobs)
        assert "three" in str(info.value.__cause__)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_jobs_one_never_forks(self):
        assert fanout(_pid, range(4), jobs=1) == [os.getpid()] * 4

    def test_no_worker_outlives_the_call(self):
        """The pool is closed and joined before ``fanout`` returns, and
        also when an item raises: a worker left running is a process the
        caller never asked for."""
        before = set(multiprocessing.active_children())
        assert fanout(_pid, range(4), jobs=2)
        assert set(multiprocessing.active_children()) == before
        with pytest.raises(ValueError):
            fanout(_fail_on_three, [1, 2, 3], jobs=2)
        assert set(multiprocessing.active_children()) == before


def _pid(_x):
    return os.getpid()


class TestFarmThroughputSweepParallel:
    def test_points_come_back_in_user_count_order(self):
        points = run_farm_throughput_sweep(
            user_counts=(1, 5),
            per_user_rate=0.05,
            duration=4 * MINUTE,
            seed=3,
            jobs=2,
        )
        assert [p.users for p in points] == [1, 5]
