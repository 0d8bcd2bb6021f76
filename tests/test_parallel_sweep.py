"""The fanout primitive and the persistent sweep pool.

``jobs > 1`` changes wall-clock time and nothing else: that every sweep
built on :func:`repro.testkit.parallel.fanout` returns the same result
under two workers is the ``jobs`` row of ``tests/test_knob_invariance.py``.
These tests pin the primitive's own semantics — item order, exceptions,
pool reuse and lifetime.
"""

import pytest

from repro.experiments.ablations import run_farm_throughput_sweep
from repro.sim.clock import MINUTE
from repro.testkit.parallel import (
    SweepPool,
    fanout,
    resolve_jobs,
    sweep_pool,
)


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


class TestSweepPool:
    def test_pool_results_bit_identical_to_one_shot_path(self):
        items = list(range(23))
        expected = fanout(_square, items, jobs=3)
        with sweep_pool(jobs=3):
            pooled_a = fanout(_square, items)
            pooled_b = fanout(_square, items)  # same workers, second call
        assert pooled_a == expected
        assert pooled_b == expected

    def test_workers_are_reused_across_calls(self):
        import os

        with sweep_pool(jobs=2) as pool:
            first = set(fanout(_pid, range(8)))
            second = set(fanout(_pid, range(8)))
        # Both maps were served by the same two pool workers (not the
        # parent, and no per-call pool — that would mint fresh pids).
        assert len(first | second) <= 2
        assert os.getpid() not in (first | second)

    def test_explicit_jobs_bypasses_the_active_pool(self):
        with sweep_pool(jobs=2):
            # jobs=1 forces the sequential in-process reference path even
            # while a pool is active.
            import os

            assert fanout(_pid, [0, 1], jobs=1) == [os.getpid()] * 2

    def test_jobs_one_pool_never_forks(self):
        import os

        with sweep_pool(jobs=1) as pool:
            assert fanout(_pid, range(4)) == [os.getpid()] * 4
            assert pool._pool is None

    def test_nested_pools_restore_the_outer_one(self):
        with sweep_pool(jobs=1) as outer:
            with sweep_pool(jobs=2):
                fanout(_square, range(4))
            # Inner pool closed; outer is active again and still usable.
            assert fanout(_square, [3]) == [9]
            assert not outer._closed

    def test_closed_pool_rejects_maps(self):
        pool = SweepPool(jobs=2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_square, [1])

    def test_worker_exception_propagates_through_pool(self):
        with sweep_pool(jobs=2):
            with pytest.raises(ValueError, match="three"):
                fanout(_fail_on_three, [1, 2, 3])


def _pid(_x):
    import os

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
