"""The parallel-sweep contract: N workers, bit-identical results.

Every sweep layered on :func:`repro.testkit.parallel.fanout` promises that
``jobs > 1`` changes wall-clock time and nothing else.  These tests run
each sweep both ways and compare the *entire* result — fingerprints for
chaos sweeps (they digest every trial), dataclass equality for the
failover and farm sweeps — plus the fanout primitive's own semantics.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablations import run_farm_throughput_sweep
from repro.experiments.failover import run_failover_comparison
from repro.sim.clock import MINUTE
from repro.testkit import chaos_sweep
from repro.testkit.parallel import (
    JOBS_ENV_VAR,
    SweepPool,
    default_jobs,
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

    def test_sequential_path_matches_parallel(self):
        items = [5, 1, 9, 2]
        assert fanout(_square, items, jobs=1) == fanout(_square, items, jobs=3)

    def test_single_item_skips_the_pool(self):
        assert fanout(_square, [7], jobs=8) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="three"):
            fanout(_fail_on_three, [1, 2, 3], jobs=2)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert default_jobs() == 3
        assert resolve_jobs(None) == 3
        monkeypatch.delenv(JOBS_ENV_VAR)
        assert default_jobs() == 1

    @pytest.mark.parametrize("raw", ["two", "0", "-3", "1.5"])
    def test_malformed_env_var_fails_loudly(self, monkeypatch, raw):
        """A CI typo must not silently mean "sequential": the 2-workers-vs-
        sequential identity checks would compare sequential with itself."""
        monkeypatch.setenv(JOBS_ENV_VAR, raw)
        with pytest.raises(ConfigurationError) as error:
            fanout(_square, [1, 2])
        assert JOBS_ENV_VAR in str(error.value) and repr(raw) in str(error.value)
        # An explicit argument never consults the variable.
        assert fanout(_square, [1, 2], jobs=1) == [1, 4]


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

    def test_sweep_through_pool_matches_sequential(self):
        kwargs = dict(
            user_counts=(1, 4),
            per_user_rate=0.05,
            duration=4 * MINUTE,
            seed=3,
        )
        sequential = run_farm_throughput_sweep(jobs=1, **kwargs)
        with sweep_pool(jobs=2):
            pooled = run_farm_throughput_sweep(**kwargs)
        assert sequential == pooled


def _pid(_x):
    import os

    return os.getpid()


class TestChaosSweepParallel:
    KWARGS = dict(
        seed=11,
        trials=3,
        n_users=2,
        duration=20 * MINUTE,
        settle=10 * MINUTE,
        shrink_failures=False,
    )

    def test_two_workers_bit_identical_to_sequential(self):
        sequential = chaos_sweep(jobs=1, **self.KWARGS)
        parallel = chaos_sweep(jobs=2, **self.KWARGS)
        assert sequential.fingerprint() == parallel.fingerprint()
        assert [t.ok for t in sequential.trials] == [
            t.ok for t in parallel.trials
        ]

    def test_env_var_routes_existing_call_sites(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        via_env = chaos_sweep(**self.KWARGS)  # jobs=None -> env default
        monkeypatch.delenv(JOBS_ENV_VAR)
        sequential = chaos_sweep(**self.KWARGS)
        assert via_env.fingerprint() == sequential.fingerprint()


class TestFailoverSweepParallel:
    def test_parallel_variants_identical_to_sequential(self):
        kwargs = dict(
            seed=4,
            n_users=2,
            n_crashes=1,
            window=10 * MINUTE,
            settle=8 * MINUTE,
            variants=("mdc", "replicated"),
        )
        sequential = run_failover_comparison(jobs=1, **kwargs)
        parallel = run_failover_comparison(jobs=2, **kwargs)
        # FailoverVariant/Summary/ScheduledFault are plain dataclasses:
        # full structural equality, not just headline numbers.
        assert sequential.variants == parallel.variants
        assert sequential.schedule == parallel.schedule


class TestFarmThroughputSweepParallel:
    def test_parallel_points_identical_to_sequential(self):
        kwargs = dict(
            user_counts=(1, 5),
            per_user_rate=0.05,
            duration=4 * MINUTE,
            seed=3,
        )
        sequential = run_farm_throughput_sweep(jobs=1, **kwargs)
        parallel = run_farm_throughput_sweep(jobs=2, **kwargs)
        assert sequential == parallel
        assert [p.users for p in parallel] == [1, 5]
