"""Acceptance sweep for the warm-standby tentpole.

Twenty-five seeded schedules that crash primary hosts mid-delivery, each
replayed against the MDC-only stack and the replicated pair.  The
contract per trial: the pair loses nothing, routes nothing twice, keeps
the oracle green (``at_most_one_active_epoch`` included — it is checked
for every pair tenant), and its p95 per-alert unavailability is strictly
smaller than MDC-only's on the identical schedule.

A short randomized chaos sweep in replication mode rides along: the
storm generator (primary crash, then standby crash mid-promotion, with
link partitions) must survive the full pair-aware oracle.
"""

from functools import partial

from repro.experiments.failover import run_failover_comparison
from repro.sim.clock import MINUTE
from repro.testkit import ChaosIntensity, chaos_sweep, fanout

N_TRIALS = 25


class TestFailoverAcceptanceSweep:
    def test_replicated_pair_beats_mdc_on_25_crash_schedules(self):
        comparison = partial(
            run_failover_comparison,
            jobs=1,
            n_users=2,
            n_crashes=1,
            window=12 * MINUTE,
            settle=10 * MINUTE,
            variants=("mdc", "replicated"),
        )
        results = fanout(comparison, range(N_TRIALS), jobs=1)
        failures = []
        for seed, result in enumerate(results):
            replicated = result.variant("replicated")
            mdc = result.variant("mdc")
            problems = []
            if replicated.lost:
                problems.append(f"lost {replicated.lost}")
            if replicated.duplicate_routes:
                problems.append(f"{replicated.duplicate_routes} dup routes")
            if replicated.violations:
                problems.append(f"violations {replicated.violations}")
            if not replicated.latency.p95 < mdc.latency.p95:
                problems.append(
                    f"p95 {replicated.latency.p95:.1f} !< "
                    f"mdc {mdc.latency.p95:.1f}"
                )
            if replicated.promotions < 1:
                problems.append("no failover happened")
            if problems:
                failures.append(f"seed {seed}: {', '.join(problems)}")
        assert not failures, "\n".join(failures)


class TestReplicationChaosSweep:
    SWEEP_KWARGS = dict(
        trials=3,
        n_users=2,
        duration=30 * MINUTE,
        settle=15 * MINUTE,
        replication=True,
        intensity=ChaosIntensity(faults_per_hour=10.0),
    )

    def test_storm_sweep_green_on_real_pipeline(self):
        result = chaos_sweep(seed=2027, **self.SWEEP_KWARGS)
        assert result.ok, result.summary()
