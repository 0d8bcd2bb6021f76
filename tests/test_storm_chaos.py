"""Alert-storm chaos tier: end-to-end hardening under burst traffic.

The storm workload (:class:`repro.testkit.generator.StormTrafficGenerator`)
replaces the polite round-robin chaos workload with what production portals
actually see: many sources bursting at once, a fraction of arrivals
re-submitted as duplicate copies.  These tests drive it through
:func:`repro.testkit.run_chaos` with hardening on and assert the extended
oracle (rate-limit fairness, no duplicate past dedup, every shed
journalled) holds, reproducer pins round-trip the nested admission/storm
configs, and the E12 sweep is green across seeds.  (That a storm run
repeats, traces and fans out without moving its fingerprint is
``tests/test_knob_invariance.py``.)
"""

from functools import partial

import pytest

from repro.core.admission import AdmissionConfig
from repro.experiments.storm import run_storm_comparison
from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit import (
    ChaosRunConfig,
    StormConfig,
    StormTrafficGenerator,
    dump_reproducer,
    fanout,
    replay_reproducer,
    run_chaos,
)
from repro.testkit.schedule import make_reproducer
from repro.workloads.faultload import TARGET_IM_SERVICE

#: Small but violent: one burst intense enough (vs 2 tenants) to trip the
#: hardened per-tenant storm detector and drain the recipient buckets.
STORM = StormConfig(
    n_sources=3,
    base_rate=0.02,
    burst_rate=2.5,
    n_bursts=1,
    burst_duration=60.0,
    duplicate_probability=0.3,
)

HARDENED = AdmissionConfig.hardened()


def storm_config(admission=HARDENED, seed=17):
    return ChaosRunConfig(
        seed=seed,
        n_users=2,
        duration=10 * MINUTE,
        settle=15 * MINUTE,
        admission=admission,
        storm=STORM,
    )


def mid_burst_outage(config):
    """An IM outage over the storm's burst window (same seeded draw the
    workload uses, so it always lands on the real burst)."""
    windows = StormTrafficGenerator(
        config.seed, [f"user{i}" for i in range(config.n_users)], STORM,
        duration=config.duration, start=config.start,
    ).burst_windows()
    first = min(windows, key=lambda w: w.start)
    return [
        ScheduledFault(at=first.start, kind=FaultKind.IM_SERVICE_OUTAGE,
                       target=TARGET_IM_SERVICE, duration=first.duration)
    ]


class TestStormRun:
    def test_hardened_storm_oracle_green(self):
        config = storm_config()
        report = run_chaos(mid_burst_outage(config), config)
        assert report.ok, report.oracle.summary()
        # The extended invariants actually ran: per-tenant controllers
        # were audited, buckets fairness-checked.
        assert report.oracle.checked.get("admission_tenants") == 2
        assert report.oracle.checked.get("buckets", 0) > 0

    def test_storm_exercises_the_hardening_paths(self):
        config = storm_config()
        report = run_chaos(mid_burst_outage(config), config)
        rollup = report.admission
        # Duplicate upstream copies were suppressed by dedup keys...
        assert rollup["dedup_suppressed"] > 0
        # ...and the burst tripped storm mode and shed/coalesced traffic.
        assert rollup["storm_entries"] > 0
        assert rollup["shed"] + rollup["coalesced"] > 0
        # Sheds are explicit journalled outcomes, never silent drops
        # (the oracle cross-checks counts; spot-check the journal kinds).
        journalled = (
            report.outcome_counts.get("shed", 0)
            + report.outcome_counts.get("coalesced", 0)
        )
        assert journalled == rollup["shed"] + rollup["coalesced"]

    def test_legacy_storm_run_still_green(self):
        """The storm workload alone (no hardening) must not break the
        pre-PR pipeline — duplicates die at the delivery-status check."""
        config = storm_config(admission=None)
        report = run_chaos(mid_burst_outage(config), config)
        assert report.ok, report.oracle.summary()
        assert report.admission is None
        assert report.outcome_counts.get("duplicate_incoming", 0) > 0

    def test_hardened_and_legacy_fingerprints_differ(self):
        """Hardening on identical traffic is observable — same offered
        set, different outcome mix."""
        hardened = run_chaos([], storm_config())
        legacy = run_chaos([], storm_config(admission=None))
        assert hardened.offered == legacy.offered
        assert hardened.fingerprint() != legacy.fingerprint()


class TestStormReproducerRoundTrip:
    def test_pin_round_trips_nested_configs(self, tmp_path):
        config = storm_config()
        schedule = mid_burst_outage(config)
        report = run_chaos(schedule, config)
        path = tmp_path / "storm_pin.json"
        dump_reproducer(
            make_reproducer(report, schedule, note="storm round-trip"),
            path,
        )
        replayed = replay_reproducer(path)
        assert replayed.config.admission == config.admission
        assert replayed.config.storm == config.storm
        assert replayed.fingerprint() == report.fingerprint()


class TestStormSweepParallel:
    KWARGS = dict(
        n_users=2,
        storm=STORM,
        duration=10 * MINUTE,
        settle=15 * MINUTE,
    )

    #: The second case is the E12 default storm over five seeds — the
    #: sweep CI's storm entry used to run from an inline script.
    CASES = [
        ([0, 1, 2], KWARGS),
        (range(5), dict(KWARGS, storm=None)),
    ]

    def test_two_worker_sweeps_are_oracle_green(self):
        for seeds, kwargs in self.CASES:
            comparison = partial(run_storm_comparison, jobs=1, **kwargs)
            for result in fanout(comparison, seeds, jobs=2):
                assert result.ok, result.variant("hardened").violations


class TestStormComparison:
    def test_e12_small_scale_contract(self):
        """The E12 verdict on a test-size storm: hardened accounts for
        everything, suppresses every duplicate copy, oracle green on
        both variants."""
        result = run_storm_comparison(seed=3, **TestStormSweepParallel.KWARGS)
        hardened = result.variant("hardened")
        permissive = result.variant("permissive")
        assert result.ok
        assert hardened.user_duplicates == 0
        assert hardened.unaccounted == 0
        assert permissive.unaccounted == 0
        # Identical traffic by construction.
        assert hardened.offered == permissive.offered
        # Hardening visibly engaged.
        assert hardened.shed + hardened.coalesced + hardened.rate_limited > 0
        assert hardened.dedup_suppressed > 0


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
