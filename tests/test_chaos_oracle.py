"""Delivery-oracle integration tests: the chaos harness end to end.

Each test replays a small hand-crafted schedule through
:func:`repro.testkit.run_chaos` (time-boxed: minutes of simulated time,
well under a second of wall clock).  The planted-bug tests are the
testkit's self-test: a pipeline with a known delivery bug MUST trip the
oracle, and the shrinker must reduce the trigger to a tiny reproducer —
the ISSUE's acceptance criteria.
"""

from repro.sim.clock import MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.testkit import (
    ChaosRunConfig,
    drop_retry_stages,
    run_chaos,
    shrink,
    silent_drop_stages,
)
from repro.testkit.bugs import AbandonAmnesiaRetryStage
from repro.workloads.faultload import (
    TARGET_EMAIL_SERVICE,
    TARGET_IM_SERVICE,
    TARGET_SCREEN,
)

#: Both channels down at once for 10 minutes: alerts emitted in the gap
#: exhaust their retry chain and must be *explicitly* dead-lettered.
TOTAL_OUTAGE = [
    ScheduledFault(
        at=602.0, kind=FaultKind.IM_SERVICE_OUTAGE,
        target=TARGET_IM_SERVICE, duration=600.0,
    ),
    ScheduledFault(
        at=602.0, kind=FaultKind.EMAIL_OUTAGE,
        target=TARGET_EMAIL_SERVICE, duration=900.0,
    ),
]

#: Noise faults the system recovers from on its own; used to prove the
#: shrinker strips them away from the essential outage pair.
NOISE = [
    ScheduledFault(at=100.0, kind=FaultKind.CLIENT_LOGOUT,
                   target="im-client:user0"),
    ScheduledFault(at=200.0, kind=FaultKind.PROCESS_CRASH,
                   target="mab:user1"),
    ScheduledFault(at=300.0, kind=FaultKind.DIALOG_POPUP, target=TARGET_SCREEN,
                   params={"caption": "Connection lost", "button": "OK"}),
    ScheduledFault(at=420.0, kind=FaultKind.MEMORY_LEAK, target="mab:user0",
                   params={"megabytes": 120.0}),
    ScheduledFault(at=900.0, kind=FaultKind.PROCESS_HANG, target="mab:user0"),
    ScheduledFault(at=1500.0, kind=FaultKind.CLIENT_STALE_POINTER,
                   target="im-client:user1"),
]

CONFIG = ChaosRunConfig(
    seed=5, n_users=2, duration=20 * MINUTE, settle=15 * MINUTE,
    alert_period=40.0,
)


def violated(report):
    return {v.invariant for v in report.oracle.violations}


def amnesia_stages():
    """§4.2 stages with :class:`AbandonAmnesiaRetryStage` in the retry slot."""
    from repro.core.pipeline import (
        AggregateStage, ClassifyStage, FilterStage, RouteStage,
    )

    return [
        ClassifyStage(), AggregateStage(), FilterStage(),
        RouteStage(), AbandonAmnesiaRetryStage(),
    ]


class TestOracleOnRealPipeline:
    def test_total_outage_run_passes_with_dead_letters(self):
        report = run_chaos(TOTAL_OUTAGE, CONFIG)
        assert report.ok, report.oracle.summary()
        # Alerts landed both sides of the outage: some routed, and the ones
        # emitted inside it exhausted retries into explicit dead letters.
        assert report.outcome_counts.get("routed", 0) > 0
        assert report.outcome_counts.get("delivery_abandoned", 0) > 0
        assert report.injected == len(TOTAL_OUTAGE)

    def test_fault_free_run_is_clean(self):
        config = ChaosRunConfig(
            seed=3, n_users=2, duration=10 * MINUTE, settle=10 * MINUTE,
        )
        report = run_chaos([], config)
        assert report.ok
        assert report.outcome_counts.get("routed", 0) > 0
        assert sum(report.delivered.values()) > 0

    def test_noise_faults_are_recovered_not_fatal(self):
        report = run_chaos(NOISE, CONFIG)
        assert report.ok, report.oracle.summary()
        assert report.injected >= len(NOISE) - 1  # a crashed MAB may reject a
        # follow-up fault aimed at the dead incarnation; everything else lands


class TestOracleCatchesPlantedBugs:
    """Self-test: deliberately broken pipelines MUST trip the oracle."""

    def test_silent_drop_caught(self):
        report = run_chaos(
            TOTAL_OUTAGE, CONFIG, stage_factory=silent_drop_stages
        )
        assert not report.ok
        assert "replay_idempotent" in violated(report) or (
            "delivered_or_dead_letter" in violated(report)
        )

    def test_silent_drop_is_latent_without_faults(self):
        """The planted bug only fires on total delivery failure — a
        fault-free run looks healthy, which is why chaos search exists."""
        config = ChaosRunConfig(
            seed=3, n_users=2, duration=10 * MINUTE, settle=10 * MINUTE,
        )
        report = run_chaos([], config, stage_factory=silent_drop_stages)
        assert report.ok

    def test_dropping_retry_stage_caught(self):
        report = run_chaos(
            TOTAL_OUTAGE, CONFIG, stage_factory=drop_retry_stages
        )
        assert not report.ok
        assert "pipeline_terminal" in violated(report)

    def test_abandon_amnesia_caught(self):
        report = run_chaos(
            TOTAL_OUTAGE, CONFIG, stage_factory=amnesia_stages
        )
        assert not report.ok

    def test_planted_bug_shrinks_to_tiny_reproducer(self):
        """ISSUE acceptance: the injected delivery bug's trigger shrinks to
        a <= 3-fault reproducer (here: exactly the outage pair)."""
        schedule = sorted(NOISE + TOTAL_OUTAGE, key=lambda f: f.at)

        def fails(candidate):
            probe = run_chaos(
                candidate, CONFIG, stage_factory=silent_drop_stages
            )
            return not probe.ok

        assert fails(schedule)
        result = shrink(schedule, fails, max_trials=32)
        assert len(result.schedule) <= 3
        assert result.minimal
        kinds = {f.kind for f in result.schedule}
        assert kinds == {
            FaultKind.IM_SERVICE_OUTAGE, FaultKind.EMAIL_OUTAGE,
        }


class TestDuplicateSuppression:
    def test_blocked_ack_fallback_copy_deduplicated(self):
        """Regression for a real bug this testkit found: a dialog blocking
        the MAB's ack makes the sender fall back to email, and the second
        copy used to start a competing retry chain (two terminal 'routed'
        trips).  The alert's "retrying" status on the log now drops it."""
        schedule = [
            ScheduledFault(
                at=600.0, kind=FaultKind.UNKNOWN_DIALOG_POPUP,
                target=TARGET_SCREEN,
                params={"caption": "MSVCRT.DLL entry point not found",
                        "button": "OK"},
            )
        ]
        report = run_chaos(schedule, CONFIG)
        assert report.ok, report.oracle.summary()
        # The fallback copies really arrived — and were dropped as
        # duplicates instead of double-routed.
        assert report.outcome_counts.get("duplicate_incoming", 0) >= 1
