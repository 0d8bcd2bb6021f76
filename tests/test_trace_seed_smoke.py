"""Seed-sensitivity smoke: the trace oracle across a traced sweep.

One pinned seed proves nothing about the instrumentation — a span site may
only misbehave under some interleavings.  This sweep runs 10 generated
chaos trials — and two more under an alert storm with hardened admission,
where trips also end shed, coalesced or suppressed rather than routed —
traced, under a 2-worker pool, and asserts per trial that the trace oracle
is clean and the sink survived the pool.  (That tracing moves no
fingerprint is the knob table's ``tracing`` row.)
"""

import pytest

from repro.core.admission import AdmissionConfig
from repro.sim.clock import MINUTE
from repro.testkit import ChaosRunConfig, StormConfig, chaos_sweep

SEED = 424
TRIALS = 10
#: The extra trials' traffic: every admission-terminal kind is a trip
#: outcome the trace view must read the way the journal view does.  Two of
#: them, so they cross the worker pool like the rest.
STORM_TRIALS = 2
HARDENED_STORM = ChaosRunConfig(
    storm=StormConfig(), admission=AdmissionConfig.hardened()
)


@pytest.fixture(scope="module")
def traced():
    kwargs = dict(
        seed=SEED,
        trials=TRIALS,
        n_users=2,
        duration=45 * MINUTE,
        settle=15 * MINUTE,
        shrink_failures=False,
        jobs=2,
        trace=True,
    )
    sweep = chaos_sweep(**kwargs)
    sweep.trials += chaos_sweep(
        **dict(kwargs, trials=STORM_TRIALS, config=HARDENED_STORM)
    ).trials
    return sweep


class TestSeedSmoke:
    def test_trace_oracle_clean_on_the_sweep(self, traced):
        """ISSUE acceptance: the trace-backed invariants hold across the
        sweep — a trace violation on a journal-clean trial would mean the
        instrumentation (or an invariant) is wrong."""
        assert len(traced.trials) == TRIALS + STORM_TRIALS
        for trial in traced.trials:
            trace_violations = [
                v for v in trial.violations if v.startswith("trace_")
            ]
            assert trace_violations == [], (
                f"trial {trial.index}: {trace_violations}"
            )

    def test_traced_trials_carry_their_sink(self, traced):
        """The sink survives the worker-pool round trip (pickled without
        its environment) and is genuinely populated."""
        for trial in traced.trials:
            assert trial.report.trace is not None
            assert trial.report.trace.env is None
            assert trial.report.trace.span_count() > 0
