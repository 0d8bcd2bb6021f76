"""Seed-sensitivity smoke: traced and untraced sweeps must agree.

One pinned seed proves nothing about perturbation — an instrumentation
site that draws randomness or schedules an event may only diverge under
some interleavings.  This sweep runs 10 generated chaos trials — and two
more under an alert storm with hardened admission, where trips also end
shed, coalesced or suppressed rather than routed — twice, with and without
tracing, under a 2-worker pool (``REPRO_SWEEP_JOBS=2``, the CI shape), and
asserts per-trial:

- the verdicts agree (``ok`` bit and journal violation set), and
- the fingerprints are identical (tracing is pure observation), and
- the trace oracle itself is clean on every healthy trial.
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
def sweeps():
    import os
    from unittest import mock

    kwargs = dict(
        seed=SEED,
        trials=TRIALS,
        n_users=2,
        duration=45 * MINUTE,
        settle=15 * MINUTE,
        shrink_failures=False,
        jobs=None,  # resolve from the environment, as CI does
    )
    storm = dict(kwargs, trials=STORM_TRIALS, config=HARDENED_STORM)
    with mock.patch.dict(os.environ, {"REPRO_SWEEP_JOBS": "2"}):
        traced = chaos_sweep(trace=True, **kwargs)
        untraced = chaos_sweep(trace=False, **kwargs)
        traced.trials += chaos_sweep(trace=True, **storm).trials
        untraced.trials += chaos_sweep(trace=False, **storm).trials
    return traced, untraced


class TestSeedSmoke:
    def test_verdicts_agree_across_seeds(self, sweeps):
        traced, untraced = sweeps
        assert len(traced.trials) == TRIALS + STORM_TRIALS
        for with_trace, without in zip(traced.trials, untraced.trials):
            journal_only = [
                v for v in with_trace.violations
                if not v.startswith("trace_")
            ]
            assert with_trace.ok == without.ok, (
                f"trial {with_trace.index}: tracing changed the verdict"
            )
            assert journal_only == without.violations, (
                f"trial {with_trace.index}: tracing changed the journal "
                "oracle's findings"
            )

    def test_fingerprints_identical(self, sweeps):
        traced, untraced = sweeps
        for with_trace, without in zip(traced.trials, untraced.trials):
            assert with_trace.fingerprint == without.fingerprint, (
                f"trial {with_trace.index}: tracing perturbed the run"
            )

    def test_trace_oracle_clean_on_the_sweep(self, sweeps):
        """ISSUE acceptance: the trace-backed invariants hold across the
        sweep — a trace violation on a journal-clean trial would mean the
        instrumentation (or an invariant) is wrong."""
        traced, _ = sweeps
        for trial in traced.trials:
            trace_violations = [
                v for v in trial.violations if v.startswith("trace_")
            ]
            assert trace_violations == [], (
                f"trial {trial.index}: {trace_violations}"
            )

    def test_traced_trials_carry_their_sink(self, sweeps):
        """The sink survives the worker-pool round trip (pickled without
        its environment) and is genuinely populated."""
        traced, untraced = sweeps
        for trial in traced.trials:
            assert trial.report.trace is not None
            assert trial.report.trace.env is None
            assert trial.report.trace.span_count() > 0
        for trial in untraced.trials:
            assert trial.report.trace is None
