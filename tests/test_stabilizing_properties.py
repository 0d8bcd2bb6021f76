"""Property tier for the stabilizing transport.

Two layers:

- A **micro harness** (two hosts, one :class:`~repro.sim.link.HostLink`,
  one sender/receiver pair, on both scheduler backends) under
  hypothesis-drawn :class:`~repro.net.adversary.AdversaryModel` knobs —
  random reorder horizons, duplication factors 1–5, corruption up to 70 %
  — asserting the exactly-once and bounded-convergence contracts record
  by record, and that the naive baseline demonstrably violates them under
  forced duplication/corruption.
- A **farm sweep**: 30 seeded generator schedules whose adversary pulses
  are scoped to the replication ship links, replayed through
  :func:`~repro.testkit.run_chaos`.  The stabilizing transport must never
  trip the transport invariants and must add *no new violations* over
  each seed's benign-faults-only baseline; the naive transport must trip
  the invariants on a healthy fraction of the same schedules.  (That the
  scheduler backend changes no fingerprint is the ``scheduler`` row of
  ``tests/test_knob_invariance.py``.)

Hypothesis runs derandomized so CI is bit-stable; each drawn example is a
seeded, reproducible simulation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host import Host
from repro.core.stabilizing import (
    RESEND_LIMIT,
    TransportAudit,
    make_receiver,
    make_sender,
)
from repro.net.adversary import AdversaryModel
from repro.sim.clock import HOUR
from repro.sim.kernel import Environment
from repro.sim.link import HostLink
from repro.testkit import ChaosIntensity, FaultScheduleGenerator, run_chaos
from repro.testkit.generator import ADVERSARY_FAULT_KINDS
from repro.testkit.harness import ChaosRunConfig

BACKENDS = ("heap", "wheel")
TRANSPORT_INVARIANTS = {
    "no_corrupt_accepted",
    "stabilized_exactly_once",
    "convergence_bounded",
}
N_SEEDS = 30
N_RECORDS = 30
#: Requeue attempts before the micro harness declares non-convergence.
ATTEMPT_CAP = 200

adversary_models = st.builds(
    AdversaryModel,
    reorder_probability=st.floats(0.0, 1.0),
    reorder_horizon=st.floats(0.1, 10.0),
    duplicate_probability=st.floats(0.0, 1.0),
    duplicate_max=st.integers(1, 5),
    # Capped below certain corruption so the requeue loop converges.
    corrupt_probability=st.floats(0.0, 0.7),
)


def run_transport(kind, model, seed, backend, n_records=N_RECORDS):
    """Ship ``n_records`` through one sender/receiver pair; requeue on
    failure exactly the way the replication flush loop does."""
    env = Environment(scheduler=backend)
    src = Host(env, name="a")
    dst = Host(env, name="b")
    link = HostLink(env, src, dst, rng=np.random.default_rng(seed))
    link.set_adversary(model)
    audit = TransportAudit()
    tx = make_sender(kind, link, "a->b", audit)
    applied: list = []
    rx = make_receiver(kind, audit, apply=applied.append)

    def driver():
        for i in range(n_records):
            payload = ("record", i)
            attempts = 0
            while True:
                attempts += 1
                assert attempts <= ATTEMPT_CAP, (
                    f"record {i} did not converge in {ATTEMPT_CAP} ships"
                )
                ok = yield from tx.ship(payload, dst, rx)
                if ok:
                    applied.append(payload)  # the post-ack apply step
                    break

    env.process(driver(), name="driver")
    env.run()
    return applied, audit, link


@pytest.mark.parametrize("backend", BACKENDS)
class TestStabilizingProperties:
    @settings(max_examples=35, derandomize=True, deadline=None)
    @given(model=adversary_models, seed=st.integers(0, 2**31 - 1))
    def test_exactly_once_under_arbitrary_adversary(
        self, backend, model, seed
    ):
        """Every record is applied exactly once, in order, no matter how
        the channel reorders, duplicates, or corrupts — and corruption
        never slips through."""
        applied, audit, link = run_transport(
            "stabilizing", model, seed, backend
        )
        assert applied == [("record", i) for i in range(N_RECORDS)]
        assert audit.corrupt_accepted == 0
        assert audit.duplicate_applied == 0
        # Nothing the adversary injected went unhandled: every corrupt
        # arrival was NACKed, never acked-and-applied.
        if link.adversary_stats.corrupt_injected:
            assert audit.corrupt_rejected > 0

    @settings(max_examples=35, derandomize=True, deadline=None)
    @given(model=adversary_models, seed=st.integers(0, 2**31 - 1))
    def test_convergence_bounded(self, backend, model, seed):
        """No single ship spins past its structural resend ceiling, and
        the whole batch drains (the driver's attempt cap never trips)."""
        applied, audit, _ = run_transport("stabilizing", model, seed, backend)
        assert len(applied) == N_RECORDS
        assert audit.max_resend_rounds <= RESEND_LIMIT + 1

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        copies=st.integers(2, 5),
        corrupt=st.floats(0.3, 0.7),
    )
    def test_naive_baseline_demonstrably_violates(
        self, backend, seed, copies, corrupt
    ):
        """Forced duplication and corruption make the naive transport
        accept corrupt frames and re-apply duplicates — the counters the
        oracle turns into violations and E14 measures."""
        model = AdversaryModel(
            duplicate_probability=1.0,
            duplicate_max=copies,
            corrupt_probability=corrupt,
        )
        applied, audit, link = run_transport("naive", model, seed, backend)
        assert audit.duplicate_applied > 0
        assert audit.corrupt_accepted > 0
        # The duplicates really were applied: more applications than
        # records shipped.
        assert len(applied) > N_RECORDS


# ---------------------------------------------------------------------------
# Farm sweep: 30 seeds
# ---------------------------------------------------------------------------


def link_adversary_schedule(seed):
    """A generator schedule whose adversary pulses target ship links only.

    Substrate pulses (IM/email duplication or corruption) stress the
    user-facing delivery path, which is outside the transport's contract —
    the benign fault mix is kept in full."""
    schedule = FaultScheduleGenerator(
        seed=seed,
        users=["user0", "user1"],
        duration=HOUR,
        intensity=ChaosIntensity(faults_per_hour=30.0),
        replication=True,
        adversarial=True,
    ).generate()
    return [
        f
        for f in schedule
        if f.kind not in ADVERSARY_FAULT_KINDS
        or f.target.startswith("replication-link:")
    ]


def violated(report) -> set:
    return {v.invariant for v in report.oracle.violations}


def test_farm_sweep_stabilizing_transport_holds():
    """30 seeded adversarial schedules: the stabilizing transport never
    trips a transport invariant — and its defenses demonstrably fired
    somewhere in the sweep."""
    fired = {"corrupt_rejected": 0, "duplicate_dropped": 0}
    for seed in range(N_SEEDS):
        schedule = link_adversary_schedule(seed)
        assert any(f.kind in ADVERSARY_FAULT_KINDS for f in schedule)
        report = run_chaos(
            schedule,
            ChaosRunConfig(
                seed=seed, n_users=2, duration=HOUR, replication=True
            ),
        )
        assert not (TRANSPORT_INVARIANTS & violated(report)), (
            f"seed {seed}: {report.oracle.summary()}"
        )
        for key in fired:
            fired[key] += report.oracle.info.get(key, 0)
    assert fired["corrupt_rejected"] > 0
    assert fired["duplicate_dropped"] > 0


def test_farm_sweep_link_pulses_add_no_new_violations():
    """Differential form on a subset: whatever a benign-faults-only run
    already violates at this intensity is pre-existing; the link pulses
    must not add anything on top."""
    for seed in range(10):
        full = link_adversary_schedule(seed)
        benign = [f for f in full if f.kind not in ADVERSARY_FAULT_KINDS]
        config = ChaosRunConfig(
            seed=seed, n_users=2, duration=HOUR, replication=True
        )
        with_pulses = violated(run_chaos(full, config))
        baseline = violated(run_chaos(benign, config))
        assert with_pulses <= baseline, (
            f"seed {seed}: pulses added {with_pulses - baseline}"
        )


class TestE14:
    def test_e14_contract(self):
        """Seed 4 exercises both damage paths: the naive transport accepts
        corrupt frames while the stabilizing one NACKs and resends them,
        and the comparison's own verdict holds."""
        from repro.experiments import run_adversarial_comparison
        from repro.metrics import adversarial_report

        result = run_adversarial_comparison(seed=4)
        assert result.ok
        naive = result.variant("naive")
        stabilizing = result.variant("stabilizing")
        assert naive.corrupt_accepts > 0
        assert naive.transport_violations
        assert stabilizing.corrupt_accepts == 0
        assert stabilizing.duplicate_applies == 0
        assert stabilizing.corrupt_rejected > 0
        assert stabilizing.resends > 0
        assert not stabilizing.transport_violations
        assert "verdict: PASS" in adversarial_report(result)


def test_farm_sweep_naive_transport_demonstrably_violates():
    """The same schedules break the naive transport on a healthy fraction
    of seeds — the oracle-level half of E14's ablation."""
    tripped = 0
    for seed in range(N_SEEDS):
        report = run_chaos(
            link_adversary_schedule(seed),
            ChaosRunConfig(
                seed=seed,
                n_users=2,
                duration=HOUR,
                replication=True,
                transport="naive",
            ),
        )
        if {"no_corrupt_accepted", "stabilized_exactly_once"} & violated(
            report
        ):
            tripped += 1
    assert tripped >= 10, f"only {tripped}/{N_SEEDS} seeds tripped naive"
