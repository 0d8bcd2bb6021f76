"""Teeth by enumeration: every registered invariant can actually fire.

``TEETH`` maps each row of :data:`repro.testkit.oracle.INVARIANTS` to a
function that plants, in a clean hand-built :class:`World` (farm state, ack
tables, grant logs, span lists — no simulation, no chaos search), the
smallest evidence that breaches exactly that invariant, or with
``broken=False`` its nearest legal twin.  The enumeration test fails when
an invariant is registered without a case or a case names an unregistered
invariant, so a toothless invariant cannot be added.

The planted-*pipeline* tests (``tests/test_chaos_oracle.py`` and friends)
stay where they are: they test generator → oracle → shrinker, not one row.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core.admission import AdmissionConfig, TokenBucket, build_controller
from repro.core.buddy import BuddyJournal
from repro.core.pessimistic_log import DeliveryStatus, PessimisticLog
from repro.core.pipeline import ClassifyStage, PipelineStage
from repro.core.replication import EpochAudit, PromotionRecord
from repro.core.router import AckTable
from repro.core.stabilizing import TransportAudit
from repro.obs import TraceSink
from repro.sim import Environment
from repro.sim.clock import MINUTE
from repro.testkit import ChaosRunConfig, run_chaos
from repro.testkit.oracle import (
    INVARIANTS,
    DeliveryOracle,
    ObservedOutcome,
    check_shard_count_invariance,
    rate_limit_fairness,
)
from tests.test_sharded_farm import forge_mismatch
from tests.test_trace_oracle import (
    FakeEnv,
    closed_trip,
    deliver_under_epochs,
    deliver_with_blocks,
    old_epoch_trip_after_promotion,
    span_under_parent,
)


class FakeUser:
    """The receipts a tenant's devices hold."""

    def __init__(self):
        self.receipts = []
        self.corrupt_discarded = 0

    def receive(self, alert_id, duplicate=False):
        self.receipts.append(
            SimpleNamespace(alert_id=alert_id, duplicate=duplicate)
        )

    def unique_alerts_received(self):
        return {r.alert_id for r in self.receipts if not r.duplicate}

    def duplicates_discarded(self):
        return sum(1 for r in self.receipts if r.duplicate)


class World:
    """One quiesced tenant, ``u``, whose single alert ``a1`` was logged,
    routed, delivered and marked processed — clean under every invariant.
    The real state classes wherever they stand alone; namespaces for the
    wiring around them."""

    def __init__(self, replicated=False, hardened=False):
        self.env = FakeEnv()  # a settable clock; nothing here is scheduled
        self.oracle = DeliveryOracle()
        self.user = FakeUser()
        self.controller = build_controller(
            AdmissionConfig.hardened() if hardened else None, "u"
        )
        self.deployment = self._deployment()
        self.pair = self._pair() if replicated else None
        self.tenant = SimpleNamespace(
            name="u", user=self.user, deployment=self.deployment,
            pair=self.pair,
        )
        self.offered = {"u": {"a1"}}
        self.source = SimpleNamespace(
            name="portal", engine=SimpleNamespace(acks=AckTable(Environment()))
        )
        self.sink = TraceSink().install(self.env)
        self.layouts = None
        self.log("a1")
        self.settle("a1")
        self.user.receive("a1")
        self.trip("a1", "routed", epoch=1 if replicated else None)

    def _deployment(self):
        return SimpleNamespace(
            config=SimpleNamespace(admission_controller=lambda: self.controller),
            endpoint=SimpleNamespace(
                engine=SimpleNamespace(acks=AckTable(Environment())),
                corrupt_discarded=0,
            ),
            log=PessimisticLog(self.env, write_latency=0.0),
            journal=BuddyJournal(),
        )

    def _pair(self):
        pair = SimpleNamespace(
            audit=EpochAudit(),
            link=SimpleNamespace(usable=lambda toward: True),
        )
        a, b = (
            SimpleNamespace(
                label=label, deployment=deployment, pair=pair,
                transport_audit=TransportAudit(),
                host=SimpleNamespace(up=True), unshipped=[],
            )
            for label, deployment in (
                ("a", self.deployment), ("b", self._deployment())
            )
        )
        a.peer, b.peer = b, a
        pair.a, pair.b, pair.sides = a, b, lambda: (a, b)
        pair.audit.promotions.append(PromotionRecord(1, 0.0, "a"))
        pair.audit.record(1, "route", 5.0, "a1")
        return pair

    def log(self, alert_id, processed=True):
        log = self.deployment.log
        for _ in log.append(alert_id, "payload"):
            pass  # zero write latency, no shipper: nothing to wait for
        if processed:
            log.mark_processed(log.entry_for_alert(alert_id).entry_id)

    def settle(self, alert_id):
        """The retry stage's terminal write: the alert's status is routed."""
        self.deployment.log.status[alert_id] = DeliveryStatus("routed")

    def trip(self, alert_id, kind, epoch=None, finished=True):
        self.oracle.observed.append(
            ObservedOutcome("u", alert_id, "subject", kind, finished,
                            at=self.env.now, epoch=epoch)
        )

    def verdict(self):
        """Names of every invariant the audit raises on this world."""
        if self.layouts is not None:
            report = check_shard_count_invariance(results=self.layouts)
        else:
            report = self.oracle.check(
                [self.tenant], offered=self.offered,
                source_endpoints=[self.source], trace_sink=self.sink,
            )
        return {v.invariant for v in report.violations + report.trace_violations}


# ----------------------------------------------------------------------
# One case per invariant: (world kwargs, plant(world, broken))
# ----------------------------------------------------------------------


def pipeline_terminal(w, broken):
    # A second copy's trip ran off the end of the stage list.
    w.trip("a1", None if broken else "duplicate_incoming", finished=not broken)


def exactly_once(w, broken):
    w.trip("a1", "routed" if broken else "duplicate_incoming")


def no_fenced_reroute(w, broken):
    # Epoch 2 (promoted at t=20) re-routes a1 at t=30 — legal only while
    # a1's 'processed' mark never reached the standby.
    audit = w.pair.audit
    audit.promotions.append(PromotionRecord(2, 20.0, "b"))
    if broken:
        audit.record(1, "mark_shipped", 15.0, "a1")
    audit.record(2, "route", 30.0, "a1")
    w.trip("a1", "routed", epoch=2)


def delivered_or_dead_letter(w, broken):
    # The journal says a2 was routed; the user never saw it.
    w.log("a2")
    w.settle("a2")
    w.trip("a2", "routed")
    w.offered["u"].add("a2")
    if not broken:
        w.user.receive("a2")


def tenant_isolation(w, broken):
    w.user.receive("someone-elses")
    if not broken:
        w.offered["u"].add("someone-elses")


def no_duplicate_acks(w, broken):
    acks = w.source.engine.acks
    acks.expect("mab-u", 1)
    for _ in range(2 if broken else 1):
        acks.resolve("mab-u", 1)


def log_quiescent(w, broken):
    w.log("a2", processed=not broken)
    w.trip("a2", "rejected")


def replay_idempotent(w, broken):
    # A processed entry no trip accounts for: replay would route it anew.
    w.log("a2")
    if not broken:
        w.settle("a2")


def at_most_one_active_epoch(w, broken):
    # Same-instant is legal: promotion and ack raced in one timestep.
    w.pair.audit.promotions.append(PromotionRecord(2, 20.0, "b"))
    w.pair.audit.record(1, "ack", 25.0 if broken else 20.0, "a1")


def no_corrupt_accepted(w, broken):
    audit = w.pair.b.transport_audit
    if broken:
        audit.corrupt_accepted += 1
    else:
        audit.corrupt_rejected += 1


def stabilized_exactly_once(w, broken):
    audit = w.pair.b.transport_audit
    if broken:
        audit.duplicate_applied += 1
    else:
        audit.duplicate_dropped += 1


def convergence_bounded(w, broken):
    # Records left queued are a breach only while shipping was possible.
    w.pair.a.unshipped.append({"op": "append"})
    w.pair.b.host.up = broken


def every_shed_is_journalled(w, broken):
    w.controller.count_shed("rate_limited")
    if not broken:
        w.deployment.journal.record(0.0, "rate_limited")


def no_duplicate_past_dedup(w, broken):
    # a1's routed trip settled it; a2 never had a terminal trip.
    w.controller.dedup_suppressed += 1
    w.deployment.journal.record(5.0, "dedup_suppressed")
    w.trip("a2" if broken else "a1", "dedup_suppressed")


def fairness(w, broken):
    bucket = w.controller.global_bucket
    for _ in range(int(bucket.burst) + broken):
        bucket.take_at(0.0)


def trace_terminal_delivery(w, broken):
    deliver_under_epochs(w.sink, w.env, (1, 1) if broken else (1, 2))


def trace_fenced_epoch(w, broken):
    old_epoch_trip_after_promotion(w.sink, w.env, delay=1.0 if broken else 0.0)


def trace_terminal(w, broken):
    closed_trip(w.sink, w.env, "unfinished" if broken else "retry_scheduled")


def trace_fallback_ordering(w, broken):
    deliver_with_blocks(
        w.sink, w.env, ["success" if broken else "failed", "success"]
    )


def trace_structural(w, broken):
    span_under_parent(w.sink, w.env, parent=999 if broken else None)


def shard_count_invariance(w, broken):
    def layout(shards):
        return SimpleNamespace(
            shards=shards, tenants=48, receipts=90, counts={"routed": 90},
            merged_fingerprint="f" * 64,
        )

    w.layouts = [layout(1), layout(2)]
    if broken:
        forge_mismatch(w.layouts)


REPLICATED = dict(replicated=True)
HARDENED = dict(hardened=True)

TEETH = {
    "pipeline_terminal": ({}, pipeline_terminal),
    "exactly_once": ({}, exactly_once),
    "no_fenced_reroute": (REPLICATED, no_fenced_reroute),
    "delivered_or_dead_letter": ({}, delivered_or_dead_letter),
    "tenant_isolation": ({}, tenant_isolation),
    "no_duplicate_acks": ({}, no_duplicate_acks),
    "log_quiescent": ({}, log_quiescent),
    "replay_idempotent": ({}, replay_idempotent),
    "at_most_one_active_epoch": (REPLICATED, at_most_one_active_epoch),
    "no_corrupt_accepted": (REPLICATED, no_corrupt_accepted),
    "stabilized_exactly_once": (REPLICATED, stabilized_exactly_once),
    "convergence_bounded": (REPLICATED, convergence_bounded),
    "every_shed_is_journalled": (HARDENED, every_shed_is_journalled),
    "no_duplicate_past_dedup": (HARDENED, no_duplicate_past_dedup),
    "rate_limit_fairness": (HARDENED, fairness),
    "trace_terminal_delivery": ({}, trace_terminal_delivery),
    "trace_fenced_epoch": ({}, trace_fenced_epoch),
    "trace_terminal": ({}, trace_terminal),
    "trace_fallback_ordering": ({}, trace_fallback_ordering),
    "trace_structural": ({}, trace_structural),
    "shard_count_invariance": ({}, shard_count_invariance),
}


def test_every_registered_invariant_has_a_teeth_case_and_vice_versa():
    registered = [invariant.name for invariant in INVARIANTS]
    assert len(set(registered)) == len(registered)
    assert set(TEETH) == set(registered)


@pytest.mark.parametrize("kwargs", [{}, REPLICATED, HARDENED], ids=str)
def test_the_unplanted_world_is_clean(kwargs):
    assert World(**kwargs).verdict() == set()


@pytest.mark.parametrize("name", sorted(TEETH))
def test_teeth(name):
    kwargs, plant = TEETH[name]
    broken, repaired = World(**kwargs), World(**kwargs)
    plant(broken, True)
    plant(repaired, False)
    assert broken.verdict() == {name}
    assert repaired.verdict() == set()


def test_a_suppression_observed_before_the_settling_trip_is_flagged():
    """The suppressed copy must come *after* a terminal trip: one that only
    precedes the alert's routed trip matched nothing."""
    w = World(hardened=True)
    w.log("a2")
    w.settle("a2")
    w.controller.dedup_suppressed += 1
    w.deployment.journal.record(5.0, "dedup_suppressed")
    w.trip("a2", "dedup_suppressed")
    w.trip("a2", "routed")
    w.user.receive("a2")
    w.offered["u"].add("a2")
    assert w.verdict() == {"no_duplicate_past_dedup"}


# ----------------------------------------------------------------------
# An outcome kind the table does not classify
# ----------------------------------------------------------------------


class BogusStage(PipelineStage):
    name = "bogus"

    def run(self, ctx):
        ctx.finish("bogus")
        return
        yield  # pragma: no cover - synchronous stage


def test_an_unclassified_kind_is_flagged_by_both_views():
    """A stage finishing trips with a kind ``OUTCOME_KINDS`` does not know
    trips ``pipeline_terminal`` on the journal side and ``trace_terminal``
    on the trace side — one table, so the two views cannot drift."""
    report = run_chaos(
        [],
        ChaosRunConfig(seed=1, n_users=1, duration=2 * MINUTE, start=0.0,
                       settle=2 * MINUTE),
        stage_factory=lambda: [ClassifyStage(), BogusStage()],
        trace=True,
    )
    assert "pipeline_terminal" in {v.invariant for v in report.oracle.violations}
    assert {v.invariant for v in report.oracle.trace_violations} == {
        "trace_terminal"
    }


# ----------------------------------------------------------------------
# rate_limit_fairness: one pass agrees with the pair loop
# ----------------------------------------------------------------------


def overdrawn_pairwise(grants, burst, rate):
    """The definition, brute force: some window i..j granted more than
    ``burst + rate × (g[j] − g[i])`` tokens."""
    return any(
        (j - i + 1) > burst + rate * (grants[j] - grants[i]) + 1e-9
        for i in range(len(grants))
        for j in range(i + 1, len(grants))
    )


# Dyadic values keep both formulations exact in binary floating point, so
# they must agree on the boundary cases too, not only away from them.
eighths = st.integers(0, 400).map(lambda n: n / 8)


@given(
    grants=st.lists(eighths, max_size=40),
    burst=st.integers(1, 8),
    rate=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0]),
    monotone=st.booleans(),
)
def test_fairness_single_pass_matches_the_pair_loop(grants, burst, rate, monotone):
    if monotone:
        grants = sorted(grants)
    bucket = TokenBucket(rate, burst, "b")
    bucket.grants.extend(grants)
    assert bool(list(rate_limit_fairness(bucket))) == overdrawn_pairwise(
        grants, bucket.burst, bucket.rate
    )


# ----------------------------------------------------------------------
# DESIGN §6a is the table
# ----------------------------------------------------------------------


def test_design_table_lists_exactly_the_registered_invariants():
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    section = design[design.index("## 6a."):design.index("## 6b.")]
    rows = re.findall(r"^\| `(\w+)` \| ([\w ]+?) \|", section, re.MULTILINE)
    assert rows == [(inv.name, inv.scope) for inv in INVARIANTS]
