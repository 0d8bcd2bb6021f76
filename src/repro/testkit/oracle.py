"""The delivery oracle: one table of invariants over one evidence record.

The §4.2.1 dependability story compresses to a handful of checkable
statements.  Each is a row of :data:`INVARIANTS` — a name, a *scope* and a
generator function whose docstring is the statement — and an invariant is
audited because it is in the table, nothing else switches it on or off.

The oracle hooks the pipeline (via ``BuddyConfig.pipeline_observer``) and,
after the run quiesces, :meth:`DeliveryOracle.check` runs **one loop**: for
every tenant it gathers one :class:`Evidence` record in a single pass over
the tenant's trips, receipts, logs, journals and ack tables — on *both*
sides of a :class:`~repro.core.replication.ReplicatedPair`, since a pair is
one logical MAB — and runs the table over it.  The record carries

- the tenant-wide facts (``name``, ``pair``, audited ``sides``, ``trips`` by
  alert, ``delivered`` and ``offered`` sets, ``routed_ids`` read off the
  logs' delivery status, the admission ``controller``), from which
  :meth:`Evidence.views` cuts, per scope, the argument tuples that scope's
  checks are called with — the record itself, or one tuple per alert /
  side / pair side / token bucket / ack table — so a check is a few lines
  about one thing, and
- ``checked`` / ``info`` tallies, which the loop sums without knowing what
  they count (``transport_converged_at`` is the one ``max``).

The run's source endpoints arrive as one more record (no tenant, only ack
tables).  A check yields ``(detail, alert_id)`` per breach; the loop is the
only code that turns a finding into a :class:`Violation` or writes a report
counter.  Two scopes have their own evidence and driver but the same table:
``"trace"`` (one alert's span tree, :func:`repro.testkit.trace_oracle
.check_trace`) and ``"layouts"`` (:func:`check_shard_count_invariance`).

:data:`OUTCOME_KINDS` is the audit's own reading of every outcome kind the
pipeline can finish a trip with; the kind sets used here, by the harness's
fate pass and by the trace oracle are all derived from it, so the oracle
never takes the pipeline's word for what counts as accounted for.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.core.stabilizing import RESEND_LIMIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.farm import BuddyFarm, FarmTenant
    from repro.core.pipeline import PipelineContext

#: Every outcome kind a pipeline trip can finish with → what it means to
#: the audit.  A kind missing here is one the oracle cannot account for:
#: ``pipeline_terminal`` and ``trace_terminal`` both flag it.
OUTCOME_KINDS = {
    # The alert went out to the user's devices.
    "routed": "delivered",
    # Delivery failed for now; a later trip carries the alert on.
    "retry_scheduled": "in-flight",
    # The system decided, on the record, that the user will not get it.
    "delivery_abandoned": "dead-letter",
    "rejected": "dead-letter",
    "unmapped": "dead-letter",
    "filtered": "dead-letter",
    "no_subscribers": "dead-letter",
    # The hardening layer (:mod:`repro.core.admission`) decided, on the
    # record, not to deliver this copy: shed/coalesced under storm,
    # rate-limited past the throttle ceiling, suppressed as a duplicate
    # past its dedup key, or parked in the dead-letter queue after the
    # retry budget.  None may ever be silent.
    "shed": "admission-terminal",
    "coalesced": "admission-terminal",
    "rate_limited": "admission-terminal",
    "dedup_suppressed": "admission-terminal",
    "dead_lettered": "admission-terminal",
    # A copy of an alert this MAB already holds; the first copy's trips
    # account for it.
    "duplicate_incoming": "duplicate",
    # A fenced pair side refused the trip and forwarded the alert to the
    # active side: terminal, but neither a delivery nor a dead letter.
    "fenced": "fenced",
}


def _kinds(meaning: str) -> frozenset[str]:
    return frozenset(k for k, m in OUTCOME_KINDS.items() if m == meaning)


DEAD_LETTER_KINDS = _kinds("dead-letter")
ADMISSION_TERMINAL_KINDS = _kinds("admission-terminal")
#: Kinds that put an undelivered alert on the record.
ACCOUNTED_KINDS = DEAD_LETTER_KINDS | ADMISSION_TERMINAL_KINDS
#: The trips after which a later copy of the alert may be suppressed.
SETTLING_KINDS = frozenset({"routed", "delivery_abandoned", "dead_lettered"})


@dataclass(slots=True)
class ObservedOutcome:
    """One completed pipeline trip, as seen by the oracle's observer."""

    user: str
    alert_id: str
    subject: str
    kind: Optional[str]
    finished: bool
    at: float
    #: Fencing epoch the trip ran under (replicated tenants only).
    epoch: Optional[int] = None


@dataclass
class Violation:
    """One invariant breach (``invariant`` names which)."""

    invariant: str
    detail: str
    user: Optional[str] = None
    alert_id: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.user}]" if self.user else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class OracleReport:
    """Everything the oracle concluded about one run."""

    checked: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    #: Legal-but-notable counters (late acks, unsolicited acks, duplicates
    #: discarded at the user) — reported, never asserted on.
    info: dict[str, int] = field(default_factory=dict)
    #: Breaches of the ``"trace"``-scope invariants — populated only when
    #: the run traced; kept separate so reports can attribute a failure to
    #: the journal view, the trace view, or both.
    trace_violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.trace_violations

    def summary(self) -> str:
        checked = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        if self.ok:
            return f"oracle OK ({checked})"
        found = self.violations + self.trace_violations
        lines = [f"oracle FAILED: {len(found)} violation(s) ({checked})"]
        lines.extend(f"  - {v}" for v in found)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The evidence record
# ----------------------------------------------------------------------


@dataclass
class Evidence:
    """What the audit reads about one tenant (see the module docstring)."""

    #: Tenant the findings are attributed to; None for the source record.
    name: Optional[str] = None
    pair: object = None
    #: ``(where, deployment)`` per audited side; ``where`` is the suffix a
    #: detail names the side with ("" for a solo tenant).
    sides: list[tuple] = field(default_factory=list)
    #: ``(where, AckTable)`` per endpoint whose acks are audited.
    ack_tables: list[tuple] = field(default_factory=list)
    trips: dict[str, list[ObservedOutcome]] = field(default_factory=dict)
    delivered: set[str] = field(default_factory=set)
    #: Alert ids the workload addressed to this tenant (None = not told).
    offered: Optional[set[str]] = None
    #: Alerts whose delivery status on either side's log says some
    #: subscriber may hold them (partially routed or settled).
    routed_ids: set[str] = field(default_factory=set)
    controller: object = None
    checked: dict[str, int] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Every record carries the always-reported tallies, so the report's
        # keys do not depend on the farm being non-empty.
        self.checked.update(alerts=0, log_entries=0)
        self.info.update(
            corrupt_discarded=0,
            user_duplicates_discarded=0,
            # Legal-but-notable: *late* acks after an ack-timeout fallback.
            late_acks=sum(a.late_count for _, a in self.ack_tables),
            unsolicited_acks=sum(
                a.unsolicited_count for _, a in self.ack_tables
            ),
        )

    def views(self) -> dict[str, list[tuple]]:
        """scope → the argument tuples that scope's checks are called with."""
        views = {"ack table": self.ack_tables}
        if self.name is not None:
            views["tenant"] = [(self,)]
            views["alert"] = [(self, a, t) for a, t in self.trips.items()]
            views["side"] = [(self, where, d) for where, d in self.sides]
        if self.pair is not None:
            views["pair"] = [(self.pair,)]
            views["pair side"] = [(side,) for side in self.pair.sides()]
        if self.controller is not None:
            views["hardened tenant"] = [(self,)]
            views["bucket"] = [(b,) for b in self.controller.all_buckets()]
        return views


def tenant_evidence(
    tenant: "FarmTenant",
    trips: dict[str, list[ObservedOutcome]],
    offered: Optional[dict[str, set[str]]],
) -> Evidence:
    """Gather one tenant's record: one pass, no judgement."""
    pair = tenant.pair
    if pair is None:
        sides = [("", tenant.deployment)]
    else:
        sides = [
            (f" (side {side.label})", side.deployment)
            for side in pair.sides()
        ]
    ev = Evidence(
        name=tenant.name,
        pair=pair,
        sides=sides,
        ack_tables=[
            (f"the MAB{where}", d.endpoint.engine.acks) for where, d in sides
        ],
        trips=trips,
        delivered=tenant.user.unique_alerts_received(),
        offered=None if offered is None else offered.get(tenant.name, set()),
        routed_ids={
            alert_id
            for _, d in sides
            for alert_id, status in d.log.status.items()
            if status.routed
        },
        controller=tenant.deployment.config.admission_controller(),
    )
    ev.checked["alerts"] = len(trips)
    ev.checked["log_entries"] = sum(len(d.log) for _, d in sides)
    ev.info["user_duplicates_discarded"] = tenant.user.duplicates_discarded()
    ev.info["corrupt_discarded"] = tenant.user.corrupt_discarded + sum(
        d.endpoint.corrupt_discarded for _, d in sides
    )
    if pair is not None:
        audits = [side.transport_audit for side in pair.sides()]
        ev.checked["pairs"] = 1
        # The first promotion record is the initial epoch grant.
        ev.checked["promotions"] = len(pair.audit.promotions) - 1
        ev.checked["transport_shipped"] = sum(a.shipped for a in audits)
        ev.info["forwarded_by_fenced"] = len(pair.audit.forwarded)
        ev.info["transport_resends"] = sum(a.resends for a in audits)
        for counter in ("corrupt_rejected", "duplicate_dropped",
                        "corrupt_accepted", "duplicate_applied"):
            ev.info[counter] = sum(getattr(a, counter) for a in audits)
        # Sim time the unshipped queues last drained — the E14
        # convergence figure (bounded lag past the fault window).
        ev.info["transport_converged_at"] = max(
            a.last_drained_at for a in audits
        )
    if ev.controller is not None:
        decided = ev.controller.summary()
        ev.checked["admission_tenants"] = 1
        ev.info["admission_sheds"] = sum(ev.controller.shed_counts.values())
        ev.info["admission_suppressed"] = decided["dedup_suppressed"]
        ev.info["admission_dead_letters"] = decided["dead_letters"]
        buckets = len(ev.controller.all_buckets())
        if buckets:
            ev.checked["buckets"] = buckets
    return ev


# ----------------------------------------------------------------------
# The invariants.  Each yields ``(detail, alert_id)`` per breach.
# ----------------------------------------------------------------------


def pipeline_terminal(tenant: Evidence, alert_id, trips):
    """Every observed trip through the stages finished with an outcome the
    kind table classifies.  A trip that ran off the end of the stage list
    dropped its alert on the floor (exactly what a missing RetryStage looks
    like); a kind :data:`OUTCOME_KINDS` does not know is an ending nobody
    decided how to account for."""
    for trip in trips:
        if not trip.finished or trip.kind is None:
            yield (
                f"trip at t={trip.at:.1f} ended without an outcome (alert "
                "dropped by the stage list)",
                alert_id,
            )
        elif trip.kind not in OUTCOME_KINDS:
            yield (
                f"trip at t={trip.at:.1f} ended with {trip.kind!r}, an "
                "outcome kind the audit does not classify",
                alert_id,
            )


def exactly_once(tenant: Evidence, alert_id, trips):
    """At most one terminal ``routed`` trip per alert per tenant (the
    duplicate check on the log's delivery status is load-bearing).  A
    replicated pair may legally route under two *different* epochs in the
    partition shape — ``no_fenced_reroute`` judges that; a repeat under one
    epoch, or with no epoch at all, stays a plain duplicate."""
    routed = [t for t in trips if t.kind == "routed"]
    if len(routed) < 2:
        return
    if tenant.pair is None:
        yield f"{len(routed)} terminal 'routed' trips", alert_id
        return
    for epoch, count in Counter(t.epoch for t in routed).items():
        if count > 1 or epoch is None:
            yield (
                f"{count} terminal 'routed' trips under epoch {epoch}",
                alert_id,
            )


def no_fenced_reroute(tenant: Evidence, alert_id, trips):
    """An alert routed under two epochs is legal only as the partition
    carve-out: for each epoch step the earlier epoch's routing pass was
    initiated *before* the later epoch's promotion (the trip was in flight
    when the primary lost the lease) *and* the alert's ``processed`` mark
    never reached the standby before the later epoch re-routed (so the
    mirrored entry was still unprocessed and the replay was the correct
    call).  Anything else — the mark was shipped yet the new primary routed
    again, or the old primary routed *after* losing the epoch — is a real
    duplicate."""
    if tenant.pair is None or len(trips) < 2:
        return
    audit = tenant.pair.audit
    epochs = sorted(
        {t.epoch for t in trips if t.kind == "routed" and t.epoch is not None}
    )

    def initiated_at(epoch):
        return min(
            (
                a.at
                for a in audit.actions_of("route")
                if a.alert_id == alert_id and a.epoch == epoch
            ),
            default=None,
        )

    for earlier, later in zip(epochs, epochs[1:]):
        promoted_at = audit.promotion_at(later)
        earlier_at, later_at = initiated_at(earlier), initiated_at(later)
        if promoted_at is None or earlier_at is None or later_at is None:
            yield (
                f"routed under epochs {earlier} and {later} but the audit "
                "trail is missing the promotion or a route initiation record",
                alert_id,
            )
        elif earlier_at >= promoted_at:
            yield (
                f"epoch-{earlier} route initiated at t={earlier_at:.1f}, "
                f"after epoch {later} promoted at t={promoted_at:.1f}",
                alert_id,
            )
        elif audit.mark_shipped_before(alert_id, later_at):
            yield (
                f"epoch {later} re-routed at t={later_at:.1f} an alert whose "
                "'processed' mark had already reached the standby",
                alert_id,
            )


def delivered_or_dead_letter(tenant: Evidence, alert_id, trips):
    """Every alert the MAB accepted either reached the user's devices or
    carries an explicit dead-letter or admission-terminal outcome.  Silent
    loss is the one unforgivable outcome."""
    kinds = [t.kind for t in trips]
    if alert_id not in tenant.delivered and ACCOUNTED_KINDS.isdisjoint(kinds):
        yield (
            "accepted alert never reached the user and was never "
            f"dead-lettered (outcomes: {kinds})",
            alert_id,
        )


def tenant_isolation(tenant: Evidence):
    """No user ever receives an alert addressed to a different tenant
    (needs the workload's ``offered`` sets; vacuous without them)."""
    if tenant.offered is not None and tenant.delivered - tenant.offered:
        yield (
            f"received {len(tenant.delivered - tenant.offered)} alert(s) "
            "addressed to other tenants",
            None,
        )


def no_duplicate_acks(where: str, acks):
    """No (peer, seq) is ever acknowledged twice — at a MAB (either pair
    side) or at a source waiting on MAB acks.  :class:`~repro.core.router
    .AckTable` classifies every ack; late acks are legal and only tallied."""
    if acks.duplicate_count:
        yield f"{acks.duplicate_count} duplicate ack(s) at {where}", None


def log_quiescent(tenant: Evidence, where: str, deployment):
    """The pessimistic log holds no unprocessed entries once the run
    settles: every crash left nothing behind to replay.  For a standby this
    doubles as the mirror check — an unprocessed mirrored entry after
    settle is work a promotion would wrongly replay."""
    pending = deployment.log.unprocessed()
    if pending:
        yield (
            f"{len(pending)} unprocessed log entr(ies) after settle{where}",
            None,
        )


def replay_idempotent(tenant: Evidence, where: str, deployment):
    """Re-running recovery over the log would be a no-op: every processed
    entry is either in ``routed_ids`` (replay would hit the duplicate
    check on its delivery status) or was explicitly dead-lettered (replay
    would deterministically dead-letter it again).  Unprocessed entries are
    ``log_quiescent``'s business."""
    for entry in deployment.log.entries():
        if not entry.processed or entry.alert_id in tenant.routed_ids:
            continue
        kinds = [t.kind for t in tenant.trips.get(entry.alert_id, ())]
        if ACCOUNTED_KINDS.isdisjoint(kinds):
            yield (
                "processed log entry is neither in routed_ids nor "
                f"dead-lettered{where} (outcomes: {kinds})",
                entry.alert_id,
            )


def at_most_one_active_epoch(pair):
    """No ack or routing pass is *initiated* under epoch E strictly after a
    later epoch's promotion.  The guards consult the fencing service
    synchronously before the :class:`~repro.core.replication.EpochAudit`
    record is written, so any such action means a guard was bypassed —
    split-brain, not an in-flight delivery finishing late.  Same-instant
    records are legal (the promotion and the action raced within one kernel
    timestep)."""
    audit = pair.audit
    offending = []
    for action in audit.actions:
        if action.kind not in ("ack", "route"):
            continue
        for promo in audit.promotions:
            if promo.epoch > action.epoch and action.at > promo.at:
                offending.append((action, promo))
                break
    if offending:
        action, promo = offending[0]
        yield (
            f"{len(offending)} action(s) initiated under a fenced epoch, "
            f"e.g. '{action.kind}' under epoch {action.epoch} at "
            f"t={action.at:.1f} after epoch {promo.epoch} promoted at "
            f"t={promo.at:.1f}",
            None,
        )


def no_corrupt_accepted(side):
    """No receiver ever applied a frame the channel corrupted in flight;
    the stabilizing receiver's checksum rejects it and the sender resends.
    Holds by construction under :mod:`repro.core.stabilizing` and is
    exactly the counter the naive baseline accumulates under an adversary
    — the oracle is what makes E14's ablation a pass/fail statement."""
    accepted = side.transport_audit.corrupt_accepted
    if accepted:
        yield f"{accepted} corrupt frame(s) applied at side {side.label}", None


def stabilized_exactly_once(side):
    """No record was ever applied twice by the transport: duplicate copies
    the adversary injected were dropped at the dedup watermark."""
    applied = side.transport_audit.duplicate_applied
    if applied:
        yield (
            f"{applied} duplicate frame(s) re-applied at side {side.label}",
            None,
        )


def convergence_bounded(side):
    """The self-stabilization promise: after the run settles the unshipped
    queue has drained, and no single ship spun past its structural ceiling
    of ``RESEND_LIMIT + 1`` rounds.  A give-up *at* the ceiling is the
    designed escape hatch (the record goes back to the caller's queue under
    a fresh sequence number), so only a resend loop that kept going beyond
    its budget counts.  Queue-drained only binds when shipping was possible
    at settle: a run ending with the peer crashed or the link down
    legitimately leaves records queued (the flush loop retries forever)."""
    audit = side.transport_audit
    if audit.max_resend_rounds > RESEND_LIMIT + 1:
        yield (
            f"a frame took {audit.max_resend_rounds} resend rounds (ceiling "
            f"{RESEND_LIMIT + 1}) at side {side.label}",
            None,
        )
    peer = side.peer
    shippable = (
        side.host.up
        and peer.host.up
        and side.pair.link.usable(toward=peer.host)
    )
    if side.unshipped and shippable:
        yield (
            f"{len(side.unshipped)} record(s) still unshipped after settle "
            f"at side {side.label}",
            None,
        )


def every_shed_is_journalled(tenant: Evidence):
    """Each drop the admission controller decided — shed, coalesced,
    rate-limited, dedup-suppressed: every admission kind its summary
    tallies — has exactly one matching journal outcome.  A count mismatch
    means a silent drop, or a journal entry nobody decided."""
    decided = tenant.controller.summary()
    for kind in sorted(ADMISSION_TERMINAL_KINDS & decided.keys()):
        journalled = sum(d.journal.count(kind) for _, d in tenant.sides)
        if decided[kind] != journalled:
            yield (
                f"controller decided {decided[kind]} '{kind}' drop(s) but "
                f"the journal records {journalled}",
                None,
            )


def no_duplicate_past_dedup(tenant: Evidence):
    """Every dedup suppression follows a terminal trip (routed, abandoned
    or dead-lettered) of the same alert, and no alert with a suppressed
    copy was terminally routed more than once."""
    for alert_id, trips in tenant.trips.items():
        kinds = [t.kind for t in trips]
        if "dedup_suppressed" not in kinds:
            continue
        first = kinds.index("dedup_suppressed")
        if SETTLING_KINDS.isdisjoint(kinds[:first]):
            yield (
                f"copy suppressed at t={trips[first].at:.1f} before any "
                "terminal trip of the alert",
                alert_id,
            )
        if kinds.count("routed") > 1:
            yield (
                f"alert was routed {kinds.count('routed')} times despite a "
                "dedup suppression",
                alert_id,
            )


def rate_limit_fairness(bucket):
    """A token bucket's grants inside *any* time interval ``W`` never
    exceed ``burst + rate × W``.  For grant times ``g``, "for all i < j:
    j − i + 1 ≤ burst + rate·(g[j] − g[i])" is ``f(j) − min f(i<j) + 1 ≤
    burst`` with ``f(k) = k − rate·g[k]``: one pass with a running minimum.
    Reports the first grant that overdraws any earlier window."""
    floor = first = None
    for j, at in enumerate(bucket.grants):
        level = j - bucket.rate * at
        if floor is not None and level - floor + 1 > bucket.burst + 1e-9:
            window = at - bucket.grants[first]
            yield (
                f"bucket {bucket.name!r} granted {j - first + 1} tokens in "
                f"{window:.2f}s (allowed "
                f"{bucket.burst + bucket.rate * window:.2f})",
                None,
            )
            return
        if floor is None or level < floor:
            floor, first = level, j


# ----------------------------------------------------------------------
# The table, and the oracle that runs it
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """One row of the audit: ``check`` is called with each of its scope's
    view tuples and yields ``(detail, alert_id)`` per breach — except under
    ``"trace"``, whose evidence *is* one alert and whose findings name the
    user instead: ``(detail, user)``."""

    name: str
    scope: str
    check: Callable[..., Iterator[tuple[str, Optional[str]]]]


def findings(views: dict[str, list[tuple]]) -> Iterator[tuple]:
    """Run the table over one evidence record's views, in table order:
    ``(invariant name, detail, alert_id)`` per breach."""
    for invariant in INVARIANTS:
        for view in views.get(invariant.scope, ()):
            for detail, subject in invariant.check(*view):
                yield invariant.name, detail, subject


class DeliveryOracle:
    """Observes pipeline outcomes during a run, audits invariants after it."""

    def __init__(self):
        self.observed: list[ObservedOutcome] = []

    def observer_for(self, user: str) -> Callable[["PipelineContext"], None]:
        """A ``BuddyConfig.pipeline_observer`` recording this user's trips."""

        def observe(ctx: "PipelineContext") -> None:
            self.observed.append(
                ObservedOutcome(
                    user=user,
                    alert_id=ctx.alert.alert_id,
                    subject=ctx.alert.subject,
                    kind=ctx.outcome_kind,
                    finished=ctx.finished,
                    at=ctx.env.now,
                    epoch=getattr(ctx, "epoch", None),
                )
            )

        return observe

    def outcomes_by_user(self) -> dict[str, dict[str, list[ObservedOutcome]]]:
        """user → alert_id → trips, in observation order."""
        table: dict[str, dict[str, list[ObservedOutcome]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for obs in self.observed:
            table[obs.user][obs.alert_id].append(obs)
        return table

    def check(
        self,
        farm: "BuddyFarm",
        offered: Optional[dict[str, set[str]]] = None,
        source_endpoints: Iterable = (),
        trace_sink=None,
    ) -> OracleReport:
        """Audit every invariant against a quiesced farm.

        ``offered`` maps tenant name to the alert ids the workload addressed
        to that tenant — required for the tenant-isolation check, optional
        otherwise.  ``trace_sink`` (a :class:`repro.obs.TraceSink` from a
        traced run) additionally audits the ``"trace"``-scope invariants
        into ``report.trace_violations``.
        """
        report = OracleReport(
            checked={"tenants": len(farm), "observations": len(self.observed)}
        )
        by_user = self.outcomes_by_user()
        # Sources wait on MAB acks: their ack tables are audited too.
        sources = Evidence(
            ack_tables=[
                (f"source {e.name}", e.engine.acks) for e in source_endpoints
            ]
        )
        records = (
            tenant_evidence(tenant, by_user.get(tenant.name, {}), offered)
            for tenant in farm
        )
        for evidence in chain(records, [sources]):
            for key, n in evidence.checked.items():
                report.checked[key] = report.checked.get(key, 0) + n
            for key, n in evidence.info.items():
                if key == "transport_converged_at":
                    report.info[key] = max(n, report.info.get(key, n))
                else:
                    report.info[key] = report.info.get(key, 0) + n
            report.violations.extend(
                Violation(name, detail, user=evidence.name, alert_id=alert_id)
                for name, detail, alert_id in findings(evidence.views())
            )
        if trace_sink is not None:
            trace_checked, trace_violations = _trace.check_trace(trace_sink)
            report.checked.update(trace_checked)
            report.trace_violations.extend(trace_violations)
        return report


# ----------------------------------------------------------------------
# Shard-count invariance
# ----------------------------------------------------------------------


def shard_count_invariance(results):
    """A sharded run's results do not depend on the shard count.  The
    determinism contract of :mod:`repro.core.shard` — placement, per-tenant
    streams and bridge timestamps are all pure functions of seed and tenant
    name — promises that partitioning the tenant set differently only
    changes *where* work runs, never *what* happens: the merged journal
    fingerprint, aggregate counts, receipt totals and materialized tenant
    counts must be bit-identical across every layout."""
    if not results:
        yield "no sharded runs to compare", None
        return
    reference = results[0]
    for other in results[1:]:
        label = f"shards={other.shards} vs shards={reference.shards}"
        for what, fact, show in (
            ("merged journal fingerprint", "merged_fingerprint",
             lambda digest: digest[:16]),
            ("aggregate counts differ —", "counts", dict),
            ("receipt totals differ —", "receipts", str),
            ("materialized tenant counts differ —", "tenants", str),
        ):
            theirs, ours = getattr(other, fact), getattr(reference, fact)
            if theirs != ours:
                yield f"{label}: {what} {show(theirs)} != {show(ours)}", None


def check_shard_count_invariance(results) -> OracleReport:
    """Audit ``shard_count_invariance`` over a set of sharded runs (a list
    of :class:`~repro.experiments.sharded.ShardedRunResult`, e.g. the ones
    an e13 sweep just measured)."""
    report = OracleReport(checked={"shard_layouts": len(results)})
    if results:
        report.checked.update(tenants=results[0].tenants)
        report.info.update(receipts=results[0].receipts)
    report.violations.extend(
        Violation(name, detail)
        for name, detail, _ in findings({"layouts": [(results,)]})
    )
    return report


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

# The trace invariants live beside the span helpers they read.  Imported
# down here because trace_oracle itself imports the names defined above.
from repro.testkit import trace_oracle as _trace  # noqa: E402

#: Every invariant the testkit audits, in audit order.  To add one: write
#: the generator (its docstring is the statement), add its row here, add
#: its teeth case to ``tests/test_oracle_invariants.py`` — the enumeration
#: test fails until all three exist.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant("pipeline_terminal", "alert", pipeline_terminal),
    Invariant("exactly_once", "alert", exactly_once),
    Invariant("no_fenced_reroute", "alert", no_fenced_reroute),
    Invariant("delivered_or_dead_letter", "alert", delivered_or_dead_letter),
    Invariant("tenant_isolation", "tenant", tenant_isolation),
    Invariant("no_duplicate_acks", "ack table", no_duplicate_acks),
    Invariant("log_quiescent", "side", log_quiescent),
    Invariant("replay_idempotent", "side", replay_idempotent),
    Invariant("at_most_one_active_epoch", "pair", at_most_one_active_epoch),
    Invariant("no_corrupt_accepted", "pair side", no_corrupt_accepted),
    Invariant("stabilized_exactly_once", "pair side", stabilized_exactly_once),
    Invariant("convergence_bounded", "pair side", convergence_bounded),
    Invariant(
        "every_shed_is_journalled", "hardened tenant", every_shed_is_journalled
    ),
    Invariant(
        "no_duplicate_past_dedup", "hardened tenant", no_duplicate_past_dedup
    ),
    Invariant("rate_limit_fairness", "bucket", rate_limit_fairness),
    Invariant("trace_terminal_delivery", "trace", _trace.terminal_delivery),
    Invariant("trace_fenced_epoch", "trace", _trace.fenced_epoch),
    Invariant("trace_terminal", "trace", _trace.trip_terminal),
    Invariant("trace_fallback_ordering", "trace", _trace.fallback_ordering),
    Invariant("trace_structural", "trace", _trace.structural),
    Invariant("shard_count_invariance", "layouts", shard_count_invariance),
)
