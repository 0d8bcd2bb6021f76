"""The §4.2 per-alert pipeline, extracted into composable stages.

MyAlertBuddy's per-alert flow — classification → aggregation → filtering →
routing (with delivery retry) — used to live inline in ``buddy.py``.  Here it
is an explicit :class:`AlertPipeline`: an ordered list of
:class:`PipelineStage` objects sharing one :class:`PipelineContext` per
alert.  A stage either advances the context or finishes it with a journal
outcome (``rejected``, ``unmapped``, ``filtered``, ``no_subscribers``,
``routed`` / ``retry_scheduled`` / ``delivery_abandoned``).

The split buys two things:

- **buddy.py shrinks to lifecycle/HA concerns** (incarnations, MDC
  protocol, self-stabilization, rejuvenation) and simply owns a pipeline;
- **each stage is independently unit-testable** against a synthetic context
  (see ``tests/test_core_pipeline.py``).

The source side of a delivery is :meth:`repro.sources.base.AlertSource.deliver`.

Determinism contract: the stage order and every RNG draw (processing
latency, routing overhead) are exactly the pre-refactor sequence, so a
fixed seed produces a byte-identical journal (covered by the golden test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.core.alert import Alert
from repro.core.endpoint import IncomingAlert, SimbaEndpoint
from repro.core.filters import FilterDecision
from repro.core.pessimistic_log import TERMINAL_KINDS, DeliveryStatus
from repro.errors import AlertRejected
from repro.net.message import ChannelType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.admission import AdmissionController
    from repro.core.buddy import BuddyConfig, BuddyJournal
    from repro.core.pessimistic_log import LogEntry, PessimisticLog
    from repro.core.subscription import Subscription
    from repro.sim.kernel import Environment


@dataclass
class PipelineContext:
    """Everything one alert's trip through the stages can see or mutate."""

    env: "Environment"
    config: "BuddyConfig"
    endpoint: SimbaEndpoint
    log: "PessimisticLog"
    journal: "BuddyJournal"
    rng: np.random.Generator
    incoming: IncomingAlert
    #: The pessimistic-log entry backing this alert, if it arrived by IM.
    entry: Optional["LogEntry"] = None
    # Stage products.
    keyword: Optional[str] = None
    category: Optional[str] = None
    subscriptions: Optional[list["Subscription"]] = None
    failed_users: set[str] = field(default_factory=set)
    finished: bool = False
    outcome_kind: Optional[str] = None
    #: Fencing epoch the trip ran under (replicated pairs only).
    epoch: Optional[int] = None
    #: Tracing only: the open "trip" span and the currently-running stage's
    #: span (stages parent their own spans — e.g. per-subscriber delivery —
    #: under these).  Both None when tracing is off.
    trace_span: Optional[object] = None
    trace_stage: Optional[object] = None

    @property
    def alert(self) -> "Alert":
        return self.incoming.alert

    def finish(self, kind: str, detail: str = "") -> None:
        """Record the terminal journal outcome and mark the log entry
        processed — the log-entry lifecycle every early exit shares."""
        self.finished = True
        self.outcome_kind = kind
        self.journal.record(
            self.env.now, kind, detail, alert_id=self.alert.alert_id
        )
        if self.entry is not None:
            self.log.mark_processed(self.entry.entry_id)


class PipelineStage:
    """One step of the per-alert flow.

    ``run`` is a simulation generator: it may wait (yield timeouts/events)
    and either finishes the context or lets the next stage continue.
    """

    name = "stage"

    def run(self, ctx: PipelineContext):  # pragma: no cover - interface
        raise NotImplementedError
        yield  # noqa: W0101 - marks this as a generator to subclasses


def _admission_for(config) -> Optional["AdmissionController"]:
    """The persistent admission controller, or None when unconfigured.

    Resolved through the config (not the incarnation) so buckets, storm
    state and dead letters survive MAB crashes and MDC restarts.
    """
    getter = getattr(config, "admission_controller", None)
    return getter() if getter is not None else None


class AdmissionStage(PipelineStage):
    """Storm-mode load shedding at the front of the pipeline.

    Under storm (arrival rate or inbox depth over threshold), low-priority
    alerts are dropped (``shed``) or folded into a recent same-keyword
    delivery (``coalesced``) — both explicit journal outcomes, never a
    silent drop.  Retries are already-admitted traffic and pass through.
    A permissive config draws no RNG and yields nothing, so journals stay
    byte-identical with admission off.
    """

    name = "admission"

    def run(self, ctx: PipelineContext):
        controller = _admission_for(ctx.config)
        if controller is None or controller.shedder is None:
            return
        if ctx.incoming.retry_users is not None:
            return
        decision = controller.admit(
            ctx.env.now,
            ctx.alert.alert_id,
            ctx.alert.keyword or ctx.alert.subject,
            ctx.alert.severity.value,
            len(ctx.endpoint.alert_inbox),
        )
        if ctx.trace_stage is not None:
            ctx.trace_stage.annotations["admission"] = decision.action
            if decision.reason:
                ctx.trace_stage.annotations["reason"] = decision.reason
        if decision.action == "shed":
            ctx.finish("shed", decision.reason)
        elif decision.action == "coalesce":
            ctx.finish("coalesced", f"into {decision.coalesced_into}")
        return
        yield  # pragma: no cover - purely synchronous stage


class ThrottleStage(PipelineStage):
    """Token-bucket pacing (global + per-recipient) before routing.

    Reserves one token in every configured scope; a short shortage is
    absorbed by waiting for the refill, while a wait beyond
    ``max_throttle_delay`` rate-limits the alert as an explicit terminal
    outcome instead of queueing unboundedly.
    """

    name = "throttle"

    def run(self, ctx: PipelineContext):
        controller = _admission_for(ctx.config)
        if controller is None:
            return
        wait = controller.reserve_route(ctx.env.now, ctx.config.user)
        if wait is None:
            controller.count_shed("rate_limited")
            if ctx.trace_stage is not None:
                ctx.trace_stage.annotations["admission"] = "rate_limited"
            ctx.finish(
                "rate_limited",
                f"throttle wait over {controller.config.max_throttle_delay:.0f}s",
            )
            return
        if wait > 0:
            if ctx.trace_stage is not None:
                ctx.trace_stage.annotations["throttle_wait"] = round(wait, 3)
            yield ctx.env.timeout(wait)


class ClassifyStage(PipelineStage):
    """§4.2 "Alert classification": extract the category keyword.

    Pays the per-alert processing latency, then asks the classifier —
    an unaccepted source or unextractable keyword rejects the alert.
    """

    name = "classify"

    def run(self, ctx: PipelineContext):
        yield ctx.env.timeout(ctx.config.processing_latency.draw(ctx.rng))
        try:
            ctx.keyword = ctx.config.classifier.classify(
                ctx.alert, sender=ctx.incoming.sender
            )
        except AlertRejected as exc:
            ctx.finish("rejected", str(exc))


class AggregateStage(PipelineStage):
    """§4.2 "Alert aggregation": map the keyword to a personal category."""

    name = "aggregate"

    def run(self, ctx: PipelineContext):
        ctx.category = ctx.config.aggregator.category_for(ctx.keyword)
        if ctx.category is None:
            ctx.finish("unmapped", f"keyword {ctx.keyword!r}")
        return
        yield  # pragma: no cover - purely synchronous stage


class FilterStage(PipelineStage):
    """§4.2 "Alert filtering": per-category suppression and time windows."""

    name = "filter"

    def run(self, ctx: PipelineContext):
        decision = ctx.config.filters.evaluate(ctx.category, ctx.env.now)
        if decision is not FilterDecision.DELIVER:
            ctx.finish("filtered", f"{ctx.category}: {decision.value}")
        return
        yield  # pragma: no cover - purely synchronous stage


class RouteStage(PipelineStage):
    """§4.2 "Alert routing": deliver to every subscriber of the category.

    Pays the routing overhead, executes each subscriber's delivery mode
    through the endpoint, and records per-subscriber outcomes.  Subscribers
    whose every communication block failed end up in ``ctx.failed_users``
    for the retry stage.
    """

    name = "route"

    def run(self, ctx: PipelineContext):
        config = ctx.config
        subscriptions = config.subscriptions.subscriptions_for(ctx.category)
        if not subscriptions:
            ctx.finish("no_subscribers", ctx.category)
            return
        if ctx.incoming.retry_users is not None:
            subscriptions = [
                s for s in subscriptions if s.user in ctx.incoming.retry_users
            ]
        ctx.subscriptions = subscriptions

        yield ctx.env.timeout(config.routing_overhead.draw(ctx.rng))
        tracer = ctx.env.tracer
        for subscription in subscriptions:
            mode = config.subscriptions.mode(
                subscription.user, subscription.mode_name
            )
            book = config.subscriptions.address_book(subscription.user)
            dspan = None
            if tracer is not None:
                dspan = tracer.begin(
                    ctx.alert.alert_id,
                    "deliver.user",
                    parent=(
                        ctx.trace_stage.span_id
                        if ctx.trace_stage is not None
                        else None
                    ),
                    user=subscription.user,
                    mode=subscription.mode_name,
                )
                if ctx.epoch is not None:
                    dspan.annotations["epoch"] = ctx.epoch
            run = ctx.endpoint.deliver_alert(
                ctx.alert,
                mode,
                book,
                trace_parent=dspan.span_id if dspan is not None else None,
            )
            # Only a run that waits is yielded: this trip resumes in the
            # dispatch that settled its last block.
            outcome = run.value if run.processed else (yield run)
            if dspan is not None:
                tracer.end(
                    dspan, "delivered" if outcome.delivered else "failed"
                )
            ctx.journal.record(
                ctx.env.now,
                "routed" if outcome.delivered else "delivery_failed",
                f"{subscription.user} via {subscription.mode_name}",
                alert_id=ctx.alert.alert_id,
            )
            if not outcome.delivered:
                ctx.failed_users.add(subscription.user)


class RetryStage(PipelineStage):
    """Re-queue subscribers whose every block failed (§4.2.1 durability).

    An acknowledged alert must never be silently dropped: while attempts
    remain, the alert goes back into the inbox for the failed subscribers
    only, and the log entry stays unprocessed so even a crash inside the
    retry window cannot lose it.
    """

    name = "retry"

    def run(self, ctx: PipelineContext):
        config = ctx.config
        incoming = ctx.incoming
        alert = ctx.alert
        controller = _admission_for(config)
        status = ctx.log.status.setdefault(alert.alert_id, DeliveryStatus())
        if (
            ctx.failed_users
            and incoming.attempts + 1 < config.delivery_max_attempts
            and (controller is None or controller.take_retry_token(status))
        ):
            delay = (
                config.delivery_retry_delay
                if controller is None
                else controller.retry_delay(
                    incoming.attempts, config.delivery_retry_delay
                )
            )
            ctx.journal.record(
                ctx.env.now,
                "retry_scheduled",
                f"attempt {incoming.attempts + 1} for {sorted(ctx.failed_users)}",
                alert_id=alert.alert_id,
            )
            ctx.env.process(
                self._requeue(ctx, incoming, set(ctx.failed_users), delay),
                name=f"retry-{alert.alert_id}",
            )
            # While the chain is in flight, later incoming copies (sender
            # fallback duplicates, recovery replays) defer to it, and once
            # some subscriber has it none of them may route it again.
            if status.state == "retrying" and not ctx.failed_users.issuperset(
                s.user for s in ctx.subscriptions
            ):
                status.state = "partial"
            ctx.finished = True
            ctx.outcome_kind = "retry_scheduled"
            return
        terminal = "routed"
        if ctx.failed_users:
            if controller is not None and controller.config.retry_budget is not None:
                # Poison path: the alert's cross-incarnation retry budget
                # is spent — park it in the dead-letter queue instead of
                # retrying a persistently-failing delivery forever.
                letter = controller.dead_letter(
                    alert.alert_id,
                    "retry budget exhausted",
                    ctx.env.now,
                    incoming.attempts + 1,
                )
                ctx.journal.record(
                    ctx.env.now,
                    "dead_lettered",
                    f"budget exhausted after {letter.attempts} attempts "
                    f"for {sorted(ctx.failed_users)}",
                    alert_id=alert.alert_id,
                )
                terminal = "dead_lettered"
            else:
                ctx.journal.record(
                    ctx.env.now,
                    "delivery_abandoned",
                    f"gave up after {config.delivery_max_attempts} attempts",
                    alert_id=alert.alert_id,
                )
                terminal = "delivery_abandoned"
        status.state = terminal
        if ctx.entry is not None:
            ctx.log.mark_processed(ctx.entry.entry_id)
        ctx.finished = True
        ctx.outcome_kind = terminal
        return
        yield  # pragma: no cover - only waits inside _requeue

    @staticmethod
    def _requeue(
        ctx: PipelineContext,
        incoming: IncomingAlert,
        failed_users: set[str],
        delay: Optional[float] = None,
    ):
        yield ctx.env.timeout(
            ctx.config.delivery_retry_delay if delay is None else delay
        )
        retry = IncomingAlert(
            alert=incoming.alert,
            via=incoming.via,
            sender=incoming.sender,
            received_at=incoming.received_at,
            seq=incoming.seq,
            attempts=incoming.attempts + 1,
            retry_users=frozenset(failed_users),
            # The retry trip parents under the trip that scheduled it, so
            # the whole retry chain reads as one causal thread.
            trace_parent=(
                ctx.trace_span.span_id if ctx.trace_span is not None else None
            ),
        )
        ctx.endpoint.alert_inbox.put(retry)


#: The standard stage tuples.  Stages keep no state between alerts, so
#: every pipeline shares these instances.
_STANDARD_STAGES: tuple[PipelineStage, ...] = (
    ClassifyStage(),
    AggregateStage(),
    FilterStage(),
    RouteStage(),
    RetryStage(),
)
_HARDENED_STAGES: tuple[PipelineStage, ...] = (
    AdmissionStage(),
    *_STANDARD_STAGES[:3],
    ThrottleStage(),
    *_STANDARD_STAGES[3:],
)


def default_stages(admission: bool = False) -> tuple[PipelineStage, ...]:
    """The paper's §4.2 order: classify → aggregate → filter → route → retry.

    With ``admission`` the hardening stages slot in: storm shedding before
    any per-alert work is paid, token-bucket pacing after filtering (no
    point spending tokens on alerts a filter would drop anyway).
    """
    return _HARDENED_STAGES if admission else _STANDARD_STAGES


class AlertPipeline:
    """Run alerts through the §4.2 stages against one MAB's configuration.

    The pipeline is stateless between alerts (all per-alert state lives in
    the context), so one instance serves every incarnation of a deployment
    — and, in a :class:`~repro.core.farm.BuddyFarm`, thousands of pipelines
    share the same stage *instances* safely.
    """

    def __init__(
        self,
        env: "Environment",
        config: "BuddyConfig",
        endpoint: SimbaEndpoint,
        log: "PessimisticLog",
        journal: "BuddyJournal",
        rng: np.random.Generator,
        stages: Optional[Iterable[PipelineStage]] = None,
        on_progress: Optional[Callable[[], None]] = None,
        on_outcome: Optional[Callable[[PipelineContext], None]] = None,
    ):
        self.env = env
        self.config = config
        self.endpoint = endpoint
        self.log = log
        self.journal = journal
        self.rng = rng
        #: Persistent admission controller (traffic hardening), or None.
        self.admission = _admission_for(config)
        if self.admission is not None:
            # Per-channel provider limits live at the submission layer.
            endpoint.engine.admission = self.admission
        self.stages = (
            tuple(stages)
            if stages is not None
            else default_stages(admission=self.admission is not None)
        )
        #: Invoked whenever an alert's trip completes a routing pass — the
        #: buddy hooks its progress timestamp (watched by the MDC) here.
        self.on_progress = on_progress
        #: Invoked with the context after every completed trip through the
        #: stages, terminal or not — the chaos testkit's delivery oracle
        #: hooks here to observe outcomes independently of the journal (a
        #: trip that ends with ``finished=False`` dropped the alert).
        self.on_outcome = on_outcome

    def make_context(self, incoming: IncomingAlert) -> PipelineContext:
        return PipelineContext(
            env=self.env,
            config=self.config,
            endpoint=self.endpoint,
            log=self.log,
            journal=self.journal,
            rng=self.rng,
            incoming=incoming,
            entry=self.log.entry_for_alert(incoming.alert.alert_id),
        )

    def _replication_guard(self):
        """The pair side shipping this log, if replication is wired."""
        shipper = getattr(self.log, "shipper", None)
        if shipper is not None and hasattr(shipper, "route_guard"):
            return shipper
        return None

    def process(self, incoming: IncomingAlert):
        """Generator: run one alert through the stages; returns the context."""
        guard = self._replication_guard()
        ctx = self.make_context(incoming)
        tracer = self.env.tracer
        if guard is not None:
            ctx.epoch = guard.epoch
            if not guard.route_guard(incoming):
                # Fenced epoch: this side must not route.  The guard has
                # already forwarded the alert to the active side; the log
                # entry stays unprocessed for reconciliation to hand over.
                ctx.finished = True
                ctx.outcome_kind = "fenced"
                if tracer is not None:
                    tracer.event(
                        ctx.alert.alert_id,
                        "trip.fenced",
                        parent=incoming.trace_parent,
                        user=self.config.user,
                        epoch=guard.epoch,
                    )
                self.journal.record(
                    self.env.now,
                    "fenced",
                    f"via {incoming.via.value}",
                    alert_id=ctx.alert.alert_id,
                )
                if self.on_outcome is not None:
                    self.on_outcome(ctx)
                return ctx
        span = None
        if tracer is not None:
            span = tracer.begin(
                ctx.alert.alert_id,
                "trip",
                parent=incoming.trace_parent,
                user=self.config.user,
                attempt=incoming.attempts,
            )
            if ctx.epoch is not None:
                span.annotations["epoch"] = ctx.epoch
            ctx.trace_span = span
        status = (
            self.log.status.get(ctx.alert.alert_id)
            if incoming.retry_users is None else None
        )
        if status is not None:
            # A copy of an alert this log holds a status for: a settled one
            # is suppressed past dedup when admission dedups, anything else
            # defers to the first copy's trips.
            kind = "duplicate_incoming"
            if (
                status.state in TERMINAL_KINDS
                and self.admission is not None
                and self.admission.config.dedup_window is not None
            ):
                kind = "dedup_suppressed"
                self.admission.dedup_suppressed += 1
            ctx.finish(kind, f"via {incoming.via.value}")
            if guard is not None:
                yield from guard.after_trip(ctx)
            if span is not None:
                tracer.end(span, ctx.outcome_kind)
            if self.on_outcome is not None:
                self.on_outcome(ctx)
            return ctx
        for stage in self.stages:
            sspan = None
            if span is not None:
                sspan = tracer.begin(
                    ctx.alert.alert_id,
                    f"stage.{stage.name}",
                    parent=span.span_id,
                )
                ctx.trace_stage = sspan
            yield from stage.run(ctx)
            if sspan is not None:
                tracer.end(
                    sspan, ctx.outcome_kind if ctx.finished else "ok"
                )
                ctx.trace_stage = None
            if ctx.finished:
                break
        if guard is not None:
            # Ship queued 'processed' marks *before* the outcome becomes
            # observable: a crash mid-ship leaves the trip unobserved, so
            # the standby's replay is the one delivery the oracle sees.
            yield from guard.after_trip(ctx)
        if span is not None:
            tracer.end(
                span,
                ctx.outcome_kind
                if ctx.outcome_kind is not None
                else "unfinished",
            )
        if ctx.outcome_kind in ("retry_scheduled", "routed",
                                "delivery_abandoned"):
            if self.on_progress is not None:
                self.on_progress()
        if self.on_outcome is not None:
            self.on_outcome(ctx)
        return ctx

    def recover(self):
        """Replay unprocessed log entries before accepting new alerts.

        "Every time MyAlertBuddy is restarted, it first checks the log file
        for unprocessed IMs before accepting new alerts" (§4.2.1).
        """
        tracer = self.env.tracer
        for entry in self.log.unprocessed():
            self.journal.record(
                self.env.now, "recovery_replay", alert_id=entry.alert_id
            )
            incoming = IncomingAlert(
                alert=Alert.decode(entry.payload),
                via=ChannelType.IM,
                sender="(recovered)",
                received_at=entry.received_at,
            )
            if tracer is not None:
                replay = tracer.event(
                    entry.alert_id,
                    "recovery.replay",
                    user=self.config.user,
                )
                incoming.trace_parent = replay.span_id
            yield from self.process(incoming)
