"""MyAlertBuddy: the personal alert daemon's lifecycle and HA machinery.

One :class:`MyAlertBuddy` object is one *incarnation* — one run of the MAB
process between launches by the MDC.  Everything that must survive a crash
lives outside the incarnation and is passed in:

- the :class:`~repro.core.endpoint.SimbaEndpoint` (client software keeps
  running when MAB dies; a fresh incarnation re-attaches),
- the :class:`~repro.core.pessimistic_log.PessimisticLog`,
- the user-side configuration (:class:`BuddyConfig`),
- the :class:`BuddyJournal` audit trail.

The per-alert flow (§4.2: classification → aggregation → filtering →
routing, plus delivery retry and recovery replay) lives in
:mod:`repro.core.pipeline`; this module owns only what is specific to an
incarnation: high availability (§4.2.1) via pessimistic log-before-ack
(wired through the endpoint's ``pre_ack_hook``), the MDC probe protocol
(:meth:`attach_mdc`), self-stabilization tasks, and three-way rejuvenation.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    build_controller,
)
from repro.core.aggregator import CategoryAggregator
from repro.core.classifier import AlertClassifier
from repro.core.endpoint import IncomingAlert, SimbaEndpoint
from repro.core.filters import FilterPolicy
from repro.core.pessimistic_log import PessimisticLog
from repro.core.pipeline import AlertPipeline
from repro.core.rejuvenation import (
    RejuvenationKind,
    RejuvenationPolicy,
    RejuvenationRecord,
)
from repro.core.stabilizer import SelfStabilizer
from repro.core.subscription import SubscriptionLayer
from repro.errors import Interrupt, SimbaError
from repro.net.channel import LatencyModel
from repro.net.message import Message
from repro.sim.clock import seconds_until_time_of_day

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Timeout
    from repro.sim.kernel import Environment
    from repro.sim.process import Process

#: Classification + category lookup on period hardware.
DEFAULT_PROCESSING = LatencyModel(median=0.40, sigma=0.30, low=0.05, high=3.0)
#: Subscription enumeration + delivery-mode XML parsing before sending.
DEFAULT_ROUTING_OVERHEAD = LatencyModel(median=0.70, sigma=0.30, low=0.10, high=4.0)

#: "the sanity checking APIs are invoked every minute" (§4.2.1).
DEFAULT_SANITY_INTERVAL = 60.0

DEFAULT_MEMORY_BASE_MB = 40.0
DEFAULT_MEMORY_LIMIT_MB = 200.0
#: Small natural leak per processed alert — what nightly rejuvenation resets.
DEFAULT_LEAK_PER_ALERT_MB = 0.02


@dataclass
class BuddyConfig:
    """Persistent user-side configuration of one MAB."""

    user: str
    classifier: AlertClassifier
    aggregator: CategoryAggregator
    filters: FilterPolicy
    subscriptions: SubscriptionLayer
    rejuvenation: RejuvenationPolicy = field(default_factory=RejuvenationPolicy)
    processing_latency: LatencyModel = DEFAULT_PROCESSING
    routing_overhead: LatencyModel = DEFAULT_ROUTING_OVERHEAD
    sanity_interval: float = DEFAULT_SANITY_INTERVAL
    memory_limit_mb: float = DEFAULT_MEMORY_LIMIT_MB
    #: When every block of every subscription fails (e.g. a blocking system
    #: dialog took both clients down), re-queue the alert and try again —
    #: an acknowledged alert must never be silently dropped.
    delivery_retry_delay: float = 120.0
    delivery_max_attempts: int = 6
    # Ablation switches (§4.2.1 techniques; bench E9 disables one at a time).
    pessimistic_logging_enabled: bool = True
    self_stabilization_enabled: bool = True
    monkey_enabled: bool = True
    # Testkit hook points.  The config outlives incarnations, so hooks set
    # here survive every MDC restart — exactly what a chaos run needs.
    #: Builds the stage list for each incarnation's pipeline (None = the
    #: standard §4.2 stages).  The chaos testkit swaps in deliberately
    #: broken stages here to validate that the oracle catches them.
    stage_factory: Optional[Callable[[], list]] = None
    #: Forwarded to :attr:`AlertPipeline.on_outcome` — observes every
    #: completed pipeline trip (the delivery oracle's capture point).
    pipeline_observer: Optional[Callable] = None
    #: Traffic hardening (rate limits, dedup, retry budgets, shedding).
    #: None keeps the legacy unhardened path bit-for-bit.
    admission: Optional[AdmissionConfig] = None
    _admission_controller: Optional[AdmissionController] = field(
        default=None, repr=False, compare=False
    )

    def admission_controller(self) -> Optional[AdmissionController]:
        """The lazily-built, *persistent* admission controller.

        Lives on the config — which outlives incarnations — so buckets,
        storm state and dead letters survive MAB crashes and MDC restarts.
        """
        if self.admission is not None and self._admission_controller is None:
            self._admission_controller = build_controller(
                self.admission, self.user
            )
        return self._admission_controller


@dataclass(slots=True)
class JournalEvent:
    at: float
    kind: str
    detail: str = ""
    alert_id: Optional[str] = None


class BuddyJournal:
    """Cross-incarnation audit trail; no delivery decision reads it (an
    alert's status lives on the pessimistic log).

    Per-kind tallies are maintained incrementally in :meth:`record`, so
    :meth:`count` is O(1) however long the run — the recovery report and the
    fault-tolerance experiments poll it repeatedly.

    ``max_events`` bounds the retained event window (a deque drops the
    oldest entries) so million-alert farm runs do not grow memory linearly
    with traffic — the same resource-consumption failure mode rejuvenation
    exists to catch (§4.2.1).  Counts always reflect *all* events ever
    recorded, retained or not.
    """

    def __init__(self, max_events: Optional[int] = None):
        self.max_events = max_events
        self.events: "deque[JournalEvent] | list[JournalEvent]" = (
            deque(maxlen=max_events) if max_events is not None else []
        )
        self._rejuvenations: Optional[list[RejuvenationRecord]] = None
        self._counts: dict[str, int] = {}
        self.total_events = 0

    @property
    def rejuvenations(self) -> list[RejuvenationRecord]:
        """Every rejuvenation, oldest first (built by the first one)."""
        if self._rejuvenations is None:
            self._rejuvenations = []
        return self._rejuvenations

    def record(
        self, at: float, kind: str, detail: str = "", alert_id: Optional[str] = None
    ) -> None:
        self.events.append(
            JournalEvent(at=at, kind=kind, detail=detail, alert_id=alert_id)
        )
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        self.total_events += 1

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)

    def counts(self) -> Counter:
        """A copy of every per-kind tally (for aggregate farm rollups)."""
        return Counter(self._counts)


class MyAlertBuddy:
    """One incarnation of the MAB daemon."""

    def __init__(
        self,
        env: "Environment",
        config: BuddyConfig,
        endpoint: SimbaEndpoint,
        log: PessimisticLog,
        journal: BuddyJournal,
        rng: np.random.Generator,
    ):
        self.env = env
        self.config = config
        self.endpoint = endpoint
        self.log = log
        self.journal = journal
        self.rng = rng

        self.process: Optional["Process"] = None
        self.alive = False
        self.hung = False
        self.memory_mb = DEFAULT_MEMORY_BASE_MB
        self.last_progress = env.now
        self.stabilizer = SelfStabilizer(env, on_unrectifiable=self._on_unrectifiable)
        #: The armed nightly rejuvenation.  Its deadline can be most of a
        #: day away, so an incarnation that ends first cancels it rather
        #: than leave the queue to carry it there.
        self._nightly_timer: Optional["Timeout"] = None
        self._shutdown_clients_on_exit = False
        self.pipeline = AlertPipeline(
            env,
            config=config,
            endpoint=endpoint,
            log=log,
            journal=journal,
            rng=rng,
            stages=(
                config.stage_factory()
                if config.stage_factory is not None
                else None
            ),
            on_progress=self._mark_progress,
            on_outcome=config.pipeline_observer,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Process":
        """Launch the incarnation's main process."""
        if self.process is not None:
            raise RuntimeError("an incarnation can only be started once")
        self.process = self.env.process(
            self._main(), name=f"mab-{self.config.user}"
        )
        return self.process

    def force_terminate(self, cause: str) -> None:
        """Kill this incarnation (crash injection / MDC restart)."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(cause)

    def request_rejuvenation(
        self,
        kind: RejuvenationKind,
        detail: str = "",
        shutdown_clients: bool = False,
    ) -> None:
        """Gracefully terminate so the MDC relaunches at a clean state."""
        if not self.alive:
            return
        self.journal.rejuvenations.append(
            RejuvenationRecord(at=self.env.now, kind=kind, detail=detail)
        )
        self.journal.record(self.env.now, "rejuvenation", f"{kind.value}: {detail}")
        self._shutdown_clients_on_exit = shutdown_clients
        self.force_terminate(f"rejuvenation:{kind.value}")

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------

    def crash(self, detail: str = "injected crash") -> bool:
        """Unhandled-exception style termination."""
        if not self.alive:
            return False
        self.journal.record(self.env.now, "crash", detail)
        self.force_terminate(f"crash:{detail}")
        return True

    def hang(self) -> bool:
        """Stop making progress without terminating (probe goes unanswered)."""
        if not self.alive or self.hung:
            return False
        self.hung = True
        self.journal.record(self.env.now, "hang")
        # All the process's threads stall together: receive readers, monkey
        # threads and stabilizer stop being scheduled.
        self.endpoint.stop()
        self.stabilizer.stop()
        return True

    def leak_memory(self, megabytes: float) -> bool:
        if not self.alive:
            return False
        self.memory_mb += megabytes
        self.journal.record(self.env.now, "memory_leak", f"{megabytes} MB")
        return True

    # ------------------------------------------------------------------
    # MDC protocol (§4.2.1 Watchdog)
    # ------------------------------------------------------------------

    def attach_mdc(self, request, reply) -> None:
        """Register one AreYouWorking probe (request/reply event pair).

        The MDC client thread is a callback on ``request``: it wakes with
        the request, answers on ``reply``, and never suspends.
        """
        request.callbacks.append(lambda _request: self._answer_probe(reply))

    def _answer_probe(self, reply) -> None:
        if not self.alive or self.hung:
            return  # never reply: the MDC's timeout fires
        if self.are_you_working():
            reply.succeed()

    def are_you_working(self) -> bool:
        """Non-blocking self-check invoked via the MDC client thread.

        "MyAlertBuddy checks the health of the process and the threads by
        monitoring the timestamps of their progress and unusual system
        resource consumption" (§4.2.1).
        """
        if self.memory_mb > self.config.memory_limit_mb:
            # Unusual resource consumption: reply healthy but schedule a
            # graceful restart to shed the leak.
            self.request_rejuvenation(
                RejuvenationKind.EXCEPTION,
                detail=f"memory {self.memory_mb:.0f} MB over limit",
            )
            return True
        return True

    def _on_unrectifiable(self, task_name: str, exc: Exception) -> None:
        if self.config.rejuvenation.exception_triggered:
            self.request_rejuvenation(
                RejuvenationKind.EXCEPTION, detail=f"{task_name}: {exc}"
            )

    # ------------------------------------------------------------------
    # Main process
    # ------------------------------------------------------------------

    def _main(self):
        self.alive = True
        self.journal.record(self.env.now, "incarnation_start")
        try:
            self.endpoint.pre_ack_hook = self._pre_ack
            self.endpoint.command_handler = self._on_command
            self.endpoint.monkey_enabled = self.config.monkey_enabled
            self.endpoint.start()
            if self.config.self_stabilization_enabled:
                self._setup_stabilizer()
                self.stabilizer.start()
            if self.config.rejuvenation.nightly_enabled:
                # One timer, armed from a zero-delay kick (DESIGN §6b).
                kick = self.env.event()
                kick.callbacks.append(self._arm_nightly)
                kick.succeed()
            yield from self._recover()
            while self.alive:
                # Parked, the loop pins nothing of the alert it last routed.
                incoming = None
                incoming = yield self.endpoint.alert_inbox.get()
                if self.hung:
                    # A hung process holds the item forever; the MDC restart
                    # interrupts us here.  An IM arrival stays unprocessed
                    # in the pessimistic log through its retries, but the
                    # retry copy of an email arrival is held nowhere
                    # durable: a hang that takes it loses the alert.
                    yield self.env.event()
                yield from self._process_incoming(incoming)
        except Interrupt as interrupt:
            self.journal.record(
                self.env.now, "incarnation_end", str(interrupt.cause)
            )
        except SimbaError as exc:
            # An unhandled library error is exactly the paper's "exception
            # that cannot be handled": terminate; the MDC restarts us.
            self.journal.record(self.env.now, "incarnation_failed", str(exc))
        finally:
            self.alive = False
            self.stabilizer.stop()
            if self._nightly_timer is not None:
                self._nightly_timer.cancel()
            self.endpoint.stop(shutdown_clients=self._shutdown_clients_on_exit)

    # ------------------------------------------------------------------
    # Log-before-ack + recovery
    # ------------------------------------------------------------------

    def _pre_ack(self, incoming: IncomingAlert):
        """Pessimistic logging hook: runs before the endpoint sends the ack."""
        if not self.config.pessimistic_logging_enabled:
            return  # ablated: ack without durability (bench E9)
        if incoming.seq is None:
            return  # email path: no ack, nothing to guarantee
        if self.log.has_seen(incoming.alert.alert_id):
            return  # redelivery of something already durable
        yield from self.log.append(
            incoming.alert.alert_id, incoming.alert.encode()
        )

    def _recover(self):
        """Replay unprocessed log entries (the pipeline owns the mechanics)."""
        yield from self.pipeline.recover()

    # ------------------------------------------------------------------
    # The §4.2 pipeline (see repro.core.pipeline for the stages)
    # ------------------------------------------------------------------

    def _mark_progress(self) -> None:
        self.last_progress = self.env.now

    def _process_incoming(self, incoming: IncomingAlert):
        """Incarnation-side accounting, then one pipeline trip."""
        self.last_progress = self.env.now
        self.memory_mb += DEFAULT_LEAK_PER_ALERT_MB
        ctx = yield from self.pipeline.process(incoming)
        return ctx

    # ------------------------------------------------------------------
    # Self-stabilization tasks
    # ------------------------------------------------------------------

    def _setup_stabilizer(self) -> None:
        interval = self.config.sanity_interval
        self.stabilizer.add_task("im-sanity", interval, self._im_sanity)
        self.stabilizer.add_task("email-sanity", interval, self._email_sanity)

    def _im_sanity(self) -> list[str]:
        report = self.endpoint.im_manager.sanity_check()
        return list(report.repairs)

    def _email_sanity(self) -> list[str]:
        report = self.endpoint.email_manager.sanity_check()
        return list(report.repairs)

    # ------------------------------------------------------------------
    # Rejuvenation triggers
    # ------------------------------------------------------------------

    def _arm_nightly(self, _kick) -> None:
        if self.alive:
            self._nightly_timer = self.env.timeout(
                seconds_until_time_of_day(
                    self.env.now, self.config.rejuvenation.nightly_time
                )
            )
            self._nightly_timer.callbacks.append(self._nightly)

    def _nightly(self, _timer) -> None:
        self.request_rejuvenation(
            RejuvenationKind.NIGHTLY,
            detail="orderly nightly shutdown",
            shutdown_clients=True,
        )

    def _on_command(self, message: Message) -> None:
        if self.config.rejuvenation.matches_keyword(message.body):
            self.journal.record(
                self.env.now, "remote_command", f"from {message.sender}"
            )
            self.request_rejuvenation(
                RejuvenationKind.REMOTE, detail=f"keyword from {message.sender}"
            )
