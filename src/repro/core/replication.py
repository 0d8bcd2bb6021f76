"""Warm-standby MAB replication: log shipping, lease failover, epoch fencing.

The paper's availability stack (§4.2.1) heals a MyAlertBuddy *on the same
host* — a host power loss therefore stalls that user's delivery for the
whole outage plus boot.  This module removes that window: each tenant gets a
*pair* of :class:`~repro.world.BuddyDeployment` objects on two hosts sharing
one logical MAB address (``mab-<user>@im`` / ``mab-<user>@mail``).

- **Log shipping.**  The active side's :class:`~repro.core.pessimistic_log.
  PessimisticLog` ships every ``append`` record to the standby over a
  :class:`~repro.sim.link.HostLink` *before* the ack goes out (the pair-wide
  log-before-ack ordering), and ships ``processed`` marks before the
  pipeline records a terminal outcome.  While the link is down
  (:data:`~repro.sim.failures.FaultKind.REPLICATION_LINK_DOWN`) records
  queue as *unshipped* — availability wins over synchronous durability, and
  reconciliation repays the debt.

- **Lease failover.**  The primary heartbeats over the link; a
  :class:`FailoverController` (conceptually running on the standby host)
  promotes the standby when the lease expires.  The promoted side starts its
  own MDC, whose first incarnation replays the mirrored log — exactly the
  §4.2.1 recovery path, just on another machine.  Neither idle duty is a
  process.  A heartbeat chain is a :class:`KeepAlive` record of its next
  step; while the pair is *quiet* (a healthy primary, both hosts up, a
  benign link, nothing queued to ship) a beat can only land, so no timer
  is armed and the steps settle lazily, in time order, before anything
  reads what they write (:meth:`ReplicatedPair.settle`).  The lease
  checks of every pair started together are one cohort of
  :meth:`Environment.every <repro.sim.kernel.Environment.every>`: one
  sweep timer however many pairs, armed only while some check might
  promote: a check sleeps while none can.

- **Epoch fencing.**  A :class:`FencingService` (an external coordinator —
  the one dependency assumed always reachable) hands out monotonic epochs.
  Every ack and every routing pass first checks that the side's remembered
  epoch is still current; a resurrected or partitioned old primary discovers
  it is fenced, hands its unprocessed entries to the active side
  (*reconciliation*), re-seeds its log from a snapshot and rejoins as the
  standby.  Split-brain is the bug class; the chaos oracle's
  ``at_most_one_active_epoch`` invariant is its detector, fed by the pair's
  :class:`EpochAudit`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.core.alert import Alert
from repro.core.endpoint import IncomingAlert
from repro.core.host import Host
from repro.core.pessimistic_log import PessimisticLog
from repro.core.stabilizing import TransportAudit, make_receiver, make_sender
from repro.core.watchdog import MasterDaemonController
from repro.errors import ConfigurationError
from repro.net.message import ChannelType
from repro.obs import lifecycle_trace
from repro.sim.clock import delay_until
from repro.sim.link import DEFAULT_LINK_LATENCY, HostLink

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import PipelineContext
    from repro.sim.kernel import Environment
    from repro.world import BuddyDeployment, SimbaWorld

#: Primary → standby keep-alive period.  Much tighter than the MDC's
#: three-minute probe: failover exists precisely to beat boot + relaunch.
DEFAULT_HEARTBEAT_INTERVAL = 5.0
#: Missed heartbeats tolerated before the standby claims the lease.
DEFAULT_LEASE_TIMEOUT = 20.0
#: How often the failover controller re-evaluates the lease.
DEFAULT_LEASE_CHECK_INTERVAL = 2.0
#: Backoff while reconciliation waits for a host or the link to return.
DEFAULT_RECONCILE_RETRY = 5.0
#: Wait step while another process is mid-flush on the ship queue.
_SHIP_POLL = 0.01


class ReplicaRole(enum.Enum):
    """What one side of the pair currently is."""

    PRIMARY = "primary"
    STANDBY = "standby"
    #: Was primary, lost the epoch race, has not finished reconciling.
    FENCED = "fenced"


class FencingService:
    """Monotonic epoch coordinator, external to both hosts.

    Models a small replicated lock service (the one component the design
    assumes is always reachable — it does not live on either pair host and
    the replication-link partition does not cut it off).  ``advance`` is the
    promotion primitive: whoever holds the highest epoch is the only side
    allowed to ack or route.
    """

    def __init__(self):
        #: Pair id -> current epoch (0 before the first ``advance``); every
        #: heartbeat send reads it.
        self.epochs: dict[str, int] = {}

    def current(self, pair_id: str) -> int:
        return self.epochs.get(pair_id, 0)

    def advance(self, pair_id: str) -> int:
        self.epochs[pair_id] = self.current(pair_id) + 1
        return self.epochs[pair_id]


@dataclass(frozen=True)
class EpochAction:
    """One fencing-relevant action, stamped with the acting side's epoch."""

    epoch: int
    #: "ack" | "route" | "route_done" | "mark_shipped" | "fenced"
    kind: str
    at: float
    alert_id: Optional[str] = None


@dataclass(frozen=True)
class PromotionRecord:
    epoch: int
    at: float
    side: str


@dataclass(frozen=True)
class ReconcileRecord:
    at: float
    side: str
    handed_over: int


class EpochAudit:
    """The pair's forensic trail: who acted under which epoch, when.

    ``ack`` and ``route`` are recorded at *initiation* time, after the
    fencing check passed — so the oracle's ``at_most_one_active_epoch``
    invariant ("no initiation under epoch E at/after the promotion of a
    later epoch") has teeth: a violation means a guard was bypassed, not
    that a legitimately in-flight delivery finished late.
    """

    def __init__(self):
        self.actions: list[EpochAction] = []
        self.promotions: list[PromotionRecord] = []
        self.reconciliations: list[ReconcileRecord] = []
        #: Alerts a fenced side forwarded to the active one instead of
        #: processing (alert_id, at).
        self.forwarded: list[tuple[str, float]] = []
        self.shipped = 0
        self.unshipped_queued = 0

    def record(
        self, epoch: int, kind: str, at: float, alert_id: Optional[str] = None
    ) -> None:
        self.actions.append(EpochAction(epoch, kind, at, alert_id))

    def actions_of(self, kind: str) -> list[EpochAction]:
        return [a for a in self.actions if a.kind == kind]

    def promotion_at(self, epoch: int) -> Optional[float]:
        for record in self.promotions:
            if record.epoch == epoch:
                return record.at
        return None

    def mark_shipped_before(self, alert_id: str, at: float) -> bool:
        """Whether this alert's 'processed' mark reached the standby by
        ``at`` — the fact that makes a later-epoch re-route a real bug."""
        return any(
            a.kind == "mark_shipped" and a.alert_id == alert_id and a.at <= at
            for a in self.actions
        )


class PairSide:
    """One deployment + host of a replicated pair, with its ship queue.

    This object is the :class:`~repro.core.pessimistic_log.LogShipperHook`
    for its deployment's log *and* the guard provider the endpoint and
    pipeline consult (``ack_guard`` / ``route_guard`` / ``after_trip``).
    """

    def __init__(
        self,
        pair: "ReplicatedPair",
        label: str,
        deployment: "BuddyDeployment",
        host: Host,
        role: ReplicaRole,
        epoch: int,
    ):
        self.pair = pair
        self.env = pair.env
        self.label = label
        self.deployment = deployment
        self.host = host
        self.role = role
        self.epoch = epoch
        #: A standby may only be promoted once it is a faithful mirror
        #: (true from creation; false from fencing until reconciled).
        self.ready = role is ReplicaRole.STANDBY
        self.last_heartbeat = pair.env.now
        self.mdc: Optional[MasterDaemonController] = None
        #: Records accepted locally but not yet applied on the peer, in
        #: log order (appends and processed marks interleaved).
        self.unshipped: list[dict] = []
        #: Marks written mid-trip, flushed synchronously in ``after_trip``.
        self.pending_marks: list[dict] = []
        self._flushing = False
        self._reconciling = False
        #: Stabilizing (or naive, for the E14 ablation) record transport;
        #: installed by :meth:`ReplicatedPair.attach_transports`.
        self.transport_audit = TransportAudit()
        self.tx = None
        self.rx = None
        #: The other side of the pair (set once both sides exist).
        self.peer: Optional[PairSide] = None

    def attach_transport(self, kind: str) -> None:
        """Install this side's sender and receiver for ``kind`` transport.

        The receiver's out-of-band apply hook (naive duplicates only)
        resolves ``self.deployment.log`` at call time, so reconciliation's
        log re-seed is honoured automatically.
        """
        self.tx = make_sender(
            kind,
            link=self.pair.link,
            key=f"{self.pair.pair_id}/{self.label}",
            audit=self.transport_audit,
        )
        self.rx = make_receiver(
            kind,
            audit=self.transport_audit,
            apply=lambda record: self.deployment.log.apply_replica_record(
                record
            ),
        )

    # ------------------------------------------------------------------
    # Identity / fencing state
    # ------------------------------------------------------------------

    def fenced_now(self) -> bool:
        """Whether a later epoch exists (the side may not know yet)."""
        return self.pair.fencing.current(self.pair.pair_id) != self.epoch

    def notice_fenced(self) -> None:
        """Lazy fencing discovery: flip to FENCED and start reconciling."""
        if self.role is ReplicaRole.PRIMARY:
            self.role = ReplicaRole.FENCED
            self.pair.audit.record(self.epoch, "fenced", self.env.now)
            tracer = self.env.tracer
            if tracer is not None:
                tracer.event(
                    lifecycle_trace(self.pair.pair_id),
                    "replica.fenced",
                    epoch=self.epoch,
                    side=self.label,
                )
            self.pair.controller.on_side_fenced(self)

    # ------------------------------------------------------------------
    # Guards (endpoint ack path / pipeline route path)
    # ------------------------------------------------------------------

    def ack_guard(self, incoming: IncomingAlert) -> bool:
        """May this side acknowledge (and enqueue) an incoming alert?"""
        if self.role is not ReplicaRole.PRIMARY or self.fenced_now():
            self.notice_fenced()
            self.forward_to_active(incoming)
            return False
        if incoming.seq is not None:
            self.pair.audit.record(
                self.epoch, "ack", self.env.now, incoming.alert.alert_id
            )
        return True

    def route_guard(self, incoming: IncomingAlert) -> bool:
        """May this side start a pipeline trip for an alert?"""
        if self.role is not ReplicaRole.PRIMARY or self.fenced_now():
            self.notice_fenced()
            self.forward_to_active(incoming)
            return False
        self.pair.audit.record(
            self.epoch, "route", self.env.now, incoming.alert.alert_id
        )
        return True

    def current_epoch(self) -> int:
        """For stamping into outgoing acks."""
        return self.epoch

    def forward_to_active(self, incoming: IncomingAlert) -> None:
        """Hand an alert this side must not touch to the active side."""
        self.pair.audit.forwarded.append(
            (incoming.alert.alert_id, self.env.now)
        )
        self.env.process(
            self.pair.controller.hand_to_active(
                self.host,
                incoming.alert,
                incoming.received_at,
                trace_parent=incoming.trace_parent,
            ),
            name=f"repl-forward-{incoming.alert.alert_id}",
        )

    # ------------------------------------------------------------------
    # LogShipperHook
    # ------------------------------------------------------------------

    def on_append(self, record: dict):
        """Ship one append before the ack goes out (generator)."""
        if self.role is not ReplicaRole.PRIMARY:
            # A fenced side's append stays local; reconciliation hands the
            # (unprocessed) entry over instead of shipping the record.
            return
        if self.fenced_now():
            self.notice_fenced()
            return
        self._enqueue(self.unshipped, record)
        while self._flushing:
            yield self.env.timeout(_SHIP_POLL)
        yield from self.flush_unshipped()

    def on_mark(self, record: dict) -> None:
        """Queue a 'processed' mark; shipped in :meth:`after_trip`."""
        self._enqueue(self.pending_marks, record)

    def _enqueue(self, queue: list, record: dict) -> None:
        """Append ``record`` to a ship queue.  A quiet pair's first record
        on its chain's side ends the quiet: its owed beats settle first,
        its wake timer after.  (A fenced side's queue is not the chain's:
        reconciliation clears it.)"""
        pair = self.pair
        if pair._lazy is None or pair._lazy.side is not self:
            queue.append(record)
            return
        pair.settle()
        queue.append(record)
        pair._arm()

    def after_trip(self, ctx: "PipelineContext"):
        """Pipeline epilogue: audit the completion, flush queued marks.

        Runs *before* the trip's outcome observer fires, so a crash while
        the mark is still in flight leaves the trip unobserved — and the
        standby's replay then produces the only observed delivery.
        """
        if ctx.outcome_kind in ("routed", "retry_scheduled",
                                "delivery_abandoned"):
            self.pair.audit.record(
                self.epoch, "route_done", self.env.now, ctx.alert.alert_id
            )
        if self.role is not ReplicaRole.PRIMARY:
            return
        if self.pending_marks:
            self.unshipped.extend(self.pending_marks)
            self.pending_marks.clear()
        while self._flushing:
            yield self.env.timeout(_SHIP_POLL)
        yield from self.flush_unshipped()

    def flush_unshipped(self):
        """Ship queued records in order (generator; single-flight)."""
        if self._flushing:
            return
        self._flushing = True
        try:
            while self.unshipped and self.role is ReplicaRole.PRIMARY:
                if self.fenced_now():
                    self.notice_fenced()
                    return
                peer = self.peer
                if not self.pair.link.usable(toward=peer.host):
                    self.pair.audit.unshipped_queued += 1
                    return
                ok = yield from self.tx.ship(
                    self.unshipped[0], toward=peer.host, rx=peer.rx
                )
                if not ok:
                    self.pair.audit.unshipped_queued += 1
                    return
                if not self.unshipped:
                    # Reconciliation cleared the queue mid-transfer (its
                    # snapshot already covers everything that was here).
                    return
                self._apply_on_peer(self.unshipped.pop(0))
                if not self.unshipped:
                    self.transport_audit.last_drained_at = self.env.now
                    self.pair.sync()
        finally:
            self._flushing = False

    def _apply_on_peer(self, record: dict) -> None:
        self.peer.deployment.log.apply_replica_record(record)
        self.pair.audit.shipped += 1
        if record.get("op") == "processed":
            entry = self.deployment.log.entry(record["entry_id"])
            self.pair.audit.record(
                self.epoch,
                "mark_shipped",
                self.env.now,
                entry.alert_id if entry is not None else None,
            )

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def start_heartbeats(self) -> None:
        """Start this side's keep-alive chain from a zero-delay kick.

        Each beat arms the next only while this side is still the primary,
        so a demoted side's chain ends at its next step.
        """
        kick = self.env.event()
        kick.callbacks.append(self._start_chain)
        kick.succeed()

    def _start_chain(self, _kick) -> None:
        if self.role is ReplicaRole.PRIMARY:
            pair = self.pair
            pair.settle()
            pair.keepalives.append(
                KeepAlive(self, self.env.now + pair.heartbeat_interval)
            )
            pair.sync()

    def step(self, chain: "KeepAlive", until: Optional[float] = None) -> None:
        """Run ``chain``'s step due at ``chain.at``, as of that instant —
        then, given ``until``, every later one due by ``until``.

        The wake timer calls this on time, for one step;
        :meth:`ReplicatedPair.settle` calls it late, up to now, and only
        while the pair is quiet, when a send draws nothing but the latency
        and a landing does nothing but land — the same effects at any
        later instant.  Nothing one call does can change the role, the
        epoch, either host, the link's state or its draws' sources, so
        they are read once, however many steps the call runs.
        """
        pair = self.pair
        link = pair.link
        peer = self.peer
        primary = self.role is ReplicaRole.PRIMARY
        # fenced_now(), read in place.
        current = pair.fencing.epochs.get(pair.pair_id, 0) == self.epoch
        lands = link.available and peer.host.up
        sends = lands and self.host.up
        loss = link.loss_probability
        adversary = link.adversary.enabled
        draw = link.latency.draw
        rng = link.rng
        stats = link.stats
        interval = pair.heartbeat_interval
        at = chain.at
        sent_at = chain.sent_at
        while True:
            if sent_at is None:
                # The beat's send.
                if not primary:
                    pair.keepalives.remove(chain)
                    return
                if not current:
                    # The fencing check rides on the coordinator, not the
                    # link: a partitioned-but-alive primary self-fences
                    # within one beat instead of flip-flopping IM sessions
                    # with the new primary.
                    pair.keepalives.remove(chain)
                    self.notice_fenced()
                    return
                if not sends:
                    at += interval
                elif adversary:
                    # The link is up, so depart cannot refuse.
                    delay, _corrupt = link.depart(None, peer.host, None)
                    sent_at = at
                    at += delay
                else:
                    # HostLink.depart without an adversary, inline.
                    stats.submitted += 1
                    sent_at = at
                    at += draw(rng)
            else:
                # The beat's landing: HostLink.lost_in_flight, inline.
                if (loss and rng.random() < loss) or not lands:
                    stats.lost += 1
                else:
                    stats.delivered += 1
                    latency = at - sent_at
                    stats.latency_total += latency
                    if latency > stats.latency_max:
                        stats.latency_max = latency
                    peer.last_heartbeat = at
                    if self.unshipped or self.pending_marks:
                        # The post-partition catch-up: the only part of a
                        # beat that suspends (it waits out another flush,
                        # then ships).
                        self.unshipped.extend(self.pending_marks)
                        self.pending_marks.clear()
                        chain.sent_at = chain.at = None
                        self.env.process(
                            self._catch_up(chain),
                            name=f"catch-up-{pair.pair_id}-{self.label}",
                        )
                        return
                sent_at = None
                if not primary:
                    pair.keepalives.remove(chain)
                    return
                at += interval
            if until is None or at > until:
                chain.at = at
                chain.sent_at = sent_at
                return

    def _catch_up(self, chain: "KeepAlive"):
        while self._flushing:
            yield self.env.timeout(_SHIP_POLL)
        yield from self.flush_unshipped()
        if self.role is ReplicaRole.PRIMARY:
            chain.at = self.env.now + self.pair.heartbeat_interval
        else:
            self.pair.keepalives.remove(chain)
        self.pair.sync()


class KeepAlive:
    """One heartbeat chain: its side and its next step.

    The step is a beat's send at ``at`` while ``sent_at`` is None, else the
    landing at ``at`` of the beat sent at ``sent_at``.  ``at`` is None
    while a catch-up flush holds the chain.  ``timer`` is the wake timer
    armed for ``at``; None while the pair is quiet and the chain settles
    lazily.
    """

    __slots__ = ("side", "at", "sent_at", "timer")

    def __init__(self, side: PairSide, at: float):
        self.side = side
        self.at: Optional[float] = at
        self.sent_at: Optional[float] = None
        self.timer = None


class ReplicatedPair:
    """Two deployments, one logical MAB address, one active epoch."""

    def __init__(
        self,
        env: "Environment",
        pair_id: str,
        primary: "BuddyDeployment",
        standby: "BuddyDeployment",
        primary_host: Host,
        standby_host: Host,
        link: HostLink,
        fencing: FencingService,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        transport: str = "stabilizing",
    ):
        _require_positive(heartbeat_interval=heartbeat_interval)
        self.env = env
        self.pair_id = pair_id
        self.link = link
        self.fencing = fencing
        self.heartbeat_interval = heartbeat_interval
        self.transport_kind = transport
        self.audit = EpochAudit()
        # Epoch 1 belongs to the initial primary; promotions advance it.
        first_epoch = fencing.advance(pair_id)
        self.audit.promotions.append(
            PromotionRecord(epoch=first_epoch, at=env.now, side="a")
        )
        self.a = PairSide(self, "a", primary, primary_host,
                          ReplicaRole.PRIMARY, first_epoch)
        self.b = PairSide(self, "b", standby, standby_host,
                          ReplicaRole.STANDBY, 0)
        self.a.peer, self.b.peer = self.b, self.a
        self.active = self.a
        self.controller: Optional[FailoverController] = None
        #: Live heartbeat chains, in start order (DESIGN §6b).
        self.keepalives: list[KeepAlive] = []
        #: The one chain that settles lazily while the pair is quiet.
        self._lazy: Optional[KeepAlive] = None
        sync = link.watcher = self.sync
        for side in (self.a, self.b):
            side.attach_transport(transport)
            side.deployment.log.shipper = side
            side.deployment.endpoint.ack_guard = side.ack_guard
            side.deployment.endpoint.epoch_provider = side.current_epoch
            side.host.watch(sync)
            side.host.on_boot(partial(self._restart_lease, side))

    def _restart_lease(self, side: PairSide) -> None:
        # A side that was dark holds a stale lease clock; claiming the
        # lease straight out of boot would promote over a healthy primary
        # (safe under fencing, but pure churn).  Booting restarts the
        # lease timer instead.
        self.settle()
        side.last_heartbeat = self.env.now

    # ------------------------------------------------------------------
    # Lazily settled heartbeats
    # ------------------------------------------------------------------

    def settle(self) -> None:
        """Run every step the lazy chain owes up to now, in time order.

        Called before every draw on the link's RNG and every read or write
        of ``last_heartbeat``, and before any change that could end the
        quiet (see :meth:`sync`).  A step due at exactly now runs too: its
        timer would have been armed one step earlier, ahead of whatever
        same-period timer (a reconcile retry, say) ticks with it.
        """
        chain = self._lazy
        if chain is not None and chain.at <= self.env.now:
            chain.side.step(chain, self.env.now)

    def sync(self) -> None:
        """Settle, then arm a wake timer for every pending step — or none,
        when the pair is quiet: steady (one chain, with a step pending, of
        an unfenced primary, both hosts up, a benign link that is up) with
        nothing queued to ship.  Then a beat can do nothing but land.  A
        sleeping lease sweep is woken here the moment a check might
        promote (:meth:`_lease_holds`); it goes to sleep at its own tick.

        Every change to what decides either calls this, once before it
        (so owed steps see the old state) and once after.  A record queued
        to ship only arms the chain's timer (:meth:`_arm`): it changes
        neither the lease nor, but for the queue, the quiet.
        """
        if self._lazy is not None:
            self.settle()
        chains = self.keepalives
        steady = None
        if len(chains) == 1:
            chain = chains[0]
            side = chain.side
            link = self.link
            if (
                chain.at is not None
                and side.host.up
                and side.peer.host.up
                and link.available
                and not link.loss_probability
                and not link.adversary.enabled
                and side.role is ReplicaRole.PRIMARY
                and self.fencing.epochs.get(self.pair_id, 0) == side.epoch
            ):
                steady = chain
        sweep = self.controller.sweep
        if sweep.asleep and not self._lease_holds(steady):
            sweep.wake()
        if (
            steady is not None
            and not steady.side.unshipped
            and not steady.side.pending_marks
        ):
            if steady.timer is not None:
                steady.timer.cancel()
                steady.timer = None
            self._lazy = steady
            self.link.settle = self.settle
            return
        self._arm()

    def _lease_holds(self, steady: Optional[KeepAlive]) -> bool:
        """Whether no lease check can promote until the next sync, nor at
        the first check after it (DESIGN §6b, "The sleeping lease sweep").

        Only if a beat sent at once lands, and the first check after any
        wake comes, inside the lease (``sweep_can_sleep``); then either
        there is no standby to promote (not a ready standby, or its host
        is down), or the pair is ``steady`` and its lease holds until a
        check interval past the chain's next landing — at ``steady.at``,
        or at most ``latency.high`` after a pending send.
        ``last_heartbeat`` is settled.
        """
        controller = self.controller
        if not controller.sweep_can_sleep:
            return False
        standby = self.active.peer
        if (
            standby.role is not ReplicaRole.STANDBY
            or not standby.ready
            or not standby.host.up
        ):
            return True
        if steady is None:
            return False
        landing = steady.at
        if steady.sent_at is None:
            landing += self.link.latency.high
        return (
            landing + controller.check_interval - standby.last_heartbeat
            <= controller.lease_timeout
        )

    def _arm(self) -> None:
        """Leave the quiet: a wake timer for every pending step."""
        self._lazy = None
        self.link.settle = None
        now = self.env.now
        for chain in self.keepalives:
            if chain.timer is None and chain.at is not None:
                chain.timer = self.env.timeout(
                    delay_until(now, chain.at), chain
                )
                chain.timer.callbacks.append(self._wake)

    def _wake(self, timer) -> None:
        chain = timer.value
        chain.timer = None
        chain.side.step(chain)
        self.sync()

    def sides(self) -> tuple[PairSide, PairSide]:
        return (self.a, self.b)

    def attach_primary_mdc(
        self, mdc: MasterDaemonController, mdc_kwargs: Optional[dict] = None
    ) -> None:
        """Wire the watchdog launched for the initial primary into the pair.

        The MDC hands off to the failover controller instead of fighting
        it: its boot-time restart goes through the resurrection gate, so a
        fenced old primary reconciles instead of relaunching.
        """
        side = self.a
        side.mdc = mdc
        mdc.resurrection_gate = self.controller.gate_for(side, mdc)
        if mdc_kwargs is not None:
            self.controller.mdc_kwargs = dict(mdc_kwargs)


class FailoverController:
    """Detects primary death via lease expiry; promotes; reconciles.

    Conceptually this runs on whichever host is *not* the primary (the
    lease monitor only acts while the standby's host is up), with the
    fencing decisions delegated to the external :class:`FencingService`.
    """

    def __init__(
        self,
        env: "Environment",
        pair: ReplicatedPair,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        check_interval: float = DEFAULT_LEASE_CHECK_INTERVAL,
        retry_interval: float = DEFAULT_RECONCILE_RETRY,
        mdc_kwargs: Optional[dict] = None,
    ):
        _require_positive(
            lease_timeout=lease_timeout,
            check_interval=check_interval,
            retry_interval=retry_interval,
        )
        self.env = env
        self.pair = pair
        self.lease_timeout = lease_timeout
        self.check_interval = check_interval
        self.retry_interval = retry_interval
        self.mdc_kwargs = dict(mdc_kwargs) if mdc_kwargs else {}
        #: Whether a beat sent at once lands, and the first check after a
        #: wake comes, inside the lease: only then may the sweep sleep
        #: (``ReplicatedPair._lease_holds``, DESIGN §6b).
        self.sweep_can_sleep = (
            pair.heartbeat_interval + pair.link.latency.high + check_interval
            < lease_timeout
        )
        pair.controller = self
        # The lease sweep: one timer per (interval, start instant) runs
        # every pair's check in build order.  A check that finds none can
        # promote puts its member to sleep; the pair's sync wakes it
        # (DESIGN §6b).
        self.sweep = env.every(check_interval, self.check_lease)

    # ------------------------------------------------------------------
    # Lease monitoring / promotion
    # ------------------------------------------------------------------

    def check_lease(self, now: float) -> None:
        """One lease check, run inline by the lease sweep's tick.  A check
        that finds that none can promote until the pair's next sync puts
        its member to sleep; the sync wakes it."""
        pair = self.pair
        pair.settle()
        side = pair.active.peer
        # The controller lives with the standby: it acts only while that
        # host is up.
        if (side.role is ReplicaRole.STANDBY and side.ready
                and side.host.up
                and now - side.last_heartbeat > self.lease_timeout):
            self.promote(side)
        # A quiet pair's chain is steady; a pair with records in flight
        # is left to a later tick.
        elif pair._lease_holds(pair._lazy):
            self.sweep.sleep()

    def promote(self, standby: PairSide) -> None:
        """Advance the epoch and make ``standby`` the active primary."""
        pair = self.pair
        pair.settle()
        epoch = pair.fencing.advance(pair.pair_id)
        standby.epoch = epoch
        standby.role = ReplicaRole.PRIMARY
        standby.ready = False
        pair.active = standby
        pair.sync()
        pair.audit.promotions.append(
            PromotionRecord(epoch=epoch, at=self.env.now, side=standby.label)
        )
        standby.deployment.journal.record(
            self.env.now, "failover_promotion", f"epoch {epoch}"
        )
        tracer = self.env.tracer
        if tracer is not None:
            tracer.event(
                lifecycle_trace(pair.pair_id),
                "failover.promote",
                epoch=epoch,
                side=standby.label,
                user=pair.pair_id,
            )
        mdc = MasterDaemonController(
            self.env,
            standby.host,
            buddy_factory=standby.deployment.make_incarnation,
            **self.mdc_kwargs,
        )
        mdc.resurrection_gate = self.gate_for(standby, mdc)
        standby.mdc = mdc
        # Starting the MDC launches an incarnation whose endpoint start
        # re-logs-in the shared IM address (force-logging-out the old
        # primary's session) and whose recovery pass replays every
        # unprocessed mirrored entry — §4.2.1, on the other machine.
        mdc.start()
        standby.start_heartbeats()

    def gate_for(self, side: PairSide, mdc: MasterDaemonController):
        """Resurrection gate: boot-time restarts defer to the epoch."""

        def gate() -> bool:
            if side.mdc is not mdc:
                return False  # superseded controller generation
            if side.role is ReplicaRole.PRIMARY and not side.fenced_now():
                return True
            # The machine came back holding a stale epoch: reconcile
            # instead of relaunching — this is what prevents split-brain
            # double-routing after a resurrection.
            side.notice_fenced()
            self.on_side_fenced(side)
            return False

        return gate

    # ------------------------------------------------------------------
    # Fencing discovery / reconciliation
    # ------------------------------------------------------------------

    def on_side_fenced(self, side: PairSide) -> None:
        if side._reconciling or side.role is ReplicaRole.STANDBY:
            return
        side._reconciling = True
        self.env.process(
            self._reconcile(side),
            name=f"reconcile-{self.pair.pair_id}-{side.label}",
        )

    def hand_to_active(
        self,
        source_host: Host,
        alert: Alert,
        received_at: float,
        trace_parent: Optional[int] = None,
    ):
        """Durably transfer one alert to the active side (generator).

        Appends to the active log first (so a crash mid-handoff is covered
        by the active side's own replay), then enqueues for its pipeline.
        Retries across link partitions and host outages until it lands.
        """
        tracer = self.env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                alert.alert_id,
                "failover.handoff",
                parent=trace_parent,
                pair=self.pair.pair_id,
            )
        while True:
            active = self.pair.active
            if (
                source_host.up
                and active.host.up
                and self.pair.link.usable(toward=active.host)
            ):
                ok = yield from self.pair.link.transfer(toward=active.host)
                if ok:
                    break
            yield self.env.timeout(self.retry_interval)
        active = self.pair.active
        deployment = active.deployment
        if not deployment.log.has_seen(alert.alert_id):
            yield from deployment.log.append(alert.alert_id, alert.encode())
        incoming = IncomingAlert(
            alert=alert,
            via=ChannelType.IM,
            sender="(reconciled)",
            received_at=received_at,
        )
        if span is not None:
            incoming.trace_parent = span.span_id
        deployment.endpoint.alert_inbox.put(incoming)
        if span is not None:
            tracer.end(span, "landed", epoch=active.epoch)

    def _reconcile(self, side: PairSide):
        """Fenced-side recovery: hand over, re-seed, rejoin as standby."""
        pair = self.pair
        side.role = ReplicaRole.FENCED
        side.ready = False
        side.deployment.journal.record(
            self.env.now, "fenced", f"epoch {side.epoch} superseded"
        )
        if side.mdc is not None:
            side.mdc.stop(terminate_buddy=True)
        yield self.env.timeout(0)  # let the interrupted incarnation unwind
        side.deployment.endpoint.stop()
        handed = 0
        for entry in list(side.deployment.log.unprocessed()):
            yield from self.hand_to_active(
                side.host, Alert.decode(entry.payload), entry.received_at
            )
            side.deployment.log.mark_processed(entry.entry_id)
            handed += 1
        side.pending_marks.clear()
        side.unshipped.clear()
        # Snapshot re-seed: the side's own log is now obsolete (every entry
        # processed or handed over); a fresh mirror of the active log also
        # guarantees future shipped entry ids cannot collide with ours.
        while True:
            active = pair.active
            if side.host.up and pair.link.usable(toward=side.host):
                ok = yield from pair.link.transfer(toward=side.host)
                if ok:
                    break
            yield self.env.timeout(self.retry_interval)
        active = pair.active
        fresh = PessimisticLog(
            self.env, write_latency=side.deployment.log.write_latency
        )
        for record in active.deployment.log.snapshot_records():
            fresh.apply_replica_record(record)
        # Delivery status is not a log record, so no snapshot carries it:
        # the fresh log takes over this side's map as it is.
        fresh.status = side.deployment.log.status
        fresh.shipper = side
        side.deployment.log = fresh
        # Everything the active side still had queued is inside the
        # snapshot we just applied.
        pair.settle()
        active.unshipped.clear()
        side.role = ReplicaRole.STANDBY
        side.ready = True
        side.last_heartbeat = self.env.now
        side._reconciling = False
        pair.sync()
        side.deployment.journal.record(
            self.env.now,
            "rejoined_standby",
            f"handed over {handed}, mirroring epoch {active.epoch}",
        )
        pair.audit.reconciliations.append(
            ReconcileRecord(at=self.env.now, side=side.label,
                            handed_over=handed)
        )


def _require_positive(**periods: float) -> None:
    """A zero or negative period would spin the kernel at one instant."""
    for name, value in periods.items():
        if not value > 0:
            raise ConfigurationError(f"{name} must be > 0, got {value!r}")


def build_pair(
    world: "SimbaWorld",
    deployment: "BuddyDeployment",
    standby_host: Optional[Host] = None,
    fencing: Optional[FencingService] = None,
    link_latency=DEFAULT_LINK_LATENCY,
    link_loss: float = 0.0,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    check_interval: float = DEFAULT_LEASE_CHECK_INTERVAL,
    retry_interval: float = DEFAULT_RECONCILE_RETRY,
    mdc_kwargs: Optional[dict] = None,
    transport: str = "stabilizing",
) -> ReplicatedPair:
    """Wire a warm standby for an existing deployment and start its
    failover controller (the primary's own MDC is attached separately via
    :meth:`ReplicatedPair.attach_primary_mdc`, or never — a pair also
    protects a directly-launched buddy)."""
    from repro.world import BuddyDeployment

    _require_positive(
        heartbeat_interval=heartbeat_interval,
        lease_timeout=lease_timeout,
        check_interval=check_interval,
        retry_interval=retry_interval,
    )
    user = deployment.user_name
    env = world.env
    if standby_host is None:
        standby_host = Host(env, name=f"standby-{user}")
    standby = BuddyDeployment(
        world,
        user,
        host=standby_host,
        config=deployment.config,
        rng_label=f"standby-{user}",
    )
    link = HostLink(
        env,
        deployment.host,
        standby_host,
        rng=world.rngs.stream(f"repl-link-{user}"),
        latency=link_latency,
        loss_probability=link_loss,
    )
    pair = ReplicatedPair(
        env,
        pair_id=user,
        primary=deployment,
        standby=standby,
        primary_host=deployment.host,
        standby_host=standby_host,
        link=link,
        fencing=fencing if fencing is not None else FencingService(),
        heartbeat_interval=heartbeat_interval,
        transport=transport,
    )
    FailoverController(
        env,
        pair,
        lease_timeout=lease_timeout,
        check_interval=check_interval,
        retry_interval=retry_interval,
        mdc_kwargs=mdc_kwargs,
    )
    pair.a.start_heartbeats()
    return pair
