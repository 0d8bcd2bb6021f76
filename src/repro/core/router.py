"""The delivery engine: executes delivery modes block by block.

This is where SIMBA's dependability semantics live (§3.2, §4.1):

- blocks run strictly in order; the first successful block ends delivery;
- within a block, actions on *enabled* addresses fire concurrently;
- an ``require_ack`` block succeeds only when an application-level IM
  acknowledgement arrives within the block's timeout;
- a best-effort block succeeds when at least one channel accepts the
  submission;
- a block with no enabled addresses "automatically fails and falls back to
  the next backup block" (§3.3).

The engine never raises for per-action failures — every failure is recorded
in the :class:`DeliveryOutcome`, because fallback *is* the error handling.

A mode's execution is a :class:`DeliveryRun`: a callback state machine and
the event of its end, not a process (DESIGN §5, "The delivery engine").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.addresses import AddressBook, UserAddress
from repro.core.delivery_modes import CommunicationBlock, DeliveryMode
from repro.errors import AddressUnknownError, SimbaError
from repro.net.message import ChannelType
from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class BlockStatus(enum.Enum):
    """How one communication block ended."""

    SUCCESS = "success"
    NO_ENABLED_ADDRESSES = "no_enabled_addresses"
    ALL_SUBMISSIONS_FAILED = "all_submissions_failed"
    ACK_TIMEOUT = "ack_timeout"


#: The ``errors`` of every block that recorded none: one shared, read-only
#: mapping instead of an empty dict per block.
NO_ERRORS: Mapping[str, str] = MappingProxyType({})


@dataclass(slots=True)
class BlockOutcome:
    """Record of one block's execution, built once when the block ends."""

    index: int
    status: BlockStatus
    submitted: tuple[str, ...]
    skipped_disabled: tuple[str, ...]
    errors: Mapping[str, str]
    acked_by: Optional[str]
    elapsed: float

    @property
    def succeeded(self) -> bool:
        return self.status is BlockStatus.SUCCESS


@dataclass(slots=True)
class DeliveryOutcome:
    """Record of a full delivery-mode execution for one alert."""

    mode_name: str
    correlation: Optional[str]
    delivered: bool
    blocks: tuple[BlockOutcome, ...]
    started_at: float
    finished_at: float
    messages_sent: int

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def delivered_via(self) -> Optional[int]:
        """Index of the successful block, or None if delivery failed."""
        for outcome in self.blocks:
            if outcome.succeeded:
                return outcome.index
        return None


#: An :class:`AckTable`'s state until its first expect: shared and
#: read-only, so an idle table allocates nothing.
_NO_PEERS: tuple = ()
_NO_SPILL: Mapping[tuple[str, int], int] = MappingProxyType({})


class AckTable:
    """Pending acknowledgement events keyed by (peer address, IM seq).

    Beyond resolving waits, the table classifies every ack it ever sees so
    the chaos testkit's delivery oracle can assert protocol sanity:

    - ``resolved_count``: acks that satisfied a live wait (the normal case);
    - ``late_count``: acks for a wait that had already timed out — legal,
      the sender simply fell back to the next block;
    - ``duplicate_count``: a *second* ack for a (peer, seq) already acked —
      never legal, this is the "no duplicate ACKs" invariant;
    - ``unsolicited_count``: acks for a (peer, seq) nobody ever expected
      (e.g. a polite receiver acking a fire-and-forget send) — reported,
      not asserted on.

    Sequence numbers are *per-session* (see :mod:`repro.net.im`), so after
    a client relogin the same (peer, seq) key legitimately recurs.  A new
    :meth:`expect` therefore starts a fresh conversation for its key,
    clearing any stale acked state from the previous session.

    The classification needs, for every key ever expected, the state of
    its current conversation: 1 expected, 2 acked (0, never expected, makes
    an ack unsolicited).  The seqs come from the engine's own IM session,
    one per submission, so they are dense, and the state lives in two
    arrays indexed by ``seq - 1``: ``_state``, a ``bytearray``, and
    ``_peers``, the peer whose conversation holds the slot.  When a
    restarted session reuses a seq for another peer, the slot goes to the
    new conversation and the one it held moves to ``_spill``, a dict keyed
    by (peer, seq) that also takes any seq below 1.  A key costs a byte
    and a reference to its peer's address, not an object.  The first
    :meth:`expect` allocates the arrays and the spill.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._pending: dict[tuple[str, int], Event] = {}
        self._state: bytes | bytearray = b""
        self._peers: tuple | list[Optional[str]] = _NO_PEERS
        self._spill: Mapping[tuple[str, int], int] = _NO_SPILL
        self.resolved_count = 0
        self.late_count = 0
        self.duplicate_count = 0
        self.unsolicited_count = 0

    def expect(self, peer: str, seq: int) -> Event:
        event = self.env.event()
        self._pending[(peer, seq)] = event
        peers = self._peers
        if peers is _NO_PEERS:
            self._state, self._peers, self._spill = bytearray(), [], {}
            peers = self._peers
        index = seq - 1
        if index >= len(peers):
            # The session's next seq; the ones between were sent without
            # an ack wait.
            state = self._state
            gap = index - len(peers)
            if gap:
                state.extend(bytes(gap))
                peers.extend([None] * gap)
            state.append(1)
            peers.append(peer)
        elif index < 0:
            self._spill[(peer, seq)] = 1
        else:
            # Seq reuse after a session restart: this key's previous
            # conversation (if any) is over; only acks from the new one
            # count.  Another peer's conversation at the slot moves out.
            held = peers[index]
            if held != peer:
                if held is not None:
                    spill = self._spill
                    spill[(held, seq)] = self._state[index]
                    spill.pop((peer, seq), None)
                peers[index] = peer
            self._state[index] = 1
        return event

    def resolve(self, peer: str, seq: int) -> bool:
        """Called when an ack message arrives; True if someone was waiting."""
        event = self._pending.pop((peer, seq), None)
        index = seq - 1
        peers = self._peers
        if event is None or event.triggered:
            if 0 <= index < len(peers) and peers[index] == peer:
                state = self._state[index]
                if state == 1:
                    self._state[index] = 2
            else:
                spill = self._spill
                state = spill.get((peer, seq), 0)
                if state == 1:
                    spill[(peer, seq)] = 2
            if state == 2:
                self.duplicate_count += 1
            elif state == 0:
                self.unsolicited_count += 1
            else:
                self.late_count += 1
            return False
        event.succeed(self.env.now)
        self.resolved_count += 1
        # An expected seq has its slot; it may hold another peer's key.
        if index >= 0 and peers[index] == peer:
            self._state[index] = 2
        else:
            self._spill[(peer, seq)] = 2
        return True

    def cancel(self, peer: str, seq: int) -> None:
        self._pending.pop((peer, seq), None)

    def __len__(self) -> int:
        return len(self._pending)


class DeliveryRun(Event):
    """One execution of a delivery mode, and the event of its end.

    Blocks that need no wait run at once.  An ack block submits, arms its
    guard timer and hooks its ack events; the first of them to fire
    settles the race (:meth:`_settle`), cancels the losing guard and
    continues the run one zero-delay event later, after whatever the
    same instant had already queued (an ack arriving then still counts).
    When the mode ends, the run's callbacks are called at once with the
    :class:`DeliveryOutcome` as its value: the run is never queued, and a
    generator that yielded it resumes in the dispatch that settled the
    last block.  A run that ended without waiting is returned processed.
    """

    __slots__ = (
        "engine", "mode", "book", "subject", "body", "correlation",
        "_span", "_started", "_blocks", "_messages",
        # While a block waits: its guard (or zero-delay) timer until the
        # race is decided, and its open state until the run continues.
        "_timer", "_wait",
    )

    def __init__(
        self,
        engine: "DeliveryEngine",
        mode: DeliveryMode,
        book: AddressBook,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
    ):
        super().__init__(engine.env)
        self.engine = engine
        self.mode = mode
        self.book = book
        self.subject = subject
        self.body = body
        self.correlation = correlation
        self._span = None
        self._blocks: list[BlockOutcome] = []
        self._messages = 0
        self._timer: Optional[Timeout] = None
        self._wait: Optional[tuple] = None

    def start(self, trace_parent: Optional[int] = None) -> None:
        """Run the mode from its first block."""
        env = self.env
        self._started = env.now
        tracer = env.tracer
        if tracer is not None and self.correlation is not None:
            self._span = tracer.begin(
                self.correlation, "deliver", parent=trace_parent,
                mode=self.mode.name,
            )
        self._advance(None)

    def cancel(self) -> None:
        """Settle the race at once when the run's last waiter is
        interrupted: the guard is tombstoned and the ack events let go of
        the run, but stay in the :class:`AckTable`, so a late ack still
        resolves.  The run never ends."""
        wait = self._wait
        if wait is None or self.callbacks:
            return
        self._wait = None
        timer = self._timer
        if timer is not None:
            self._timer = None
            timer.callbacks.clear()
            timer.cancel()
        settle = self._settle
        for entry in wait[-1]:
            if entry[0].callbacks:
                entry[0].callbacks.remove(settle)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _advance(self, outcome: Optional[BlockOutcome]) -> None:
        """Record ``outcome`` (the block that waited), then run blocks until
        one waits or the mode ends."""
        blocks = self.mode.blocks
        while True:
            if outcome is not None:
                self._blocks.append(outcome)
                self._messages += len(outcome.submitted)
                if outcome.status is BlockStatus.SUCCESS:
                    self._finish(True)
                    return
            if len(self._blocks) == len(blocks):
                self._finish(False)
                return
            outcome = self._run_block(blocks[len(self._blocks)])
            if outcome is None:
                return

    def _finish(self, delivered: bool) -> None:
        env = self.env
        if self._span is not None:
            env.tracer.end(self._span, "delivered" if delivered else "failed")
        self._value = DeliveryOutcome(
            mode_name=self.mode.name,
            correlation=self.correlation,
            delivered=delivered,
            blocks=tuple(self._blocks),
            started_at=self._started,
            finished_at=env.now,
            messages_sent=self._messages,
        )
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def _run_block(self, block: CommunicationBlock) -> Optional[BlockOutcome]:
        """Submit one block; its outcome, or None while it waits."""
        engine = self.engine
        env = self.env
        start = env.now
        tracer = env.tracer
        bspan = None
        if self._span is not None:
            bspan = tracer.begin(
                self.correlation,
                "block",
                parent=self._span.span_id,
                index=len(self._blocks),
                require_ack=block.require_ack,
            )
        errors: dict[str, str] = {}
        skipped: list[str] = []
        submitted: list[str] = []
        addresses: list[UserAddress] = []
        book = self.book
        for action in block.actions:
            try:
                address = book.get(action.address_ref)
            except AddressUnknownError:
                errors[action.address_ref] = "unknown address"
                continue
            if not address.enabled:
                skipped.append(action.address_ref)
                continue
            addresses.append(address)

        # (ack event, friendly name, peer, seq) per ack the block awaits.
        acks: list[tuple[Event, str, str, int]] = []
        managers = engine.managers
        admission = engine.admission
        for address in addresses:
            channel = address.channel._value_
            manager = managers.get(channel)
            if manager is None:
                errors[address.friendly_name] = (
                    f"no manager for channel {channel}"
                )
                continue
            if admission is not None and not admission.try_submit(
                env.now, channel
            ):
                errors[address.friendly_name] = (
                    f"rate_limited: channel {channel}"
                )
                continue
            try:
                message = manager.submit(
                    address.address, self.subject, self.body, self.correlation
                )
            except SimbaError as exc:
                errors[address.friendly_name] = str(exc)
                continue
            if bspan is not None:
                # The channel's retroactive transit span parents here.
                message.trace_parent = bspan.span_id
            submitted.append(address.friendly_name)
            if block.require_ack and address.channel is ChannelType.IM:
                seq = getattr(message, "seq", None)
                if seq is not None:
                    event = engine.acks.expect(address.address, seq)
                    event.callbacks.append(self._settle)
                    acks.append(
                        (event, address.friendly_name, address.address, seq)
                    )

        if not addresses:
            status = BlockStatus.NO_ENABLED_ADDRESSES
        elif not submitted:
            status = BlockStatus.ALL_SUBMISSIONS_FAILED
        elif not block.require_ack:
            status = BlockStatus.SUCCESS
        elif not acks:
            # An ack block whose submissions cannot carry acks (e.g. actions
            # on non-IM addresses) cannot confirm delivery: it times out one
            # zero-delay hop later, so the backup block fires —
            # confirmability is the point.
            self._timer = timer = env.timeout(0)
            timer.callbacks.append(self._decided)
            self._wait = (start, bspan, None, submitted, skipped, errors, ())
            return None
        else:
            wspan = None
            if bspan is not None:
                wspan = tracer.begin(
                    self.correlation,
                    "ack.wait",
                    parent=bspan.span_id,
                    pending=len(acks),
                )
            # The ack-vs-timeout race: whichever fires first settles it and
            # tombstones the losing guard, which would otherwise sit in the
            # queue until ``block.ack_timeout`` — one dead entry per
            # delivered alert, which at farm scale dominates the queue.
            self._timer = guard = env.timeout(block.ack_timeout)
            guard.callbacks.append(self._settle)
            self._wait = (start, bspan, wspan, submitted, skipped, errors, acks)
            return None
        return self._close(status, start, bspan, submitted, skipped, errors)

    def _settle(self, event: Event) -> None:
        """The first ack or the guard to fire decides the race: the run
        continues one zero-delay hop later, and the losers let go of it."""
        guard, self._timer = self._timer, None
        hop = self.env.event()
        hop.callbacks.append(self._decided)
        hop.succeed()
        if guard is not event:
            guard.callbacks.clear()
            guard.cancel()
        settle = self._settle
        for entry in self._wait[-1]:
            ack = entry[0]
            if ack is not event and ack.callbacks:
                ack.callbacks.remove(settle)

    def _decided(self, _event: Event) -> None:
        """Close the block that waited, and run on."""
        wait = self._wait
        if wait is None:
            return  # its waiter was interrupted after the race was decided
        self._wait = self._timer = None
        start, bspan, wspan, submitted, skipped, errors, acks = wait
        # The first ack, in the block's order, that has arrived by now.
        acked = None
        table = self.engine.acks
        for event, name, peer, seq in acks:
            if acked is None and event.callbacks is None:
                acked = name
            table.cancel(peer, seq)
        tracer = self.env.tracer
        if acked is not None:
            status = BlockStatus.SUCCESS
            if wspan is not None:
                tracer.end(wspan, "acked", acked_by=acked)
            if bspan is not None:
                bspan.annotations["acked_by"] = acked
        else:
            status = BlockStatus.ACK_TIMEOUT
            if wspan is not None:
                tracer.end(wspan, "timeout")
        self._advance(
            self._close(status, start, bspan, submitted, skipped, errors, acked)
        )

    def _close(
        self,
        status: BlockStatus,
        start: float,
        bspan,
        submitted: list[str],
        skipped: list[str],
        errors: dict[str, str],
        acked: Optional[str] = None,
    ) -> BlockOutcome:
        if bspan is not None:
            self.env.tracer.end(bspan, status.value)
        return BlockOutcome(
            len(self._blocks), status, tuple(submitted), tuple(skipped),
            errors or NO_ERRORS, acked, self.env.now - start,
        )


class DeliveryEngine:
    """Executes delivery modes against a set of channel managers.

    ``managers`` maps :class:`ChannelType` to an object with a
    ``submit(address, subject, body, correlation)`` method (the
    Communication Managers).  The owner (a :class:`SimbaEndpoint`) must feed
    incoming ``SIMBA-ACK`` messages to :attr:`acks` for ack blocks to work.
    """

    def __init__(self, env: "Environment", managers: dict[ChannelType, object]):
        self.env = env
        #: Keyed by the channel's value: a ``str`` hashes in C, a
        #: ``ChannelType`` through Python-level ``Enum.__hash__``.
        self.managers = {
            channel._value_: manager for channel, manager in managers.items()
        }
        self.acks = AckTable(env)
        #: Optional :class:`~repro.core.admission.AdmissionController`
        #: consulted per submission for per-channel provider limits.  An
        #: empty bucket records the failure like any other submission
        #: error, so fallback to the next block *is* the handling.
        self.admission = None

    def execute(
        self,
        mode: DeliveryMode,
        book: AddressBook,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
        trace_parent: Optional[int] = None,
    ) -> DeliveryRun:
        """Start running a delivery mode now.  The returned run ends with a
        :class:`DeliveryOutcome` as its value (at once when no block
        waits); it never fails for delivery failures.  The engine keeps no
        history: the caller owns the outcome."""
        run = DeliveryRun(self, mode, book, subject, body, correlation)
        run.start(trace_parent)
        return run
