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
from repro.sim.events import Event

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

    Every key ever expected has one entry in ``_acked``: whether its
    current conversation has been acked.  A key with no entry was never
    expected, so an ack for it is unsolicited.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._pending: dict[tuple[str, int], Event] = {}
        self._acked: dict[tuple[str, int], bool] = {}
        self.resolved_count = 0
        self.late_count = 0
        self.duplicate_count = 0
        self.unsolicited_count = 0

    def expect(self, peer: str, seq: int) -> Event:
        event = self.env.event()
        key = (peer, seq)
        self._pending[key] = event
        # Seq reuse after a session restart: this key's previous
        # conversation (if any) is over; only acks from the new one count.
        self._acked[key] = False
        return event

    def resolve(self, peer: str, seq: int) -> bool:
        """Called when an ack message arrives; True if someone was waiting."""
        key = (peer, seq)
        event = self._pending.pop(key, None)
        if event is None or event.triggered:
            acked = self._acked.get(key)
            if acked:
                self.duplicate_count += 1
            elif acked is None:
                self.unsolicited_count += 1
            else:
                self.late_count += 1
                self._acked[key] = True
            return False
        event.succeed(self.env.now)
        self.resolved_count += 1
        self._acked[key] = True
        return True

    def cancel(self, peer: str, seq: int) -> None:
        self._pending.pop((peer, seq), None)

    def __len__(self) -> int:
        return len(self._pending)


class DeliveryEngine:
    """Executes delivery modes against a set of channel managers.

    ``managers`` maps :class:`ChannelType` to an object with a
    ``submit(address, subject, body, correlation)`` method (the
    Communication Managers).  The owner (a :class:`SimbaEndpoint`) must feed
    incoming ``SIMBA-ACK`` messages to :attr:`acks` for ack blocks to work.
    """

    def __init__(self, env: "Environment", managers: dict[ChannelType, object]):
        self.env = env
        self.managers = managers
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
    ):
        """Run a delivery mode (generator; use ``yield from`` or wrap in a
        process).  Returns a :class:`DeliveryOutcome`; never raises for
        delivery failures.  The engine keeps no history: the caller owns
        the outcome."""
        started = self.env.now
        tracer = self.env.tracer
        span = None
        if tracer is not None and correlation is not None:
            span = tracer.begin(
                correlation, "deliver", parent=trace_parent, mode=mode.name
            )
        blocks: list[BlockOutcome] = []
        messages = 0
        delivered = False
        for index, block in enumerate(mode.blocks):
            outcome = yield from self._run_block(
                index, block, book, subject, body, correlation, span
            )
            blocks.append(outcome)
            messages += len(outcome.submitted)
            if outcome.succeeded:
                delivered = True
                break
        if span is not None:
            tracer.end(span, "delivered" if delivered else "failed")
        return DeliveryOutcome(
            mode_name=mode.name,
            correlation=correlation,
            delivered=delivered,
            blocks=tuple(blocks),
            started_at=started,
            finished_at=self.env.now,
            messages_sent=messages,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_block(
        self,
        index: int,
        block: CommunicationBlock,
        book: AddressBook,
        subject: str,
        body: str,
        correlation: Optional[str],
        deliver_span=None,
    ):
        start = self.env.now
        tracer = self.env.tracer
        bspan = None
        if tracer is not None and correlation is not None:
            bspan = tracer.begin(
                correlation,
                "block",
                parent=deliver_span.span_id if deliver_span is not None else None,
                index=index,
                require_ack=block.require_ack,
            )
        errors: dict[str, str] = {}
        skipped: list[str] = []
        submitted: list[str] = []
        acked: Optional[str] = None
        addresses: list[UserAddress] = []
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

        ack_events: dict[Event, str] = {}
        pending_keys: list[tuple[str, int]] = []
        for address in addresses:
            manager = self.managers.get(address.channel)
            if manager is None:
                errors[address.friendly_name] = (
                    f"no manager for channel {address.channel.value}"
                )
                continue
            if self.admission is not None and not self.admission.try_submit(
                self.env.now, address.channel.value
            ):
                errors[address.friendly_name] = (
                    f"rate_limited: channel {address.channel.value}"
                )
                continue
            try:
                message = manager.submit(
                    address.address, subject, body, correlation
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
                    event = self.acks.expect(address.address, seq)
                    ack_events[event] = address.friendly_name
                    pending_keys.append((address.address, seq))

        if not addresses:
            status = BlockStatus.NO_ENABLED_ADDRESSES
        elif not submitted:
            status = BlockStatus.ALL_SUBMISSIONS_FAILED
        elif not block.require_ack:
            status = BlockStatus.SUCCESS
        elif not ack_events:
            # An ack block whose submissions cannot carry acks (e.g. actions
            # on non-IM addresses) cannot confirm delivery: treat as timeout
            # so the backup block fires — confirmability is the point.
            yield self.env.timeout(0)
            status = BlockStatus.ACK_TIMEOUT
        else:
            wspan = None
            if bspan is not None:
                wspan = tracer.begin(
                    correlation,
                    "ack.wait",
                    parent=bspan.span_id,
                    pending=len(ack_events),
                )
            # The ack-vs-timeout race runs under a TimerScope: when the ack
            # wins, the losing guard would otherwise sit in the queue until
            # ``block.ack_timeout`` — one dead entry per delivered alert,
            # which at farm scale dominates the queue.  The scope settles
            # the guard on *any* exit, including an Interrupt or
            # GeneratorExit thrown into this generator mid-wait — exactly
            # the paths a hand-written ``timeout.cancel()`` after the yield
            # would miss.
            with self.env.timers() as timers:
                guard = timers.acquire(block.ack_timeout)
                yield self.env.any_of(list(ack_events) + [guard])
            acked = next(
                (name for event, name in ack_events.items() if event.processed),
                None,
            )
            for peer, seq in pending_keys:
                self.acks.cancel(peer, seq)
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
        if bspan is not None:
            tracer.end(bspan, status.value)
        return BlockOutcome(
            index, status, tuple(submitted), tuple(skipped),
            errors or NO_ERRORS, acked, self.env.now - start,
        )
