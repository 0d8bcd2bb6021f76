"""Self-stabilizing exactly-once record transport over an adversarial link.

The replication log-shipping path (:mod:`repro.core.replication`) moves
records over a channel that — once the adversary is on — reorders,
duplicates, and corrupts in flight.
Dolev, Dubois, Potop-Butucaru & Tixeuil show exactly-once delivery over such
non-FIFO channels needs explicit sequencing/acknowledgement machinery that
re-converges after transient faults; this module is that sublayer:

- **Sender** (:class:`StabilizingSender`): per-peer monotone sequence
  numbers, a CRC32 checksum on every frame, and a bounded resend loop that
  retries only when the receiver NACKed an arrived-but-corrupt frame (a
  lost packet is handed back to the caller's queue, exactly as the naive
  path did, so benign-timing stays byte-identical).
- **Receiver** (:class:`StabilizingReceiver`): checksum verification
  (corrupt frames are rejected, never acked) and a bounded dedup window —
  a per-peer monotone high-watermark, complete for stop-and-wait senders —
  so duplicate copies, including clean duplicates that overtake their
  primary, are dropped while still acknowledged.
- **Convergence**: once the last transient fault clears, every queued
  record drains within :data:`RESEND_LIMIT` rounds per record; the audit
  records the worst round count and the drain times so the
  :class:`~repro.testkit.oracle.DeliveryOracle` can assert
  ``convergence_bounded`` and the property tier can bound it per seed.

:class:`NaiveSender`/:class:`NaiveReceiver` form the baseline that E14
ablates against: same framing, but every arriving copy is accepted — so
duplicate-accepts and corrupt-accepts are *counted* where the stabilizing
pair prevents them.

When the adversary is off, both transports add zero RNG draws and zero
extra timeouts on the happy path, keeping pre-change chaos fingerprints and
golden journals byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.host import Host
    from repro.sim.link import HostLink

#: How many in-ship resend rounds a sender spends on NACKed frames before
#: handing the record back to the caller's retry machinery.
RESEND_LIMIT = 4

TRANSPORT_KINDS = ("stabilizing", "naive")


def payload_checksum(payload: Any) -> int:
    """CRC32 over the payload's canonical repr — the frame's integrity tag."""
    return zlib.crc32(repr(payload).encode("utf-8", "backslashreplace"))


class Frame(NamedTuple):
    """One record on the wire: sequence number, payload, integrity tag."""

    seq: int
    payload: Any
    checksum: int


@dataclass
class TransportAudit:
    """Counters for one transport endpoint pair (sender + receiver side)."""

    shipped: int = 0
    acked: int = 0
    resends: int = 0
    give_ups: int = 0
    max_resend_rounds: int = 0
    corrupt_rejected: int = 0
    corrupt_accepted: int = 0
    duplicate_dropped: int = 0
    duplicate_applied: int = 0
    last_drained_at: float = 0.0

    def summary(self) -> dict[str, int]:
        return {
            "shipped": self.shipped,
            "acked": self.acked,
            "resends": self.resends,
            "give_ups": self.give_ups,
            "corrupt_rejected": self.corrupt_rejected,
            "corrupt_accepted": self.corrupt_accepted,
            "duplicate_dropped": self.duplicate_dropped,
            "duplicate_applied": self.duplicate_applied,
        }


class StabilizingReceiver:
    """Checksum verify + per-peer monotone-watermark dedup.

    ``accept`` is called once per arriving copy and returns the ack the
    sender sees: True when the frame is (now or already) safely held, False
    when it was rejected as corrupt.  Application of the payload stays with
    the *sender's* post-ack step, preserving the legacy ship-then-apply
    ordering tick for tick; the receiver's job is to guarantee each record
    is acknowledged fresh exactly once.

    Because every sender is stop-and-wait (one frame outstanding, sequence
    numbers strictly increasing, a re-queued record reships under a fresh
    number), a single per-peer high-watermark is a complete — and O(1), so
    trivially bounded — dedup window: any copy at or below the watermark is
    a duplicate or a superseded straggler, and either way the record it
    carried is covered by a fresher acknowledged frame.  This is the
    self-stabilizing property: whatever transient garbage the channel held,
    one clean round trip per queued record re-converges the pair.
    """

    def __init__(self, audit: Optional[TransportAudit] = None):
        self.audit = audit if audit is not None else TransportAudit()
        #: Highest sequence number seen per peer; everything at or below it
        #: is dropped as a duplicate (but still acknowledged).
        self._watermark: dict[str, int] = {}

    def seen(self, peer: str, seq: int) -> bool:
        return seq <= self._watermark.get(peer, 0)

    def accept(
        self, peer: str, frame: Frame, corrupt: bool, duplicate: bool
    ) -> bool:
        if corrupt or frame.checksum != payload_checksum(frame.payload):
            self.audit.corrupt_rejected += 1
            return False
        if self.seen(peer, frame.seq):
            self.audit.duplicate_dropped += 1
            return True
        self._watermark[peer] = frame.seq
        return True


class NaiveReceiver:
    """The baseline: applies every arriving copy, counts the damage."""

    def __init__(
        self,
        audit: Optional[TransportAudit] = None,
        apply: Optional[Callable[[Any], None]] = None,
    ):
        self.audit = audit if audit is not None else TransportAudit()
        self.apply = apply
        self._seen: dict[str, set[int]] = {}

    def accept(
        self, peer: str, frame: Frame, corrupt: bool, duplicate: bool
    ) -> bool:
        if corrupt:
            self.audit.corrupt_accepted += 1
        seen = self._seen.setdefault(peer, set())
        if frame.seq in seen:
            self.audit.duplicate_applied += 1
        seen.add(frame.seq)
        if duplicate and self.apply is not None:
            # The primary copy is applied by the sender post-ack; arriving
            # duplicates are applied here, out of band — the double-apply
            # the stabilizing receiver exists to prevent.
            self.apply(frame.payload)
        return True


class StabilizingSender:
    """Monotone-seq framing with a bounded corrupt-NACK resend loop."""

    def __init__(
        self,
        link: "HostLink",
        key: str,
        audit: Optional[TransportAudit] = None,
    ):
        self.link = link
        self.key = key
        self.audit = audit if audit is not None else TransportAudit()
        self._next_seq = 1

    def ship(self, payload: Any, toward: "Host", rx) -> Any:
        """Generator → bool: frame ``payload`` and move it over the link.

        True means the receiver acknowledged the frame (it will be applied
        exactly once).  False means the link failed (caller requeues, as
        before) or the resend budget ran out on persistent corruption.
        Resends fire only after an arrived-but-NACKed round trip, so a
        benign link sees exactly one ship and zero extra waits.
        """
        frame = Frame(self._next_seq, payload, payload_checksum(payload))
        self._next_seq += 1
        self.audit.shipped += 1
        rounds = 0
        while True:
            arrived = {"primary": False}

            def on_receive(packet, _frame=frame, _arrived=arrived):
                if not packet.duplicate:
                    _arrived["primary"] = True
                return rx.accept(
                    self.key, _frame, packet.corrupt, packet.duplicate
                )

            ok = yield from self.link.ship(
                frame, toward=toward, on_receive=on_receive
            )
            if ok:
                self.audit.acked += 1
                if rounds > self.audit.max_resend_rounds:
                    self.audit.max_resend_rounds = rounds
                return True
            if not arrived["primary"]:
                # Lost or refused pre-flight: identical to the legacy
                # transfer outcome — the caller's queue-and-retry machinery
                # owns recovery, so benign timing is unchanged.
                return False
            rounds += 1
            if rounds > RESEND_LIMIT:
                self.audit.give_ups += 1
                if rounds > self.audit.max_resend_rounds:
                    self.audit.max_resend_rounds = rounds
                return False
            # Arrived but NACKed (corrupt in flight): resend the same
            # frame immediately — the link's own latency paces the loop.
            self.audit.resends += 1


class NaiveSender:
    """Same framing, no verification, no resend — the pre-PR behaviour."""

    def __init__(
        self,
        link: "HostLink",
        key: str,
        audit: Optional[TransportAudit] = None,
    ):
        self.link = link
        self.key = key
        self.audit = audit if audit is not None else TransportAudit()
        self._next_seq = 1

    def ship(self, payload: Any, toward: "Host", rx) -> Any:
        frame = Frame(self._next_seq, payload, payload_checksum(payload))
        self._next_seq += 1
        self.audit.shipped += 1

        def on_receive(packet, _frame=frame):
            return rx.accept(
                self.key, _frame, packet.corrupt, packet.duplicate
            )

        ok = yield from self.link.ship(
            frame, toward=toward, on_receive=on_receive
        )
        if ok:
            self.audit.acked += 1
        return ok


def make_sender(
    kind: str,
    link: "HostLink",
    key: str,
    audit: Optional[TransportAudit] = None,
):
    if kind == "stabilizing":
        return StabilizingSender(link, key, audit)
    if kind == "naive":
        return NaiveSender(link, key, audit)
    raise ValueError(
        f"unknown transport kind {kind!r} (expected one of {TRANSPORT_KINDS})"
    )


def make_receiver(
    kind: str,
    audit: Optional[TransportAudit] = None,
    apply: Optional[Callable[[Any], None]] = None,
):
    if kind == "stabilizing":
        return StabilizingReceiver(audit)
    if kind == "naive":
        return NaiveReceiver(audit, apply)
    raise ValueError(
        f"unknown transport kind {kind!r} (expected one of {TRANSPORT_KINDS})"
    )
