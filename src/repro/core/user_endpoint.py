"""The human end of alert delivery: the user's devices.

A user owns an IM identity (logged in only while *present* at a machine), a
phone (SMS inbox) and one or more mailboxes.  The endpoint records a
:class:`Receipt` for every alert that reaches any device — receipts are what
the latency and irritation metrics are computed from — and implements the
paper's duplicate handling: "we use timestamps to allow the user to detect
and discard duplicates" (§4.2.1).

When present, the user acknowledges IM alerts after a human reaction delay,
closing SIMBA's end-to-end synchronous loop (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.alert import Alert
from repro.core.endpoint import make_ack_body
from repro.errors import ChannelError
from repro.net.channel import LatencyModel
from repro.net.email import EmailService
from repro.net.im import IMService, IMSession
from repro.net.message import ChannelType
from repro.net.sms import SMSGateway
from repro.sim.stores import Reader

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment, Membership

#: Human reaction: notice the IM popup and (implicitly) acknowledge it.
REACTION = LatencyModel(median=2.0, sigma=0.5, low=0.5, high=30.0)
#: How often a present user's IM client retries a lost session.
RECONNECT_INTERVAL = 30.0


@dataclass(slots=True)
class Receipt:
    """One alert arriving on one of the user's devices."""

    alert_id: str
    channel: ChannelType
    at: float
    created_at: float
    duplicate: bool

    @property
    def latency(self) -> float:
        """Alert age when it reached the device."""
        return self.at - self.created_at


class UserEndpoint:
    """A user's devices plus the receipt/duplicate bookkeeping."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        im_service: IMService,
        email_service: EmailService,
        sms_gateway: SMSGateway,
        im_address: str,
        email_address: str,
        phone_number: str,
        rng: np.random.Generator,
        present: bool = True,
        ack_enabled: bool = True,
    ):
        self.env = env
        self.name = name
        self.im_service = im_service
        self.email_service = email_service
        self.sms_gateway = sms_gateway
        self.im_address = im_address
        self.email_address = email_address
        self.phone_number = phone_number
        self.rng = rng
        self.ack_enabled = ack_enabled

        im_service.register_account(im_address)
        self.receipts: list[Receipt] = []
        #: Corrupt-flagged messages dropped unparsed (failed checksum).
        self.corrupt_discarded = 0
        self._seen: set[str] = set()
        self._session: Optional[IMSession] = None
        self._present = present
        self._started = False
        self._poll: Optional[Membership] = None

    # ------------------------------------------------------------------
    # Lifecycle / presence
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin listening on all devices (idempotent)."""
        if self._started:
            return
        self._started = True
        if self._present:
            self._login()
        self.sms_gateway.install_hook(self.phone_number, self._on_sms)
        self.email_service.install_hook(self.email_address, self._on_mail)
        # The reconnect poll ticks in the cohort of its instant, asleep
        # while it has nothing to do (DESIGN §6b).
        self._poll = self.env.every(RECONNECT_INTERVAL, self._reconnect)
        self._sync_poll()

    @property
    def present(self) -> bool:
        return self._present

    def set_present(self, present: bool) -> None:
        """Arriving at / leaving the machine: logs the IM identity in or out."""
        if present == self._present:
            return
        self._present = present
        if not self._started:
            return
        if present:
            self._login()
        elif self._session is not None and self._session.active:
            self._session.logout()
            self._session = None
        self._sync_poll()

    def _login(self) -> None:
        try:
            self._session = self.im_service.login(self.im_address)
        except ChannelError:
            self._session = None
            return
        reader = _IMReader(self, self._session)
        self._session.on_end = reader.end
        # The reader arms from a zero-delay kick, where a loop process's
        # first step ran.
        kick = self.env.event()
        kick.callbacks.append(reader.start)
        kick.succeed()

    def _sync_poll(self) -> None:
        """Wake the reconnect poll while the user is present without a live
        session — the only state in which a tick can log in — else sleep."""
        session = self._session
        if self._present and (session is None or not session.active):
            self._poll.wake()
        else:
            self._poll.sleep()

    def _reconnect(self, _now: float) -> None:
        """A present user's IM client auto-reconnects after outages/logouts
        (the poll is awake only while the user is present without a live
        session)."""
        if self.im_service.available:
            self._login()
            self._sync_poll()

    # ------------------------------------------------------------------
    # Receipts
    # ------------------------------------------------------------------

    def _record(self, alert: Alert, channel: ChannelType) -> Receipt:
        # Dedup on the alert id: replays (crash between send and mark) and
        # multi-address fan-out both surface as repeats of the same id.  The
        # timestamp the paper mentions travels in the receipt for forensics.
        key = alert.alert_id
        receipt = Receipt(
            alert_id=key,
            channel=channel,
            at=self.env.now,
            created_at=alert.created_at,
            duplicate=key in self._seen,
        )
        self._seen.add(key)
        self.receipts.append(receipt)
        return receipt

    def unique_alerts_received(self) -> set[str]:
        return {r.alert_id for r in self.receipts if not r.duplicate}

    def duplicates_discarded(self) -> int:
        return sum(1 for r in self.receipts if r.duplicate)

    def messages_received(self) -> int:
        """Total messages across devices — the 'irritation' numerator."""
        return len(self.receipts)

    def receipts_for(self, alert_id: str) -> list[Receipt]:
        return [r for r in self.receipts if r.alert_id == alert_id]

    # ------------------------------------------------------------------
    # Devices: the IM window is a reader of the session's inbox that waits
    # out a human reaction; the phone and the mailbox are read by arrival
    # hooks
    # ------------------------------------------------------------------

    def _on_sms(self, message) -> None:
        """The handset's arrival hook (:attr:`Phone.hook`)."""
        if message.corrupt:
            self.corrupt_discarded += 1
            return
        body = message.body
        alert = None
        if Alert.is_alert_payload(body):
            try:
                alert = Alert.decode(body)
            except ValueError:
                # Truncation cut the payload before one of its fields.
                if message.correlation is None:
                    self.corrupt_discarded += 1
                    return
        if alert is None and message.correlation is not None:
            # SMS truncation usually cuts the payload; correlate by the id
            # the sender stamped on the message instead.
            alert = Alert(
                source="unknown",
                keyword="",
                subject="",
                body=body,
                created_at=message.created_at,
                alert_id=message.correlation,
            )
        if alert is not None:
            self._record(alert, ChannelType.SMS)

    def _on_mail(self, message) -> None:
        """The mail reader's arrival hook (:attr:`Mailbox.hook`)."""
        if message.corrupt:
            self.corrupt_discarded += 1
            return
        if Alert.is_alert_payload(message.body):
            self._record(Alert.decode(message.body), ChannelType.EMAIL)


class _IMReader(Reader):
    """The user at the IM window of one session: records each alert IM,
    and acks it after a human reaction delay, busy meanwhile (later IMs
    queue).  It reads while the session lives and the user is present, and
    lets go of the inbox when the session ends.
    """

    __slots__ = ("user", "session", "message", "alert_id")

    def __init__(self, user: UserEndpoint, session: IMSession):
        super().__init__(session.inbox)
        self.user = user
        self.session = session
        # The IM awaiting its ack (None when idle: a parked reader pins
        # nothing of the IM it last read).
        self.message = self.alert_id = None

    def start(self, _kick) -> None:
        self.next()

    def next(self) -> None:
        """Re-arm while the session lives and the user is present."""
        if self.session.active and self.user._present:
            self.read()

    def end(self) -> None:
        """The session's ``on_end``: nothing more can arrive."""
        self.detach()
        self.user._sync_poll()

    def take(self, message) -> None:
        user = self.user
        if message.corrupt:
            # Failed checksum: never acked, so the MAB's ack timeout
            # treats the alert as undelivered and falls back.
            user.corrupt_discarded += 1
        elif Alert.is_alert_payload(message.body):
            alert = Alert.decode(message.body)
            user._record(alert, ChannelType.IM)
            if user.ack_enabled:
                self.message, self.alert_id = message, alert.alert_id
                user.env.timeout(REACTION.draw(user.rng)).callbacks.append(
                    self._react
                )
                return
        self.next()

    def _react(self, _timer) -> None:
        message, alert_id = self.message, self.alert_id
        self.message = self.alert_id = None
        session = self.session
        if session.active:
            try:
                session.send(
                    message.sender,
                    make_ack_body(message.seq),
                    correlation=alert_id,
                )
            except ChannelError:
                pass  # sender will fall back; we already saw it
        self.next()
