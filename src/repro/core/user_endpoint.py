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

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

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
        self.sms_gateway.phone(self.phone_number).hook = self._on_sms
        self.email_service.mailbox(self.email_address).hook = self._on_mail
        # The reconnect poll is a timer chain, armed from a zero-delay kick
        # rather than inline so every tick keeps its (time, sequence) place
        # (DESIGN §6b).
        kick = self.env.event()
        kick.callbacks.append(self._arm_reconnect)
        kick.succeed()

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

    def _login(self) -> None:
        try:
            self._session = self.im_service.login(self.im_address)
        except ChannelError:
            self._session = None
            return
        self.env.process(
            self._im_loop(self._session), name=f"{self.name}-im"
        )

    def _arm_reconnect(self, _event) -> None:
        self.env.timeout(RECONNECT_INTERVAL).callbacks.append(self._reconnect)

    def _reconnect(self, timer) -> None:
        """A present user's IM client auto-reconnects after outages/logouts."""
        session_dead = self._session is None or not self._session.active
        if self._present and session_dead and self.im_service.available:
            self._login()
        self._arm_reconnect(timer)

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
    # Devices: the IM loop suspends on its human reaction delay; the phone
    # and the mailbox are read by arrival hooks
    # ------------------------------------------------------------------

    def _im_loop(self, session: IMSession):
        while session.active and self._present:
            message = yield session.receive()
            if message.corrupt:
                # Failed checksum: never acked, so the MAB's ack timeout
                # treats the alert as undelivered and falls back.
                self.corrupt_discarded += 1
                continue
            if not Alert.is_alert_payload(message.body):
                continue
            alert = Alert.decode(message.body)
            self._record(alert, ChannelType.IM)
            if self.ack_enabled:
                yield self.env.timeout(REACTION.draw(self.rng))
                if session.active:
                    try:
                        session.send(
                            message.sender,
                            make_ack_body(message.seq),
                            correlation=alert.alert_id,
                        )
                    except ChannelError:
                        pass  # sender will fall back; we already saw it

    def _on_sms(self, message) -> None:
        """The handset's arrival hook (:attr:`Phone.hook`)."""
        if message.corrupt:
            self.corrupt_discarded += 1
            return
        body = message.body
        if Alert.is_alert_payload(body):
            self._record(Alert.decode(body), ChannelType.SMS)
        elif message.correlation is not None:
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
            self._record(alert, ChannelType.SMS)

    def _on_mail(self, message) -> None:
        """The mail reader's arrival hook (:attr:`Mailbox.hook`)."""
        if message.corrupt:
            self.corrupt_discarded += 1
            return
        if Alert.is_alert_payload(message.body):
            self._record(Alert.decode(message.body), ChannelType.EMAIL)
