"""Store-and-forward email substrate.

"It is well understood that email delivery is not guaranteed to be reliable,
and the unpredictable delivery time can range from seconds to days" (§3.1).
We model exactly that: submission always succeeds while the relay is up,
delivery happens after a long-tailed latency draw, a small fraction of
messages is silently lost, and mailboxes exist independently of whether the
owner is "online" (unlike IM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.channel import ChannelBase, LatencyModel
from repro.net.message import ChannelType, Message
from repro.sim.stores import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: Median ~1.5 min with a heavy tail reaching days; "the unpredictable
#: delivery time can range from seconds to days" (§3.1).
DEFAULT_EMAIL_LATENCY = LatencyModel(median=90.0, sigma=1.6, low=3.0, high=259200.0)
DEFAULT_EMAIL_LOSS = 0.01


@dataclass
class EmailMessage(Message):
    """An email; ``headers['importance']`` carries the importance flag."""


class Mailbox:
    """A recipient mailbox: a Store plus a read archive.

    ``receive()`` consumes the next unread message (blocking); ``unread``
    peeks without consuming (used by MAB's backlog invariant check).
    """

    def __init__(self, env: "Environment", address: str):
        self.env = env
        self.address = address
        self._unread: Store = Store(env)
        self.read: list[EmailMessage] = []

    @property
    def unread_count(self) -> int:
        return len(self._unread)

    def peek_unread(self) -> list[EmailMessage]:
        return list(self._unread.items)

    def deposit(self, message: EmailMessage) -> None:
        self._unread.put(message)

    def receive(self):
        """Event yielding the next unread message (it is marked read)."""
        get_event = self._unread.get()
        get_event.callbacks.append(
            lambda evt: self.read.append(evt.value) if evt.ok else None
        )
        return get_event

    def put_back(self, message: "EmailMessage") -> None:
        """Return a received message to the head of the unread queue.

        Used by stale consumers handing work to their successor; undoes the
        read-marking that :meth:`receive` performed.
        """
        if message in self.read:
            self.read.remove(message)
        self._unread.put_front(message)


class EmailService(ChannelBase):
    """SMTP-like relay network with per-address mailboxes."""

    def __init__(
        self,
        env: "Environment",
        rng: np.random.Generator,
        latency: LatencyModel = DEFAULT_EMAIL_LATENCY,
        loss_probability: float = DEFAULT_EMAIL_LOSS,
    ):
        super().__init__(env, "email")
        self.rng = rng
        self.latency = latency
        self.loss_probability = loss_probability
        self._mailboxes: dict[str, Mailbox] = {}

    def mailbox(self, address: str) -> Mailbox:
        """Return (creating on first use) the mailbox for ``address``."""
        if address not in self._mailboxes:
            self._mailboxes[address] = Mailbox(self.env, address)
        return self._mailboxes[address]

    def send(
        self,
        sender: str,
        to: str,
        subject: str,
        body: str,
        correlation: Optional[str] = None,
        importance: str = "normal",
    ) -> EmailMessage:
        """Submit an email.  Raises ChannelUnavailable only if the relay is down."""
        self._require_available()
        message = EmailMessage(
            channel=ChannelType.EMAIL,
            sender=sender,
            recipient=to,
            subject=subject,
            body=body,
            created_at=self.env.now,
            correlation=correlation,
            headers={"importance": importance},
        )
        self.stats.submitted += 1
        self.transit(message, self._arrive)
        return message

    def _arrive(self, message: EmailMessage) -> bool:
        self.mailbox(message.recipient).deposit(message)
        return True
