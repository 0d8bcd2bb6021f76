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
from typing import TYPE_CHECKING, Callable, Optional

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
    peeks without consuming (used by MAB's backlog invariant check).  An
    owner that reads each message as it arrives (the user's mail reader)
    installs :attr:`hook` instead: an arriving message is marked read, then
    handed to it, and never queues — the shape of :attr:`IMSession.hook`.
    """

    def __init__(self, env: "Environment", address: str):
        self.env = env
        self.address = address
        self._unread: Store = Store(env)
        self._read: Optional[list[EmailMessage]] = None
        #: Delivery hook, called at arrival time in place of the queue put.
        self.hook: Optional[Callable[["EmailMessage"], None]] = None

    @property
    def read(self) -> list[EmailMessage]:
        """Messages marked read, oldest first (built by the first one)."""
        if self._read is None:
            self._read = []
        return self._read

    @property
    def unread(self) -> Store:
        """The unread queue itself, for a :class:`~repro.sim.stores.Reader`
        (which marks what it takes read with :meth:`mark_read`)."""
        return self._unread

    @property
    def unread_count(self) -> int:
        return len(self._unread)

    def peek_unread(self) -> list[EmailMessage]:
        return self._unread.items

    def deposit(self, message: EmailMessage) -> None:
        if self.hook is not None:
            self.read.append(message)
            self.hook(message)
        else:
            self._unread.put(message)

    def receive(self):
        """Event yielding the next unread message (it is marked read)."""
        get_event = self._unread.get()
        get_event.callbacks.append(self._mark_read)
        return get_event

    def _mark_read(self, event) -> None:
        if event.ok:
            self.read.append(event.value)

    def mark_read(self, message: EmailMessage) -> None:
        self.read.append(message)

    def put_back(self, message: "EmailMessage") -> None:
        """Return a received message to the head of the unread queue.

        Used by stale readers handing work to their successor; undoes the
        read-marking.
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
        #: Arrival hooks of mailboxes not built yet.
        self._hooks: dict[str, Callable[[EmailMessage], None]] = {}

    def mailbox(self, address: str) -> Mailbox:
        """Return (creating on first use) the mailbox for ``address``."""
        box = self._mailboxes.get(address)
        if box is None:
            box = self._mailboxes[address] = Mailbox(self.env, address)
            box.hook = self._hooks.pop(address, None)
        return box

    def install_hook(
        self, address: str, hook: Callable[[EmailMessage], None]
    ) -> None:
        """Set ``address``'s :attr:`Mailbox.hook`.  A reader that reads on
        arrival needs no mailbox before mail comes, so an unbuilt one is
        built, hook and all, by the first message or lookup."""
        box = self._mailboxes.get(address)
        if box is None:
            self._hooks[address] = hook
        else:
            box.hook = hook

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
