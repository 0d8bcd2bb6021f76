"""Cell-carrier SMS gateway.

"Our experience with the cell phone SMS delivery time with a large carrier
shows a similar range of unpredictability" to email (§3.1).  The gateway
queues messages per phone, draws long-tailed delivery latency, and loses a
small fraction.  A phone can be marked unreachable (battery dead, out of
coverage) — the scenario §3.3 uses to motivate temporarily disabling the SMS
address at MyAlertBuddy.
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

#: Median ~1 min, tail to days: "a similar range of unpredictability" (§3.1).
DEFAULT_SMS_LATENCY = LatencyModel(median=60.0, sigma=1.7, low=3.0, high=172800.0)
DEFAULT_SMS_LOSS = 0.02


@dataclass
class SMSMessage(Message):
    """A short message; bodies are truncated to the SMS length limit."""


class Phone:
    """A handset: an inbox plus a reachability flag.

    An owner that reads each message as it arrives (the user's handset)
    installs :attr:`hook`, and arriving messages are handed to it rather
    than queued — the shape of :attr:`IMSession.hook`.
    """

    def __init__(self, env: "Environment", number: str):
        self.env = env
        self.number = number
        self.inbox: Store = Store(env)
        #: Delivery hook, called at arrival time in place of the inbox put.
        self.hook: Optional[Callable[["SMSMessage"], None]] = None
        self.reachable = True


class SMSGateway(ChannelBase):
    """Carrier gateway switching SMS messages to registered phones."""

    #: GSM single-segment limit; longer alert bodies are truncated, which is
    #: one more reason SMS alone is a poor channel for rich alerts.
    MAX_LENGTH = 160

    def __init__(
        self,
        env: "Environment",
        rng: np.random.Generator,
        latency: LatencyModel = DEFAULT_SMS_LATENCY,
        loss_probability: float = DEFAULT_SMS_LOSS,
    ):
        super().__init__(env, "sms")
        self.rng = rng
        self.latency = latency
        self.loss_probability = loss_probability
        self._phones: dict[str, Phone] = {}
        #: Arrival hooks of handsets not built yet.
        self._hooks: dict[str, Callable[[SMSMessage], None]] = {}

    def phone(self, number: str) -> Phone:
        """Return (creating on first use) the handset for ``number``."""
        phone = self._phones.get(number)
        if phone is None:
            phone = self._phones[number] = Phone(self.env, number)
            phone.hook = self._hooks.pop(number, None)
        return phone

    def install_hook(
        self, number: str, hook: Callable[[SMSMessage], None]
    ) -> None:
        """Set ``number``'s :attr:`Phone.hook`.  A handset read on arrival
        is needed only when a message comes, so an unbuilt one is built,
        hook and all, by the first message or lookup."""
        phone = self._phones.get(number)
        if phone is None:
            self._hooks[number] = hook
        else:
            phone.hook = hook

    def set_reachable(self, number: str, reachable: bool) -> None:
        """Coverage/battery hook: unreachable phones never receive messages."""
        self.phone(number).reachable = reachable

    def send(
        self,
        sender: str,
        to: str,
        body: str,
        correlation: Optional[str] = None,
    ) -> SMSMessage:
        """Submit an SMS.  The gateway accepts even for unreachable phones —
        the sender cannot tell; the message is simply never delivered, which
        is why blanket SMS redundancy gives no delivery guarantee (§2.3)."""
        self._require_available()
        message = SMSMessage(
            channel=ChannelType.SMS,
            sender=sender,
            recipient=to,
            body=body[: self.MAX_LENGTH],
            created_at=self.env.now,
            correlation=correlation,
        )
        self.stats.submitted += 1
        self.transit(message, self._arrive)
        return message

    def _arrive(self, message: SMSMessage) -> bool:
        phone = self.phone(message.recipient)
        if not phone.reachable:
            return False
        if phone.hook is not None:
            phone.hook(message)
        else:
            phone.inbox.put(message)
        return True
