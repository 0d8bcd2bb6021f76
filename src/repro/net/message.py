"""Message envelopes shared by all channels.

SIMBA's subscription layer tags addresses with a communication type —
``"IM"``, ``"SMS"`` or ``"EM"`` (§4.1) — so the same constants name both
address types and the channels that serve them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class ChannelType(enum.Enum):
    """The paper's three communication types (§4.1 XML address schema)."""

    IM = "IM"
    EMAIL = "EM"
    SMS = "SMS"

    @classmethod
    def from_tag(cls, tag: str) -> "ChannelType":
        """Parse a type tag as written in address XML ('IM', 'EM', 'SMS')."""
        for member in cls:
            if member.value == tag:
                return member
        raise ValueError(f"unknown communication type tag {tag!r}")


_message_ids = itertools.count(1)


@dataclass
class Message:
    """A message in flight on some channel.

    ``correlation`` carries the originating alert id end-to-end so metrics
    can compute per-alert latency across multi-hop routes, and so the user
    endpoint can detect duplicate deliveries by (alert id, origin timestamp)
    as §4.2.1 prescribes.
    """

    channel: ChannelType
    sender: str
    recipient: str
    body: str
    subject: str = ""
    created_at: float = 0.0
    correlation: Optional[str] = None
    headers: dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))
    #: Flagged at receive time when the adversary flipped bits in flight —
    #: the receiver's checksum failed, so the payload must not be trusted.
    corrupt: bool = False
    #: Tracing only: span id of the delivery block (or ack) that submitted
    #: this message, so the channel's retroactive transit span and the
    #: receiver's receive span parent correctly.  None when tracing is off.
    trace_parent: Optional[int] = None
