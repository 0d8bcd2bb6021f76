"""Delivery modes: SIMBA's abstraction for personalized dependability.

"An XML document for a delivery mode contains one or more communication
blocks, each of which contains one or more actions.  Each action maps to the
friendly name of an address" (§4.1, Figure 4).

Execution semantics (§3.2/§3.3 and DESIGN.md §5):

- Blocks are tried strictly in order; the first *successful* block ends
  delivery; a failed block "falls back to the next backup block".
- Within a block, all actions on currently-*enabled* addresses fire
  concurrently.  Actions on disabled addresses are skipped ("only actions
  that map to enabled addresses at that time are performed", §4.1).
- A block with ``require_ack`` succeeds only if an application-level
  acknowledgement arrives within ``ack_timeout``; a best-effort block
  succeeds if at least one channel accepted the submission.
- A block with no enabled addresses fails immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Default patience for an IM acknowledgement before falling back.  Generous
#: relative to the ~1.5 s ack RTT the paper measures, small relative to
#: email's minutes-to-days tail.
DEFAULT_ACK_TIMEOUT = 15.0


@dataclass(frozen=True)
class Action:
    """One delivery attempt: send via the address named ``address_ref``."""

    address_ref: str

    def __post_init__(self):
        if not self.address_ref:
            raise ConfigurationError("action must reference an address name")


@dataclass(frozen=True)
class CommunicationBlock:
    """A set of concurrent actions with a shared success policy.

    Frozen, with the actions held as a tuple: one block may be shared by
    every user's mode (:func:`repro.world.standard_modes`).
    """

    actions: tuple[Action, ...]
    require_ack: bool = False
    ack_timeout: float = DEFAULT_ACK_TIMEOUT

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ConfigurationError("a communication block needs >= 1 action")
        if self.ack_timeout <= 0:
            raise ConfigurationError(
                f"ack_timeout must be positive, got {self.ack_timeout!r}"
            )
        seen = set()
        for action in self.actions:
            if action.address_ref in seen:
                raise ConfigurationError(
                    f"duplicate action for address {action.address_ref!r} "
                    "within one block"
                )
            seen.add(action.address_ref)


@dataclass(frozen=True)
class DeliveryMode:
    """A named, ordered sequence of communication blocks.

    The user "defines a set of personalized delivery modes, each of which
    corresponds to a personalized dependability level" (§1), identified by a
    friendly name like "Critical" or "Digest".  Frozen, with the blocks held
    as a tuple, so one mode can be shared by every user who defines it.
    """

    name: str
    blocks: tuple[CommunicationBlock, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.name:
            raise ConfigurationError("delivery mode needs a non-empty name")
        if not self.blocks:
            raise ConfigurationError(
                f"delivery mode {self.name!r} needs >= 1 communication block"
            )

    def referenced_addresses(self) -> set[str]:
        """Every friendly name any action in this mode refers to."""
        return {
            action.address_ref
            for block in self.blocks
            for action in block.actions
        }


def im_ack_then_email(
    im_address_ref: str = "IM",
    email_address_ref: str = "Email",
    ack_timeout: float = DEFAULT_ACK_TIMEOUT,
) -> DeliveryMode:
    """The paper's canonical mode: "IM-with-acknowledgement followed by
    email" (§4.2) — used by every alert source to reach MyAlertBuddy."""
    return DeliveryMode(
        name="im-ack-then-email",
        blocks=[
            CommunicationBlock(
                actions=[Action(im_address_ref)],
                require_ack=True,
                ack_timeout=ack_timeout,
            ),
            CommunicationBlock(actions=[Action(email_address_ref)]),
        ],
    )
