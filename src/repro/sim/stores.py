"""FIFO mailboxes: every message queue in the reproduction (IM session
inboxes, mailboxes, phone inboxes, the IM client's queue, MAB's alert inbox).
``put`` is a plain call — nothing ever waits for a mailbox to accept a
message, so no event exists for nobody to wait on — and ``get`` returns the
one event, which suspends the caller until an item arrives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class StoreGet(Event):
    """Event for a pending get; triggers with the retrieved item."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store

    def cancel(self) -> None:
        """Interrupted getter: stop queueing for an item."""
        if self in self.store._getters:
            self.store._getters.remove(self)


class Store:
    """Unbounded FIFO mailbox: ``items`` head first, ``_getters`` in arrival
    order (at most one in every product use), never both non-empty.

    Every tenant owns several and most sit empty, so the instance is slotted
    and holds plain lists: an empty ``deque`` is 760 bytes, an empty list 56,
    and inboxes are shallow (≤ 94 under the storm benchmark, mean 6).
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: "Environment"):
        self.env = env
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter, else store it."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Event yielding the first item, now or once one arrives."""
        event = StoreGet(self)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self._getters.append(event)
        return event

    def put_front(self, item: Any) -> None:
        """Return a borrowed ``item`` to the head of the queue (a stale
        receive loop handing its message to whoever reads next)."""
        if self._getters:
            self.put(item)
        else:
            self.items.insert(0, item)

    def clear(self) -> list[Any]:
        """Drop all stored items (used by crash injection) and return them."""
        dropped = list(self.items)
        self.items.clear()
        return dropped
