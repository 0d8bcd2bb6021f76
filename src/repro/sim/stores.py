"""FIFO stores (mailboxes) for inter-process communication.

A :class:`Store` is an unbounded (or bounded) FIFO of items.  ``put`` and
``get`` return events; a ``get`` on an empty store suspends the caller until
an item arrives.  Stores back every message queue in the reproduction: IM
session inboxes, SMTP relay queues, SMS carrier queues, MAB's alert inbox.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

_UNBOUNDED = float("inf")


class StorePut(Event):
    """Event for a pending put; triggers when the item is accepted."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item

    def cancel(self) -> None:
        """Interrupted putter: the item must not enter the store later."""
        putters = self.store._putters
        if putters and self in putters:
            putters.remove(self)


class StoreGet(Event):
    """Event for a pending get; triggers with the retrieved item."""

    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]):
        super().__init__(store.env)
        self.store = store
        self.predicate = predicate

    def cancel(self) -> None:
        """Interrupted getter: stop queueing for an item."""
        if self in self.store._getters:
            self.store._getters.remove(self)


class Store:
    """FIFO item store with optional capacity and filtered gets.

    Every tenant owns several (session inboxes, client queues, the alert
    inbox) and most sit empty, so the instance is slotted and carries no
    container it cannot need: an empty ``deque`` is 760 bytes and one more
    object for the collector to visit, an empty list 56.
    """

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env: "Environment", capacity: float = _UNBOUNDED):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        #: Stored items, head first.  A list, not a deque: taking the head
        #: of a list is a memmove of the depth, and inboxes are shallow
        #: (≤ 94 under the storm benchmark, mean 6) — far below where that
        #: shows against the ~0.5 ms an alert costs.
        self.items: list[Any] = []
        #: Puts waiting for room.  Only a bounded store can have any (an
        #: unbounded ``put`` is accepted on the spot), so only a bounded
        #: store has the queue.
        self._putters: Optional[deque[StorePut]] = (
            None if capacity == _UNBOUNDED else deque()
        )
        #: Waiting gets in arrival order — at most one in every product
        #: use, so a plain list.
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the returned event triggers once it is stored."""
        event = StorePut(self, item)
        if self.capacity == _UNBOUNDED:
            # An unbounded store can never queue a putter: accept now.
            self.items.append(item)
            event.succeed()
            if self._getters:
                self._serve_getters()
            return event
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Remove and return the first item (matching ``predicate`` if given)."""
        event = StoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def put_front(self, item: Any) -> None:
        """Synchronously put ``item`` back at the head of the queue.

        Used by consumers that took an item and then discovered they must
        not process it (e.g. a stale receive loop after a restart): the item
        goes to whoever is waiting next, in original order.  Ignores
        capacity — the item was only borrowed.
        """
        self.items.insert(0, item)
        self._dispatch()

    def clear(self) -> list[Any]:
        """Drop all stored items (used by crash injection) and return them."""
        dropped = list(self.items)
        self.items.clear()
        return dropped

    def _dispatch(self) -> None:
        while True:
            # Accept puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
            # Only a slot freed by a getter can unblock a queued putter.
            if not (self._serve_getters() and self._putters):
                return

    def _serve_getters(self) -> bool:
        """Satisfy getters in arrival order; a filtered getter only
        consumes the first item that matches its predicate.  Returns
        whether any getter was served."""
        getters = self._getters
        items = self.items
        served = False
        position = 0
        while items and position < len(getters):
            get = getters[position]
            index = self._find(get.predicate)
            if index is None:
                # Filtered out: keeps its place ahead of the rest.
                position += 1
                continue
            del getters[position]
            item = items[index]
            del items[index]
            get.succeed(item)
            served = True
        return served

    def _find(self, predicate: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if predicate(item):
                return index
        return None
