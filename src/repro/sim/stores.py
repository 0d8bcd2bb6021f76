"""FIFO mailboxes: every message queue in the reproduction (IM session
inboxes, mailboxes, phone inboxes, the IM client's queue, MAB's alert inbox).
``put`` is a plain call — nothing ever waits for a mailbox to accept a
message, so no event exists for nobody to wait on — and ``get`` returns the
one event, which suspends the caller until an item arrives.  A
:class:`Reader` is the callback twin of a loop parked in ``get``: the
endpoints' receive loops are readers, not processes (DESIGN §6d).
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
        getters = self.store._getters
        if self in getters:
            getters.remove(self)


#: What an empty store holds in place of a list: nothing to allocate.
_EMPTY: tuple = ()


class Store:
    """Unbounded FIFO mailbox: ``items`` head first, ``_getters`` (waiting
    :class:`StoreGet` events and armed :class:`Reader` s) in arrival order,
    never both non-empty.

    Every tenant owns several and most sit empty, so the instance is slotted
    and each queue is a plain list (an empty ``deque`` is 760 bytes, an empty
    list 56; inboxes are shallow: ≤ 94 under the storm benchmark, mean 6),
    built by the first put or waiting get: until then it is an empty tuple.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: "list[Any] | tuple" = _EMPTY
        self._getters: "list[StoreGet] | tuple" = _EMPTY

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """The stored items, head first (a copy; empty when none)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter, else store it."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        elif self._items:
            self._items.append(item)
        else:
            self._items = [item]

    def get(self) -> StoreGet:
        """Event yielding the first item, now or once one arrives."""
        event = StoreGet(self)
        if self._items:
            event.succeed(self._items.pop(0))
        elif self._getters:
            self._getters.append(event)
        else:
            self._getters = [event]
        return event

    def put_front(self, item: Any) -> None:
        """Return a borrowed ``item`` to the head of the queue (a stale
        reader handing its message to whoever reads next)."""
        if self._getters:
            self.put(item)
        elif self._items:
            self._items.insert(0, item)
        else:
            self._items = [item]

    def clear(self) -> list[Any]:
        """Drop all stored items (used by crash injection) and return them."""
        dropped = list(self._items)
        self._items = _EMPTY
        return dropped


class Reader:
    """A one-shot mailbox reader: the callback twin of a loop parked in
    ``yield store.get()``, the shape of :attr:`IMSession.hook` and
    :attr:`Mailbox.hook`.

    :meth:`read` arms it for one item.  Armed on an empty store it waits
    in the store's getter queue, and the ``put`` that brings an item hands
    it to :meth:`take` in its own dispatch (``succeed`` is the getter
    protocol ``put`` calls, without an event).  Armed on a store that holds
    items — queued while the reader was busy — it takes the head through
    a :class:`StoreGet` hop, so a backlog is read in order, one dispatch
    per item, as a loop reads it.  :meth:`take` is the owner's: it handles
    the item and re-arms, at once or when its own wait ends.
    """

    __slots__ = ("store",)

    def __init__(self, store: Store):
        self.store = store

    def read(self) -> None:
        """Take the next item: queued ones by a hop, else on arrival."""
        store = self.store
        if store._items:
            store.get().callbacks.append(self._hop)
        elif store._getters:
            store._getters.append(self)
        else:
            store._getters = [self]

    def detach(self) -> None:
        """Leave the getter queue (a no-op unless armed and waiting)."""
        getters = self.store._getters
        if self in getters:
            getters.remove(self)

    def succeed(self, item: Any) -> None:
        self.take(item)

    def _hop(self, event: StoreGet) -> None:
        self.take(event._value)

    def take(self, item: Any) -> None:
        raise NotImplementedError
