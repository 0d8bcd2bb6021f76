"""The SIMBA subscription layer (§4.1).

"This layer provides APIs for users to register their addresses, personal
alert categories, and personal delivery modes.  It provides a subscription
API for mapping a category name to a user with a particular delivery mode.
Each category can have multiple subscribers, each of which can specify a
different delivery mode" — the multi-subscriber case enables alert sharing
(§4.2 "Alert routing").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.core.addresses import AddressBook
from repro.core.delivery_modes import DeliveryMode
from repro.errors import SubscriptionError


@dataclass(frozen=True)
class Subscription:
    """One (category → user via mode) mapping."""

    category: str
    user: str
    mode_name: str


class SubscriptionLayer:
    """Registry of users, addresses, categories, modes and subscriptions.

    The category set and each user's mode table are replaced, never changed
    in place, so one of each can be shared by every tenant of a farm
    profile (``categories`` here, ``modes`` in :meth:`register_user`) and
    each layer still changes only its own.
    """

    def __init__(self, categories: Iterable[str] = ()):
        self._address_books: dict[str, AddressBook] = {}
        self._modes: dict[str, Mapping[str, DeliveryMode]] = {}
        self._categories: frozenset[str] = frozenset(categories)
        self._subscriptions: dict[str, list[Subscription]] = {}

    # ------------------------------------------------------------------
    # Registration APIs
    # ------------------------------------------------------------------

    def register_user(
        self,
        user: str,
        address_book: AddressBook,
        modes: Optional[Mapping[str, DeliveryMode]] = None,
    ) -> None:
        """Register a user with their address book and, optionally, a
        table of delivery modes by name (validated like
        :meth:`register_mode`, and kept as given)."""
        if user in self._address_books:
            raise SubscriptionError(f"user {user!r} already registered")
        names = {address.friendly_name for address in address_book}
        for mode in (modes or {}).values():
            _check_addresses(user, mode, names)
        self._address_books[user] = address_book
        self._modes[user] = modes if modes is not None else {}

    def address_book(self, user: str) -> AddressBook:
        try:
            return self._address_books[user]
        except KeyError:
            raise SubscriptionError(f"unknown user {user!r}") from None

    def register_mode(self, user: str, mode: DeliveryMode) -> None:
        """Register a personalized delivery mode, validating every address
        reference against the user's book up front (fail fast, not at
        routing time)."""
        book = self.address_book(user)
        _check_addresses(
            user, mode, {address.friendly_name for address in book}
        )
        self._modes[user] = {**self._modes[user], mode.name: mode}

    def mode(self, user: str, mode_name: str) -> DeliveryMode:
        self.address_book(user)  # validates the user exists
        try:
            return self._modes[user][mode_name]
        except KeyError:
            raise SubscriptionError(
                f"user {user!r} has no delivery mode {mode_name!r}"
            ) from None

    def modes_for(self, user: str) -> list[DeliveryMode]:
        self.address_book(user)
        return list(self._modes[user].values())

    def register_category(self, category: str) -> None:
        """Declare a personal alert category (idempotent)."""
        if not category:
            raise SubscriptionError("category name must be non-empty")
        if category not in self._categories:
            self._categories = self._categories | {category}

    @property
    def categories(self) -> frozenset[str]:
        return self._categories

    # ------------------------------------------------------------------
    # Subscription API
    # ------------------------------------------------------------------

    def subscribe(self, category: str, user: str, mode_name: str) -> Subscription:
        """Map ``category`` to ``user`` delivered via ``mode_name``."""
        if category not in self._categories:
            raise SubscriptionError(f"unknown category {category!r}")
        self.mode(user, mode_name)  # validates user and mode
        subscription = Subscription(category=category, user=user, mode_name=mode_name)
        existing = self._subscriptions.setdefault(category, [])
        if any(s.user == user for s in existing):
            raise SubscriptionError(
                f"user {user!r} already subscribes to {category!r}; "
                "unsubscribe first to change the delivery mode"
            )
        existing.append(subscription)
        return subscription

    def unsubscribe(self, category: str, user: str) -> None:
        subs = self._subscriptions.get(category, [])
        remaining = [s for s in subs if s.user != user]
        if len(remaining) == len(subs):
            raise SubscriptionError(
                f"user {user!r} does not subscribe to {category!r}"
            )
        self._subscriptions[category] = remaining

    def subscriptions_for(self, category: str) -> list[Subscription]:
        """All subscriptions of a category (multiple subscribers allowed)."""
        return list(self._subscriptions.get(category, []))

    def subscriptions_of_user(self, user: str) -> list[Subscription]:
        return [
            s
            for subs in self._subscriptions.values()
            for s in subs
            if s.user == user
        ]


def _check_addresses(user: str, mode: DeliveryMode, names: set[str]) -> None:
    missing = mode.referenced_addresses() - names
    if missing:
        raise SubscriptionError(
            f"mode {mode.name!r} references unknown addresses "
            f"{sorted(missing)} for user {user!r}"
        )
