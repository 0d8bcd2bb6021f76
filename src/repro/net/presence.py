"""Presence service for the IM substrate.

IM services "do provide presence" (§3.1): before routing through an IM
action, SIMBA can ask whether the target address is online.  The presence
service is also how outages manifest — when the IM service goes down, every
address is reported offline and sessions are force-logged-out.
"""

from __future__ import annotations

from typing import Callable


class PresenceService:
    """Tracks online/offline status per IM address."""

    def __init__(self):
        self._online: set[str] = set()
        self._watchers: list[Callable[[str, bool], None]] = []

    def set_online(self, address: str, online: bool) -> None:
        before = address in self._online
        if online:
            self._online.add(address)
        else:
            self._online.discard(address)
        if before != online:
            for watcher in list(self._watchers):
                watcher(address, online)

    def is_online(self, address: str) -> bool:
        return address in self._online

    def watch(self, callback: Callable[[str, bool], None]) -> None:
        """Register ``callback(address, online)`` for presence transitions."""
        self._watchers.append(callback)
