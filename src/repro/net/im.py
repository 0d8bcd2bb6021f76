"""Instant Messaging service: presence, sessions, sequence numbers.

SIMBA uses IM as the universal, reliable alert channel: delivery is
sub-second, the service knows who is online, and receivers send
application-level acknowledgements "tagged with IM message sequence numbers"
(§3.1).  This module models the *service*: accounts, login sessions with an
inbox, per-session outgoing sequence numbers, latency/loss, and outages that
force-log-out every session (the paper's "extended IM downtimes").

Acknowledgement logic itself lives in the SIMBA library (application level),
exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import (
    AddressUnknownError,
    ChannelUnavailable,
    DeliveryFailure,
)
from repro.net.channel import ChannelBase, LatencyModel
from repro.net.message import ChannelType, Message
from repro.net.presence import PresenceService
from repro.sim.stores import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: Calibrated so one-way delivery is "typically less than one second" (§5).
DEFAULT_IM_LATENCY = LatencyModel(median=0.4, sigma=0.45, low=0.05, high=8.0)


@dataclass
class IMMessage(Message):
    """An IM with the service-assigned per-session sequence number."""

    seq: int = 0


class IMSession:
    """A logged-in connection for one address.

    The session owns an inbox :class:`Store`; receiving is ``yield
    session.receive()``.  An owner that surfaces IMs itself (the GUI
    client) installs :attr:`hook` instead, and arriving IMs are handed to
    it rather than queued.  A force-logout (outage, server recovery,
    injected fault) invalidates the session: subsequent sends raise
    :class:`~repro.errors.NotLoggedInError`-adjacent channel errors and
    pending messages are dropped.
    """

    def __init__(self, service: "IMService", address: str):
        self.service = service
        self.address = address
        self.inbox: Store = Store(service.env)
        #: Delivery hook, called at arrival time in place of the inbox put.
        self.hook: Optional[Callable[["IMMessage"], None]] = None
        #: Called once when the session ends, by logout or by the service.
        self.on_end: Optional[Callable[[], None]] = None
        self.active = True
        self._next_seq = 1

    def allocate_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def send(
        self,
        to: str,
        body: str,
        subject: str = "",
        correlation: Optional[str] = None,
    ) -> IMMessage:
        """Submit an IM to ``to``; returns the message with its seq number."""
        return self.service.send(self, to, body, subject, correlation)

    def receive(self):
        """Event yielding the next inbox message."""
        return self.inbox.get()

    def logout(self) -> None:
        self.service.logout(self)

    def __repr__(self) -> str:
        state = "active" if self.active else "dead"
        return f"<IMSession {self.address!r} {state}>"


class IMService(ChannelBase):
    """The IM server: accounts, presence, message switching."""

    def __init__(
        self,
        env: "Environment",
        rng: np.random.Generator,
        latency: LatencyModel = DEFAULT_IM_LATENCY,
        loss_probability: float = 0.0,
    ):
        super().__init__(env, "im")
        self.rng = rng
        self.latency = latency
        self.loss_probability = loss_probability
        self.presence = PresenceService()
        self._accounts: set[str] = set()
        self._sessions: dict[str, IMSession] = {}

    # ------------------------------------------------------------------
    # Accounts and sessions
    # ------------------------------------------------------------------

    def register_account(self, address: str) -> None:
        """Create an IM account (idempotent)."""
        self._accounts.add(address)

    def login(self, address: str) -> IMSession:
        """Log ``address`` in, force-logging-out any prior session."""
        self._require_available()
        if address not in self._accounts:
            raise AddressUnknownError(f"no IM account for {address!r}")
        previous = self._sessions.get(address)
        if previous is not None:
            self._kill_session(previous)
        session = IMSession(self, address)
        self._sessions[address] = session
        self.presence.set_online(address, True)
        return session

    def logout(self, session: IMSession) -> None:
        """Orderly logout; safe to call on an already-dead session."""
        if self._sessions.get(session.address) is session:
            del self._sessions[session.address]
            self.presence.set_online(session.address, False)
        self._end(session)

    def force_logout(self, address: str) -> bool:
        """Server-side logout (fault hook).  Returns True if a session died."""
        session = self._sessions.get(address)
        if session is None:
            return False
        self._kill_session(session)
        return True

    def session_for(self, address: str) -> Optional[IMSession]:
        return self._sessions.get(address)

    def _kill_session(self, session: IMSession) -> None:
        del self._sessions[session.address]
        self.presence.set_online(session.address, False)
        session.inbox.clear()
        self._end(session)

    @staticmethod
    def _end(session: IMSession) -> None:
        session.active = False
        session.hook = None  # the hook holds the session: no cycle
        on_end, session.on_end = session.on_end, None
        if on_end is not None:
            on_end()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(
        self,
        session: IMSession,
        to: str,
        body: str,
        subject: str = "",
        correlation: Optional[str] = None,
    ) -> IMMessage:
        """Switch one IM from ``session`` to address ``to``.

        Raises :class:`ChannelUnavailable` if the service is down or the
        sender's session has been invalidated, and :class:`DeliveryFailure`
        if the recipient is not online (IM is synchronous: there is no
        offline spool — that is exactly why SIMBA needs an email fallback).
        """
        self._require_available()
        if not session.active or self._sessions.get(session.address) is not session:
            self.stats.rejected += 1
            raise ChannelUnavailable(
                f"session for {session.address!r} is no longer logged in"
            )
        if not self.presence.is_online(to):
            self.stats.rejected += 1
            raise DeliveryFailure(f"IM recipient {to!r} is offline")
        message = IMMessage(
            channel=ChannelType.IM,
            sender=session.address,
            recipient=to,
            body=body,
            subject=subject,
            created_at=self.env.now,
            correlation=correlation,
            seq=session.allocate_seq(),
        )
        self.stats.submitted += 1
        self.transit(message, self._arrive)
        return message

    def _arrive(self, message: IMMessage) -> bool:
        target = self._sessions.get(message.recipient)
        if target is None or not self.available:
            # Recipient logged out (or service died) while the IM was in
            # flight; synchronous IM has nowhere to park it.
            return False
        if target.hook is not None:
            target.hook(message)
        else:
            target.inbox.put(message)
        return True

    # ------------------------------------------------------------------
    # Outages
    # ------------------------------------------------------------------

    def set_available(self, available: bool) -> None:
        if not available:
            for session in list(self._sessions.values()):
                self._kill_session(session)
        super().set_available(available)
