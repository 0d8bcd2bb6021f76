"""Simulated GUI IM client (think MSN Messenger driven via automation).

The client logs an address on to an :class:`~repro.net.im.IMService`,
surfaces IMs arriving on the network session in an application-visible
queue, and exposes send/receive/status calls through the automation guard.
Its failure behaviour matches the paper's observations: a spurious
server-side logout is fixed by re-logon; a hung client surfaces nothing
(messages arriving meanwhile are lost — the client ate them without showing
them); killing the client drops the session and invalidates all pointers.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.clients.automation import AutomationHandle, ClientSoftware
from repro.clients.screen import Screen
from repro.errors import NotLoggedInError
from repro.net.im import IMMessage, IMService, IMSession
from repro.sim.stores import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class IMClient(ClientSoftware):
    """GUI IM client for a single IM address."""

    def __init__(
        self,
        env: "Environment",
        screen: Screen,
        service: IMService,
        address: str,
        name: str = "im-client",
    ):
        super().__init__(env, screen, name)
        self.service = service
        self.address = address
        self._session: Optional[IMSession] = None
        #: Messages the client has surfaced to the driving application.
        self.incoming: Store = Store(env)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def _on_terminate(self) -> None:
        if self._session is not None and self._session.active:
            self._session.logout()
        self._session = None
        self.incoming.clear()

    # ------------------------------------------------------------------
    # Automation interface
    # ------------------------------------------------------------------

    def logon(self, handle: AutomationHandle) -> None:
        """Log on to the IM server (raises ChannelUnavailable during outages)."""
        self.guard(handle)
        self._session = session = self.service.login(self.address)
        session.hook = partial(_surface, self, session, self.generation)

    def logoff(self, handle: AutomationHandle) -> None:
        self.guard(handle)
        if self._session is not None and self._session.active:
            self._session.logout()
        self._session = None

    def is_logged_on(self, handle: AutomationHandle) -> bool:
        """App-specific sanity probe #1 (§4.1.1: 'still logged on?')."""
        self.guard(handle)
        return self._session is not None and self._session.active

    def can_launch_session(self, handle: AutomationHandle) -> bool:
        """App-specific sanity probe #2 ('can it launch IM sessions?')."""
        self.guard(handle)
        return (
            self._session is not None
            and self._session.active
            and self.service.available
        )

    def buddy_status(self, handle: AutomationHandle, address: str) -> bool:
        """Presence lookup ('obtain the status of the buddies')."""
        self.guard(handle)
        if self._session is None or not self._session.active:
            raise NotLoggedInError(f"{self.name!r} is not logged on")
        return self.service.presence.is_online(address)

    def send_instant_message(
        self,
        handle: AutomationHandle,
        to: str,
        body: str,
        subject: str = "",
        correlation: Optional[str] = None,
    ) -> IMMessage:
        """Send one IM; returns the message (with its sequence number)."""
        self.guard(handle)
        if self._session is None or not self._session.active:
            raise NotLoggedInError(f"{self.name!r} is not logged on")
        return self._session.send(to, body, subject=subject, correlation=correlation)

    def next_message(self, handle: AutomationHandle):
        """Event yielding the next incoming IM surfaced by the client."""
        self.guard(handle)
        return self.incoming.get()

    @property
    def pending_incoming(self) -> int:
        """Messages surfaced but not yet consumed by the driving app."""
        return len(self.incoming)


def _surface(
    client: IMClient, session: IMSession, generation: int, message: IMMessage
) -> None:
    """A session's hook: move an arriving IM to the app-visible queue.

    One hook per (session, client-instance), bound with ``partial`` (a
    closure over three names is five objects, this is two).  A message
    arriving while the client is hung is swallowed without being
    surfaced — the UI froze mid-processing.
    """
    if not client.running or client.generation != generation:
        session.hook = None  # client died; message is gone with it
    elif not client.hung:
        client.incoming.put(message)
