"""Simulated GUI email client (think Outlook driven via automation).

Unlike IM, the mailbox lives on the server, so a client crash or restart
loses nothing that was not already being processed — but the client itself
exhibits the same automation failure surface (hangs, stale pointers, modal
dialogs) as the IM client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.clients.automation import AutomationHandle, ClientSoftware
from repro.clients.screen import Screen
from repro.net.email import EmailMessage, EmailService, Mailbox
from repro.sim.stores import Reader

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class EmailClient(ClientSoftware):
    """GUI email client bound to one mailbox address."""

    def __init__(
        self,
        env: "Environment",
        screen: Screen,
        service: EmailService,
        address: str,
        name: str = "email-client",
    ):
        super().__init__(env, screen, name)
        self.service = service
        self.address = address

    @property
    def _mailbox(self) -> Mailbox:
        return self.service.mailbox(self.address)

    # ------------------------------------------------------------------
    # Automation interface
    # ------------------------------------------------------------------

    def send_mail(
        self,
        handle: AutomationHandle,
        to: str,
        subject: str,
        body: str,
        importance: str = "normal",
        correlation: Optional[str] = None,
    ) -> EmailMessage:
        """Submit an email through the client."""
        self.guard(handle)
        return self.service.send(
            self.address,
            to,
            subject,
            body,
            correlation=correlation,
            importance=importance,
        )

    def unread_count(self, handle: AutomationHandle) -> int:
        """App-specific sanity probe: size of the unprocessed-email backlog."""
        self.guard(handle)
        return self._mailbox.unread_count

    def peek_unread(self, handle: AutomationHandle) -> list[EmailMessage]:
        """Non-destructive view of unread mail (backlog invariant checks)."""
        self.guard(handle)
        return self._mailbox.peek_unread()

    def fetch_next(self, handle: AutomationHandle):
        """Event yielding the next unread email (marks it read)."""
        self.guard(handle)
        return self._mailbox.receive()

    def read_next(self, handle: AutomationHandle, reader: Reader) -> None:
        """:meth:`fetch_next` for a reader of the mailbox's unread queue:
        arm ``reader`` for the next unread email."""
        self.guard(handle)
        reader.read()

    def server_reachable(self, handle: AutomationHandle) -> bool:
        """App-specific sanity probe: is the mail relay up?"""
        self.guard(handle)
        return self.service.available
