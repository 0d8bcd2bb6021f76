"""Portal-style information alert services (§1, §2.1).

Two flavours:

- :class:`PortalAlertService` — a SIMBA-integrated portal (Yahoo!-like) that
  delivers through the SIMBA library (IM-ack-then-email to MAB).
- :class:`LegacyEmailAlertService` — a pre-SIMBA service that only sends
  plain emails, with the category keyword embedded in the subject line the
  way MSN Mobile did ("[Stocks] MSFT up 3%").  MAB treats it "just like any
  other regular human user" sending email (§3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.alert import Alert, AlertSeverity
from repro.net.email import EmailService
from repro.sources.base import AlertSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class PortalAlertService(AlertSource):
    """A general portal offering many alert categories.

    ``publish`` is the portal's internal event: something matched a user's
    subscription, generating one alert per subscribed MAB.
    """

    #: The categories the analyzed commercial portal offered (§1, §3.3).
    WELL_KNOWN_KEYWORDS = (
        "Stocks",
        "Financial news",
        "Earnings reports",
        "Weather",
        "Sports",
        "Lottery",
        "Career",
        "Real estate",
        "News",
    )

    def publish(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
    ):
        """Emit one alert in ``keyword`` to every subscribed MAB."""
        return self.emit(keyword, subject, body, severity)


class LegacyEmailAlertService:
    """An email-only alert service that knows nothing about SIMBA.

    It needs no SIMBA endpoint — just an SMTP submission.  The keyword rides
    in the subject as ``[Keyword] ...`` so MAB's classifier can extract it
    with a subject rule.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        email_service: EmailService,
        sender_address: Optional[str] = None,
        keyword_in_sender: bool = False,
    ):
        self.env = env
        self.name = name
        self.email_service = email_service
        self.sender_address = sender_address or f"{name}@legacy-mail"
        #: Yahoo!/Alerts.com style: the keyword rides in the sender name,
        #: e.g. ``"yahoo (Stocks) <yahoo@legacy-mail>"`` (§4.2).  Otherwise
        #: MSN-Mobile style: ``[Keyword]`` in the subject.
        self.keyword_in_sender = keyword_in_sender
        self.targets: list[str] = []

    def add_target(self, email_address: str) -> None:
        """Subscribe a recipient address (a MAB email address, usually)."""
        self.targets.append(email_address)

    def publish(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
    ) -> Alert:
        """Send one alert as a plain email to every target."""
        if self.keyword_in_sender:
            sender = f"{self.name} ({keyword}) <{self.sender_address}>"
            wire_subject = subject
        else:
            sender = self.sender_address
            wire_subject = f"[{keyword}] {subject}"
        alert = Alert(
            source=self.name,
            keyword=keyword,
            subject=wire_subject,
            body=body,
            created_at=self.env.now,
            severity=severity,
            keyword_field="sender" if self.keyword_in_sender else "subject",
        )
        for target in self.targets:
            self.email_service.send(
                sender,
                target,
                alert.subject,
                alert.encode(),
                correlation=alert.alert_id,
            )
        return alert
