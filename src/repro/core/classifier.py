"""Alert classification (§4.2).

"MyAlertBuddy first invokes the Alert Classifier to extract category
information from the alert.  In advance, the user customizes the classifier
by specifying the list of accepted alert sources, and how to extract
category-related keywords from the alerts.  For example, the keywords in
alerts from Yahoo! and Alerts.com appear as part of the email sender name,
while the keywords in MSN Mobile alerts and desktop assistant alerts reside
in the email subject field."

The classifier also "helps the user maintain a list of all the subscribed
alert services, and the information about how to unsubscribe them".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.alert import Alert
from repro.errors import AlertRejected, ConfigurationError


@dataclass(frozen=True)
class ExtractionRule:
    """How to pull the category keyword out of one source's alerts.

    ``field`` is where the source embeds the keyword: ``"sender"`` (Yahoo!,
    Alerts.com style) or ``"subject"`` (MSN Mobile, desktop assistant style).
    An optional ``prefix``/``suffix`` pair strips decoration around the
    keyword, e.g. subject ``"[Stocks] MSFT up 3%"`` with prefix ``"["`` and
    suffix ``"]"`` yields keyword ``"Stocks"``.
    """

    source: str
    field: str = "subject"
    prefix: str = ""
    suffix: str = ""

    def __post_init__(self):
        if self.field not in ("sender", "subject", "keyword"):
            raise ConfigurationError(
                f"extraction field must be sender/subject/keyword, "
                f"got {self.field!r}"
            )

    def extract(self, alert: Alert, sender: str) -> str:
        """Extract the keyword, or raise AlertRejected if it cannot be found."""
        if self.field == "keyword":
            # Structured SIMBA-native alerts carry the keyword explicitly.
            return alert.keyword
        text = sender if self.field == "sender" else alert.subject
        start = 0
        if self.prefix:
            index = text.find(self.prefix)
            if index < 0:
                raise AlertRejected(
                    f"alert from {alert.source!r}: keyword prefix "
                    f"{self.prefix!r} not found in {self.field} {text!r}"
                )
            start = index + len(self.prefix)
        end = len(text)
        if self.suffix:
            index = text.find(self.suffix, start)
            if index < 0:
                raise AlertRejected(
                    f"alert from {alert.source!r}: keyword suffix "
                    f"{self.suffix!r} not found in {self.field} {text!r}"
                )
            end = index
        keyword = text[start:end].strip()
        if not keyword:
            raise AlertRejected(
                f"alert from {alert.source!r}: empty keyword in {text!r}"
            )
        return keyword


@dataclass
class ServiceRecord:
    """What MAB remembers about each subscribed alert service.

    ``alerts_seen`` is this classifier's own count: the stored record is
    shared by every classifier copied from one table (a farm profile's), and
    :meth:`AlertClassifier.subscribed_services` fills the count in.
    """

    source: str
    rule: ExtractionRule
    unsubscribe_info: str = ""
    alerts_seen: int = 0


class AlertClassifier:
    """Accepted-source registry plus keyword extraction.

    The accepted-source table is replaced, never changed in place, so
    :meth:`copy` can hand it to many classifiers — every tenant of a farm
    profile — and each one still changes only its own.
    """

    def __init__(self):
        self._services: dict[str, ServiceRecord] = {}
        #: Alerts classified per source by this classifier.
        self._seen: dict[str, int] = {}

    def copy(self) -> "AlertClassifier":
        """A classifier accepting the same sources, with its own counts."""
        twin = AlertClassifier()
        twin._services = self._services
        return twin

    def accept_source(
        self,
        source: str,
        rule: Optional[ExtractionRule] = None,
        unsubscribe_info: str = "",
    ) -> None:
        """Add ``source`` to the accepted list with its extraction rule."""
        if rule is None:
            rule = ExtractionRule(source=source, field="keyword")
        if rule.source != source:
            raise ConfigurationError(
                f"rule source {rule.source!r} does not match {source!r}"
            )
        self._services = {
            **self._services,
            source: ServiceRecord(
                source=source, rule=rule, unsubscribe_info=unsubscribe_info
            ),
        }
        self._seen.pop(source, None)

    def drop_source(self, source: str) -> None:
        if source in self._services:
            self._services = {
                name: record
                for name, record in self._services.items()
                if name != source
            }
        self._seen.pop(source, None)

    def is_accepted(self, source: str) -> bool:
        return source in self._services

    def subscribed_services(self) -> list[ServiceRecord]:
        """The maintained list of services (with unsubscribe info)."""
        return [
            replace(record, alerts_seen=self._seen.get(source, 0))
            for source, record in self._services.items()
        ]

    def classify(self, alert: Alert, sender: str = "") -> str:
        """Return the native keyword for an alert.

        Raises :class:`AlertRejected` for unaccepted sources — receiving
        unwanted alerts is "extremely intrusive" (§3.3), so anything not on
        the accepted list is refused outright.
        """
        source = alert.source
        record = self._services.get(source)
        if record is None:
            raise AlertRejected(f"source {source!r} is not accepted")
        keyword = record.rule.extract(alert, sender)
        seen = self._seen
        seen[source] = seen.get(source, 0) + 1
        return keyword
