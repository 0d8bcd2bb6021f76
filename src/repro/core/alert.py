"""Alerts: the unit of information SIMBA delivers.

"Alerts refer to the delivery of user-subscribed information to the user"
(abstract).  An alert is born at a source with a *native keyword* (the
category-bearing token the source embeds in its sender name or subject —
§4.2 "Alert classification"), flows to MyAlertBuddy, is re-classified into a
*personal category*, and is finally routed to user addresses.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional


class AlertSeverity(enum.Enum):
    """Coarse importance used by sources and workload generators.

    SIMBA itself routes on *categories*, not severities — severity only
    determines which category a source emits under (e.g. Aladdin declares
    some sensors "critical") and lets benches report per-class results.
    """

    ROUTINE = "routine"
    IMPORTANT = "important"
    CRITICAL = "critical"


_alert_counter = itertools.count(1)


def _next_alert_id() -> str:
    return f"alert-{next(_alert_counter)}"


@dataclass(slots=True)
class Alert:
    """One alert instance.

    ``alert_id`` plus ``created_at`` is the duplicate-detection key the paper
    prescribes ("we use timestamps to allow the user to detect and discard
    duplicates", §4.2.1).
    """

    source: str
    keyword: str
    subject: str
    body: str
    created_at: float
    severity: AlertSeverity = AlertSeverity.ROUTINE
    #: Where the keyword is embedded when the alert travels as email —
    #: some services put it in the sender name, others in the subject (§4.2).
    keyword_field: str = "subject"
    alert_id: str = field(default_factory=_next_alert_id)
    #: Set by MAB's aggregator once the alert is classified.
    personal_category: Optional[str] = None

    def with_category(self, category: str) -> "Alert":
        """Copy of this alert tagged with its personal category."""
        return replace(self, personal_category=category)

    # ------------------------------------------------------------------
    # Wire encoding
    # ------------------------------------------------------------------
    # Alerts travel between SIMBA nodes as plain message bodies; the fields
    # below round-trip the ones MAB needs for classification and duplicate
    # detection.  A versioned key=value header block keeps this both simple
    # and forward-extensible.

    _WIRE_PREFIX: ClassVar[str] = "SIMBA-ALERT/1"

    @staticmethod
    def _escape(value: str) -> str:
        """Make a header value newline-safe (body text needs no escaping)."""
        return (
            value.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
        )

    @staticmethod
    def _unescape(value: str) -> str:
        if "\\" not in value:
            return value
        out: list[str] = []
        it = iter(value)
        for char in it:
            if char != "\\":
                out.append(char)
                continue
            escaped = next(it, "")
            out.append({"n": "\n", "r": "\r", "\\": "\\"}.get(escaped, escaped))
        return "".join(out)

    def encode(self) -> str:
        """Serialize for transport as an IM/email body."""
        header = "\n".join(
            [
                self._WIRE_PREFIX,
                f"id={self._escape(self.alert_id)}",
                f"source={self._escape(self.source)}",
                f"keyword={self._escape(self.keyword)}",
                f"keyword_field={self.keyword_field}",
                f"severity={self.severity.value}",
                f"created_at={self.created_at!r}",
                f"subject={self._escape(self.subject)}",
            ]
        )
        return f"{header}\n\n{self.body}"

    @classmethod
    def decode(cls, text: str) -> "Alert":
        """Parse an alert from its wire form.  Raises ValueError if not one."""
        if not text.startswith(cls._WIRE_PREFIX):
            raise ValueError("not a SIMBA alert payload")
        head, _sep, body = text.partition("\n\n")
        fields: dict[str, str] = {}
        for line in head.split("\n")[1:]:
            key, _eq, value = line.partition("=")
            fields[key] = cls._unescape(value)
        try:
            return cls(
                source=fields["source"],
                keyword=fields["keyword"],
                subject=fields["subject"],
                body=body,
                created_at=float(fields["created_at"]),
                severity=AlertSeverity(fields["severity"]),
                keyword_field=fields["keyword_field"],
                alert_id=fields["id"],
            )
        except KeyError as exc:
            raise ValueError(f"alert payload missing field {exc}") from exc

    @classmethod
    def is_alert_payload(cls, text: str) -> bool:
        return text.startswith(cls._WIRE_PREFIX)
