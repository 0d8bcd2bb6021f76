"""Alerts: the unit of information SIMBA delivers.

"Alerts refer to the delivery of user-subscribed information to the user"
(abstract).  An alert is born at a source with a *native keyword* (the
category-bearing token the source embeds in its sender name or subject —
§4.2 "Alert classification"), flows to MyAlertBuddy, is re-classified into a
*personal category*, and is finally routed to user addresses.

An alert is written once and read once.  Its wire form is built on the
first :meth:`Alert.encode` and kept; an alert decoded from a text carries
that text, so a hop that logs or forwards what it received passes the
received ``str`` on unchanged.  A parse is remembered in a small memo keyed
by the text, which ``encode`` fills too: the user's decode of what a
source encoded is a lookup (DESIGN §5b).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


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


_WIRE_PREFIX = "SIMBA-ALERT/1"

#: How many wire texts the parse memo holds; the oldest goes first.
PARSE_MEMO_SIZE = 4096

#: Wire text -> the :class:`Alert` constructor arguments it parses to.  A
#: text's parse never changes, so a hit is the cold parse, whoever filled it.
_parse_memo: dict[str, tuple] = {}


def _remember(text: str, args: tuple) -> None:
    if len(_parse_memo) >= PARSE_MEMO_SIZE:
        del _parse_memo[next(iter(_parse_memo))]
    _parse_memo[text] = args


def _render(alert: "Alert") -> str:
    """Build ``alert``'s wire text and remember what it parses to."""
    escape = Alert._escape
    created_at = float(alert.created_at)
    text = (
        f"{_WIRE_PREFIX}\n"
        f"id={escape(alert.alert_id)}\n"
        f"source={escape(alert.source)}\n"
        f"keyword={escape(alert.keyword)}\n"
        f"keyword_field={escape(alert.keyword_field)}\n"
        f"severity={alert.severity.value}\n"
        f"created_at={created_at!r}\n"
        f"subject={escape(alert.subject)}\n\n{alert.body}"
    )
    _remember(
        text,
        (alert.source, alert.keyword, alert.subject, alert.body, created_at,
         alert.severity, alert.keyword_field, alert.alert_id),
    )
    return text


def _parse(text: str) -> tuple:
    """The cold parse: constructor arguments of the alert ``text`` encodes."""
    if not text.startswith(_WIRE_PREFIX):
        raise ValueError("not a SIMBA alert payload")
    head, _sep, body = text.partition("\n\n")
    fields: dict[str, str] = {}
    unescape = Alert._unescape
    for line in head.split("\n")[1:]:
        key, _eq, value = line.partition("=")
        fields[key] = unescape(value)
    try:
        return (
            fields["source"],
            fields["keyword"],
            fields["subject"],
            body,
            float(fields["created_at"]),
            AlertSeverity(fields["severity"]),
            fields["keyword_field"],
            fields["id"],
        )
    except KeyError as exc:
        raise ValueError(f"alert payload missing field {exc}") from exc


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
    #: The wire text once built or received.  Not a constructor argument,
    #: so a ``dataclasses.replace`` copy builds its own.
    _wire: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Wire encoding
    # ------------------------------------------------------------------
    # Alerts travel between SIMBA nodes as plain message bodies; the fields
    # below round-trip the ones MAB needs for classification and duplicate
    # detection.  A versioned key=value header block keeps this both simple
    # and forward-extensible.

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
        """Serialize for transport as an IM/email body (built once)."""
        wire = self._wire
        if wire is None:
            wire = self._wire = _render(self)
        return wire

    @classmethod
    def decode(cls, text: str) -> "Alert":
        """Parse an alert from its wire form.  Raises ValueError if not one.

        The alert carries ``text``: its :meth:`encode` returns it as is.
        """
        args = _parse_memo.get(text)
        if args is None:
            args = _parse(text)
            _remember(text, args)
        alert = cls(*args)
        alert._wire = text
        return alert

    @classmethod
    def is_alert_payload(cls, text: str) -> bool:
        return text.startswith(_WIRE_PREFIX)
