"""Common alert-source machinery.

"We modified the information alert proxy, web store alert proxy, Aladdin
home gateway server, WISH alert server, and the desktop assistant to use the
'IM-with-acknowledgement followed by email' delivery mode of the SIMBA
library to deliver alerts to MyAlertBuddy" (§4.2).

An :class:`AlertSource` owns a :class:`~repro.core.endpoint.SimbaEndpoint`
(its own IM/email identities and client software) and a list of *target
books* — the source-facing address books of the MyAlertBuddies subscribed to
it.  Only MAB addresses appear in those books; the source never learns a
user address (§3.3 privacy).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.core.addresses import AddressBook
from repro.core.alert import Alert, AlertSeverity
from repro.core.delivery_modes import DeliveryMode, im_ack_then_email
from repro.core.endpoint import SimbaEndpoint
from repro.core.router import DeliveryRun

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.sim.kernel import Environment


class AlertSource:
    """Base class for everything that generates alerts.

    Delivery is one delivery-mode execution through the source's endpoint
    per (alert, book).  Its :class:`DeliveryOutcome` belongs to the
    :class:`DeliveryRun` that :meth:`deliver` returns, and the alert is the
    one :meth:`emit` and :meth:`emit_to` return: the source keeps no history
    of either (what makes an alert durable is the buddy's pessimistic log,
    §4.2.1).  ``targets`` are the books :meth:`emit` broadcasts to;
    :meth:`emit_to` addresses one book it is handed.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        endpoint: SimbaEndpoint,
        mode: Optional[DeliveryMode] = None,
    ):
        self.env = env
        self.name = name
        self.endpoint = endpoint
        self.mode = mode if mode is not None else im_ack_then_email()
        self.targets: list[AddressBook] = []

    def add_target(self, book: AddressBook) -> None:
        """Subscribe one MyAlertBuddy (by its source-facing address book)."""
        self.targets.append(book)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def make_alert(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
        alert_id: Optional[str] = None,
    ) -> Alert:
        # An explicit alert_id keeps ids independent of the process-global
        # counter — required wherever ids must match across processes (the
        # sharded farm's layout-invariance depends on it).
        kwargs = {} if alert_id is None else {"alert_id": alert_id}
        return Alert(
            source=self.name,
            keyword=keyword,
            subject=subject,
            body=body,
            created_at=self.env.now,
            severity=severity,
            keyword_field="keyword",
            **kwargs,
        )

    def emit(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
    ) -> tuple[Alert, list[DeliveryRun]]:
        """Create an alert and start delivering it to every target.

        Returns the alert and the per-target delivery runs (each ends with
        a :class:`DeliveryOutcome`).
        """
        alert = self.make_alert(keyword, subject, body, severity)
        return alert, [self.deliver(alert, book) for book in self.targets]

    def emit_to(
        self,
        book: AddressBook,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
        alert_id: Optional[str] = None,
    ) -> tuple[Alert, DeliveryRun]:
        """Create an alert and deliver it to one recipient only.

        The farm-scale path: a portal alert addresses one recipient, so
        emission must be O(1) in the number of subscribed MABs, not a
        broadcast over ``targets``.
        """
        alert = self.make_alert(keyword, subject, body, severity, alert_id=alert_id)
        return alert, self.deliver(alert, book)

    def deliver(self, alert: Alert, book: AddressBook) -> DeliveryRun:
        """Deliver ``alert`` to ``book``: the run starts from a zero-delay
        kick and ends with the :class:`DeliveryOutcome`, which only the
        returned run holds.

        The public single-delivery entry point — experiments that replay a
        log against specific recipients drive this directly.
        """
        run = DeliveryRun(
            self.endpoint.engine, self.mode, book, alert.subject,
            alert.encode(), alert.alert_id,
        )
        kick = self.env.event()
        kick.callbacks.append(self._start)
        kick.succeed(run)
        return run

    def _start(self, kick: "Event") -> None:
        run = kick._value
        tracer = self.env.tracer
        if tracer is None:
            run.start()
            return
        # Root of the alert's causal trace: everything downstream —
        # channel transit, receive, pipeline trip, per-user delivery —
        # parents (transitively) under this span.
        span = tracer.begin(
            run.correlation,
            "source.deliver",
            subject=run.subject,
            endpoint=self.endpoint.name,
        )
        # First, so the span has ended before any waiter on the run resumes.
        run.callbacks.insert(0, partial(self._delivered, span))
        run.start(span.span_id)

    def _delivered(self, span, run: DeliveryRun) -> None:
        self.env.tracer.end(
            span, "delivered" if run._value.delivered else "failed"
        )
