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

from typing import TYPE_CHECKING, Optional

from repro.core.addresses import AddressBook
from repro.core.admission import AdmissionConfig, build_controller
from repro.core.alert import Alert, AlertSeverity
from repro.core.delivery_modes import DeliveryMode, im_ack_then_email
from repro.core.endpoint import SimbaEndpoint
from repro.core.pipeline import SourceDeliveryPipeline
from repro.core.router import DeliveryOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment
    from repro.sim.process import Process


class AlertSource:
    """Base class for everything that generates alerts.

    Delivery itself (optional processing delay → mode execution → outcome
    bookkeeping) is the shared
    :class:`~repro.core.pipeline.SourceDeliveryPipeline`; this class adds
    alert construction and the target registry.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        endpoint: SimbaEndpoint,
        mode: Optional[DeliveryMode] = None,
        admission: Optional[AdmissionConfig] = None,
    ):
        self.env = env
        self.name = name
        self.endpoint = endpoint
        self.pipeline = SourceDeliveryPipeline(
            env, endpoint, mode if mode is not None else im_ack_then_email()
        )
        #: Source-side traffic hardening: per-channel token buckets applied
        #: at the submission layer of this source's delivery engine (a
        #: bursty producer is throttled at *its* provider, not the MAB's).
        self.admission = build_controller(admission, name)
        if self.admission is not None:
            endpoint.engine.admission = self.admission
        self.targets: list[AddressBook] = []
        #: Owner name → book, for O(1) per-recipient emission at farm scale.
        self.targets_by_owner: dict[str, AddressBook] = {}
        self.emitted: list[Alert] = []

    @property
    def mode(self) -> DeliveryMode:
        return self.pipeline.mode

    @mode.setter
    def mode(self, mode: DeliveryMode) -> None:
        self.pipeline.mode = mode

    @property
    def outcomes(self) -> list[DeliveryOutcome]:
        return self.pipeline.outcomes

    def add_target(self, book: AddressBook) -> None:
        """Subscribe one MyAlertBuddy (by its source-facing address book)."""
        self.targets.append(book)
        self.targets_by_owner[book.owner] = book

    def target_for(self, owner: str) -> AddressBook:
        """O(1) lookup of one subscribed book by its owner name."""
        return self.targets_by_owner[owner]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def make_alert(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
        keyword_field: str = "keyword",
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
            keyword_field=keyword_field,
            **kwargs,
        )

    def emit(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
        alert_id: Optional[str] = None,
    ) -> tuple[Alert, list["Process"]]:
        """Create an alert and start delivering it to every target.

        Returns the alert and the per-target delivery processes (each
        resolves to a :class:`DeliveryOutcome`).
        """
        alert = self.make_alert(keyword, subject, body, severity, alert_id=alert_id)
        self.emitted.append(alert)
        processes = [
            self.env.process(
                self.deliver(alert, book),
                name=f"{self.name}-deliver-{alert.alert_id}",
            )
            for book in self.targets
        ]
        return alert, processes

    def emit_to(
        self,
        target: "AddressBook | str",
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
        alert_id: Optional[str] = None,
    ) -> tuple[Alert, "Process"]:
        """Create an alert and deliver it to one recipient only.

        The farm-scale path: a portal alert addresses one recipient, so
        emission must be O(1) in the number of subscribed MABs, not a
        broadcast over ``targets``.  ``target`` is an address book or the
        owner name of a registered one.
        """
        book = target if isinstance(target, AddressBook) else self.target_for(target)
        alert = self.make_alert(keyword, subject, body, severity, alert_id=alert_id)
        self.emitted.append(alert)
        process = self.env.process(
            self.deliver(alert, book),
            name=f"{self.name}-deliver-{alert.alert_id}",
        )
        return alert, process

    def emit_and_wait(
        self,
        keyword: str,
        subject: str,
        body: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
    ):
        """Generator form of :meth:`emit`: wait for all deliveries."""
        alert, processes = self.emit(keyword, subject, body, severity)
        results = yield self.env.all_of(processes)
        return alert, list(results.values())

    def deliver(self, alert: Alert, book: AddressBook):
        """Deliver ``alert`` to ``book`` (generator returning the outcome).

        The public single-delivery entry point — experiments that replay a
        log against specific recipients drive this directly.
        """
        outcome = yield from self.pipeline.send(alert, book)
        return outcome

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    def delivery_ratio(self) -> float:
        if not self.outcomes:
            return float("nan")
        return sum(1 for o in self.outcomes if o.delivered) / len(self.outcomes)

    def fallback_ratio(self) -> float:
        """Fraction of successful deliveries that needed a backup block."""
        delivered = [o for o in self.outcomes if o.delivered]
        if not delivered:
            return float("nan")
        return sum(1 for o in delivered if o.delivered_via != 0) / len(delivered)
