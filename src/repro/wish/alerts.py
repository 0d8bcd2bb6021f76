"""The WISH location alert service (§2.4).

"A user of the alert service specifies the name of the person to track and
the address for alert delivery.  An alert can be generated when the tracked
person enters a building, moves to a different part of the building, and/or
leaves the building."

Privacy (§2.4: dissemination is "solely with the user"): a tracking request
is only honoured if the tracked person has authorized the requester.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.aladdin.sss import SSSEvent, SSSEventKind
from repro.core.addresses import AddressBook
from repro.core.alert import AlertSeverity
from repro.core.endpoint import SimbaEndpoint
from repro.errors import SimbaError
from repro.sources.base import AlertSource
from repro.wish.floorplan import FloorPlan
from repro.wish.server import USER_TYPE, WISHServer

from typing import TYPE_CHECKING, Optional

from repro.net.channel import LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: Web-service overhead: matching the transition against subscriptions and
#: assembling the alert.
SERVICE_PROCESSING = LatencyModel(median=0.6, sigma=0.25, low=0.1, high=3.0)


class NotAuthorized(SimbaError):
    """The tracked person has not authorized this requester."""


class LocationTrigger(enum.Enum):
    ENTER_BUILDING = "enter_building"
    LEAVE_BUILDING = "leave_building"
    MOVE_REGION = "move_region"


@dataclass
class TrackingRequest:
    requester: str
    tracked: str
    triggers: frozenset[LocationTrigger]
    target_book: AddressBook
    alerts_sent: int = 0


@dataclass
class _TrackState:
    last_region: Optional[str] = None
    requests: list[TrackingRequest] = field(default_factory=list)


class WISHAlertService(AlertSource):
    """Web front end turning location transitions into SIMBA alerts."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        endpoint: SimbaEndpoint,
        server: WISHServer,
        mode=None,
    ):
        super().__init__(env, name, endpoint, mode=mode)
        self.server = server
        self.plan = server.plan
        #: tracked person → set of requesters they allow.
        self._authorized: dict[str, set[str]] = {}
        self._tracks: dict[str, _TrackState] = {}
        #: alert_id → time the triggering client report left the laptop
        #: (the §5 end-to-end anchor for the 5 s measurement).
        self.provenance: dict[str, float] = {}
        server.store.subscribe(self._on_store_event, type_name=USER_TYPE)

    # ------------------------------------------------------------------
    # Authorization + requests
    # ------------------------------------------------------------------

    def authorize(self, tracked: str, requester: str) -> None:
        """The tracked person grants ``requester`` visibility."""
        self._authorized.setdefault(tracked, set()).add(requester)

    def revoke(self, tracked: str, requester: str) -> None:
        self._authorized.get(tracked, set()).discard(requester)

    def request_tracking(
        self,
        requester: str,
        tracked: str,
        triggers: set[LocationTrigger],
        target_book: AddressBook,
    ) -> TrackingRequest:
        """Enter a location-alert subscription (the Web form of §2.4)."""
        if requester not in self._authorized.get(tracked, set()):
            raise NotAuthorized(
                f"{tracked!r} has not authorized {requester!r} to track them"
            )
        request = TrackingRequest(
            requester=requester,
            tracked=tracked,
            triggers=frozenset(triggers),
            target_book=target_book,
        )
        self._tracks.setdefault(tracked, _TrackState()).requests.append(request)
        return request

    def _start(self, kick) -> None:
        """Every delivery pays the web service's processing delay before
        the delivery mode runs."""
        delay = self.env.timeout(
            SERVICE_PROCESSING.draw(self.server.rng), kick._value
        )
        delay.callbacks.append(super()._start)

    # ------------------------------------------------------------------
    # Store events → alerts
    # ------------------------------------------------------------------

    def _on_store_event(self, event: SSSEvent) -> None:
        if event.kind not in (SSSEventKind.CHANGED, SSSEventKind.CREATED):
            return
        user = event.variable.removeprefix("wish.user.")
        state = self._tracks.get(user)
        if state is None:
            return
        region = event.value["region"]
        previous = state.last_region
        state.last_region = region
        if previous is None or previous == region:
            return
        trigger = self._classify_transition(previous, region)
        confidence = event.value.get("confidence", 0.0)
        sent_at = event.value.get("report_sent_at", event.at)
        for request in state.requests:
            if trigger in request.triggers:
                request.alerts_sent += 1
                self._emit_to(
                    request,
                    trigger,
                    f"{user}: {previous} -> {region} "
                    f"(confidence {confidence}%)",
                    report_sent_at=sent_at,
                )

    def _classify_transition(self, previous: str, region: str) -> LocationTrigger:
        if previous == FloorPlan.OUTSIDE:
            return LocationTrigger.ENTER_BUILDING
        if region == FloorPlan.OUTSIDE:
            return LocationTrigger.LEAVE_BUILDING
        return LocationTrigger.MOVE_REGION

    def _emit_to(
        self,
        request: TrackingRequest,
        trigger: LocationTrigger,
        body: str,
        report_sent_at: Optional[float] = None,
    ) -> None:
        alert = self.make_alert(
            keyword=f"Location {trigger.value}",
            subject=f"{request.tracked} location update",
            body=body,
            severity=AlertSeverity.ROUTINE,
        )
        if report_sent_at is not None:
            self.provenance[alert.alert_id] = report_sent_at
        self.deliver(alert, request.target_book)
