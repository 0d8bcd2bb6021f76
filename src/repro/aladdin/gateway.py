"""The Aladdin home gateway server (§2.3, §5).

"The SSS server running on the home gateway machine fired an event to the
Aladdin home server, which then sent out an IM alert."  The gateway watches
the gateway-side SSS replica and converts events into SIMBA alerts:

- state changes of *critical* sensors → "``<name>`` Sensor ON/OFF" alerts;
- variable timeouts (missed refreshes = dead battery / dead device) →
  "``<name>`` Sensor Broken" alerts;
- security-state changes → "Security Disarmed/Armed" alerts.

Aladdin itself supports no content-based subscription — every critical
event alerts, and MyAlertBuddy's sub-categorization decides urgency (§4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.aladdin.sss import SoftStateStore, SSSEvent, SSSEventKind
from repro.core.alert import AlertSeverity
from repro.core.delivery_modes import DeliveryMode
from repro.core.endpoint import SimbaEndpoint
from repro.net.channel import LatencyModel
from repro.sources.base import AlertSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

import numpy as np

#: Gateway event dispatch + alert assembly on the home server.
GATEWAY_PROCESSING = LatencyModel(median=1.5, sigma=0.25, low=0.3, high=5.0)


class AladdinGateway(AlertSource):
    """Home server: SSS events in, SIMBA alerts out."""

    SENSOR_TYPE = "sensor"
    SECURITY_TYPE = "security"

    def __init__(
        self,
        env: "Environment",
        name: str,
        endpoint: SimbaEndpoint,
        store: SoftStateStore,
        rng: np.random.Generator,
        mode: Optional[DeliveryMode] = None,
    ):
        super().__init__(env, name, endpoint, mode=mode)
        self.store = store
        self.rng = rng
        #: Sensor names declared critical (set by the scenario builder).
        self.critical_sensors: set[str] = set()
        store.subscribe(self._on_event, type_name=self.SENSOR_TYPE)
        store.subscribe(self._on_event, type_name=self.SECURITY_TYPE)

    def declare_critical(self, sensor_name: str) -> None:
        self.critical_sensors.add(sensor_name)

    # ------------------------------------------------------------------
    # SSS event handling
    # ------------------------------------------------------------------

    def _on_event(self, event: SSSEvent) -> None:
        if event.kind is SSSEventKind.CHANGED:
            if event.type_name == self.SECURITY_TYPE:
                armed = bool(event.value)
                self._alert(
                    keyword="Security " + ("Armed" if armed else "Disarmed"),
                    subject=f"Security system {'armed' if armed else 'disarmed'}",
                    body=f"security state changed to {event.value!r}",
                    severity=AlertSeverity.IMPORTANT,
                )
            elif event.variable in self.critical_sensors:
                state = str(event.value)
                self._alert(
                    keyword=f"Sensor {state}",
                    subject=f"{event.variable} Sensor {state}",
                    body=f"critical sensor {event.variable} is now {state}",
                    severity=AlertSeverity.CRITICAL
                    if state == "ON"
                    else AlertSeverity.ROUTINE,
                )
        elif event.kind is SSSEventKind.TIMED_OUT:
            if event.type_name == self.SENSOR_TYPE:
                self._alert(
                    keyword="Sensor Broken",
                    subject=f"{event.variable} Sensor Broken",
                    body=(
                        f"sensor {event.variable} missed its refreshes "
                        "(battery dead or device failed)"
                    ),
                    severity=AlertSeverity.IMPORTANT,
                )

    def _alert(
        self, keyword: str, subject: str, body: str, severity: AlertSeverity
    ) -> None:
        self.env.process(
            self._alert_after_processing(keyword, subject, body, severity),
            name=f"{self.name}-alert",
        )

    def _alert_after_processing(self, keyword, subject, body, severity):
        yield self.env.timeout(GATEWAY_PROCESSING.draw(self.rng))
        self.emit(keyword, subject, body, severity)
