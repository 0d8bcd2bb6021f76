"""Home devices and sensors (§2.3).

"Flooding in the basement would generate a 'Basement Water Sensor ON'
alert; garage door sensors running out of battery would trigger a 'Garage
Door Sensor Broken' alert."  Sensors refresh their soft-state variable
periodically (powered by batteries); a dead battery stops the refreshes,
which the SSS timeout contract converts into a broken-sensor event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.aladdin.networks import HomeNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class SensorState(enum.Enum):
    OFF = "OFF"
    ON = "ON"


@dataclass
class SensorReading:
    """Payload a sensor broadcasts on its home-network segment."""

    sensor: str
    state: SensorState
    critical: bool
    is_refresh: bool = False


class Sensor:
    """A binary sensor on a home-network segment.

    ``critical=True`` marks sensors whose state changes must alert the user
    (Aladdin has no content-based subscription — every state change of a
    critical sensor alerts; MAB sub-categorization filters ON vs OFF, §4.2).
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        network: HomeNetwork,
        critical: bool = False,
        refresh_period: Optional[float] = None,
        battery: float = 1.0,
    ):
        self.env = env
        self.name = name
        self.network = network
        self.critical = critical
        self.state = SensorState.OFF
        self.battery = battery
        self.refresh_period = refresh_period
        if refresh_period is not None:
            env.process(self._refresh_loop(), name=f"{name}-refresh")

    def trip(self) -> None:
        """Sensor fires (water detected, door opened...)."""
        self.set_state(SensorState.ON)

    def set_state(self, state: SensorState) -> None:
        if self.battery <= 0:
            return  # a dead sensor cannot transmit
        self.state = state
        self.network.send(
            SensorReading(sensor=self.name, state=state, critical=self.critical)
        )

    def drain_battery(self) -> None:
        """Battery dies: refreshes stop; SSS timeout will flag it broken."""
        self.battery = 0.0

    def _refresh_loop(self):
        while True:
            yield self.env.timeout(self.refresh_period)
            if self.battery <= 0:
                return
            self.network.send(
                SensorReading(
                    sensor=self.name,
                    state=self.state,
                    critical=self.critical,
                    is_refresh=True,
                )
            )


@dataclass
class RemoteCommand:
    """Payload a remote control broadcasts over RF."""

    remote: str
    command: str
    argument: Any = None


class RemoteControl:
    """The kid's RF remote in the §5 scenario."""

    def __init__(self, env: "Environment", name: str, rf_network: HomeNetwork):
        self.env = env
        self.name = name
        self.rf = rf_network
        self.presses = 0

    def press(self, command: str, argument: Any = None) -> RemoteCommand:
        self.presses += 1
        payload = RemoteCommand(remote=self.name, command=command, argument=argument)
        self.rf.send(payload)
        return payload


class SecuritySystem:
    """The home security system armed/disarmed by remote (§5 scenario).

    Its state lives in the SSS as ``security.armed``; this object is the
    physical unit whose siren the state controls.
    """

    def __init__(self, name: str = "security"):
        self.name = name
        self.armed = True
        self.transitions: list[tuple[str, bool]] = []

    def apply(self, armed: bool) -> None:
        if armed != self.armed:
            self.armed = armed
            self.transitions.append(("armed" if armed else "disarmed", armed))
