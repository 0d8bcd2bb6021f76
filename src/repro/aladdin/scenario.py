"""A fully-wired Aladdin home, reproducing the paper's §5 topology.

Remote control (RF) → RF/powerline transceiver → powerline → powerline
monitor process on the living-room PC → local SSS → phoneline multicast
replication → gateway PC's SSS → Aladdin home server → SIMBA alert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.aladdin.devices import (
    RemoteCommand,
    RemoteControl,
    SecuritySystem,
    Sensor,
    SensorReading,
)
from repro.aladdin.gateway import AladdinGateway
from repro.aladdin.networks import (
    IR_LATENCY,
    PHONELINE_LATENCY,
    POWERLINE_LATENCY,
    RF_LATENCY,
    HomeNetwork,
    Transceiver,
)
from repro.aladdin.replication import ReplicationGroup
from repro.aladdin.sss import SoftStateStore, SSSEventKind, UnknownVariable
from repro.core.endpoint import SimbaEndpoint
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: The powerline monitor polls its interface buffer at this period; on
#: average a signal waits half of it (part of the paper's 11 s chain).
MONITOR_POLL = 5.0


@dataclass
class SensorContract:
    """Refresh contract the monitor uses when creating the SSS variable."""

    refresh_period: float
    max_missed: int


class AladdinHome:
    """Networks, PCs, devices and the gateway of one Aladdin household."""

    def __init__(
        self,
        env: "Environment",
        rngs: RngRegistry,
        endpoint: SimbaEndpoint,
    ):
        self.env = env
        self.rngs = rngs

        # Network segments.
        self.rf = HomeNetwork(env, "rf", RF_LATENCY, rngs.stream("net-rf"))
        self.powerline = HomeNetwork(
            env, "powerline", POWERLINE_LATENCY, rngs.stream("net-powerline")
        )
        self.phoneline = HomeNetwork(
            env, "phoneline", PHONELINE_LATENCY, rngs.stream("net-phoneline")
        )
        # Line-of-sight IR (TV-style remotes) bridged onto the powerline
        # exactly like RF; IR's short range shows up as a higher loss rate.
        self.ir = HomeNetwork(
            env, "ir", IR_LATENCY, rngs.stream("net-ir"), loss_probability=0.05
        )
        self.transceiver = Transceiver("rf-powerline", self.rf, self.powerline)
        self.ir_transceiver = Transceiver("ir-powerline", self.ir, self.powerline)

        # Per-PC SSS instances replicated over the phoneline Ethernet.
        self.livingroom_store = SoftStateStore(env, "livingroom-pc")
        self.bedroom_store = SoftStateStore(env, "bedroom-pc")
        self.gateway_store = SoftStateStore(env, "gateway-pc")
        self.replication = ReplicationGroup(env, self.phoneline)
        for store in (
            self.livingroom_store,
            self.bedroom_store,
            self.gateway_store,
        ):
            store.define_type(AladdinGateway.SENSOR_TYPE)
            store.define_type(AladdinGateway.SECURITY_TYPE)
            self.replication.join(store)

        # The home server on the gateway machine.
        self.gateway = AladdinGateway(
            env,
            "aladdin",
            endpoint,
            self.gateway_store,
            rng=rngs.stream("aladdin-gateway"),
        )

        # Devices.
        self.remote = RemoteControl(env, "keychain-remote", self.rf)
        self.security = SecuritySystem()
        self.sensors: dict[str, Sensor] = {}
        self._contracts: dict[str, SensorContract] = {}

        # The living-room PC: powerline monitor buffering line signals.
        self._powerline_buffer: list[Any] = []
        self.powerline.attach(self._powerline_buffer.append)
        env.process(self._monitor_loop(), name="powerline-monitor")

        # Security state starts armed, owned by the living-room store.
        self.livingroom_store.create(
            "security.armed",
            AladdinGateway.SECURITY_TYPE,
            True,
            refresh_period=3600.0,
            max_missed=10**6,
        )
        # The physical unit follows the replicated state on the gateway.
        self.gateway_store.subscribe(
            self._apply_security, type_name=AladdinGateway.SECURITY_TYPE
        )

    # ------------------------------------------------------------------
    # Building the home
    # ------------------------------------------------------------------

    def add_sensor(
        self,
        name: str,
        critical: bool = False,
        refresh_period: Optional[float] = None,
        max_missed: int = 2,
    ) -> Sensor:
        """Install a sensor on the powerline segment."""
        sensor = Sensor(
            self.env,
            name,
            self.powerline,
            critical=critical,
            refresh_period=refresh_period,
        )
        self.sensors[name] = sensor
        if refresh_period is not None:
            self._contracts[name] = SensorContract(
                refresh_period=refresh_period, max_missed=max_missed
            )
        if critical:
            self.gateway.declare_critical(name)
        return sensor

    # ------------------------------------------------------------------
    # The §5 scenario entry points
    # ------------------------------------------------------------------

    def disarm_via_remote(self) -> RemoteCommand:
        """The kid returns from school and disarms the security system."""
        return self.remote.press("disarm")

    def arm_via_remote(self) -> RemoteCommand:
        return self.remote.press("arm")

    # ------------------------------------------------------------------
    # The powerline monitor process (living-room PC)
    # ------------------------------------------------------------------

    def _monitor_loop(self):
        while True:
            yield self.env.timeout(MONITOR_POLL)
            buffered, self._powerline_buffer[:] = (
                list(self._powerline_buffer),
                [],
            )
            for payload in buffered:
                self._apply_signal(payload)

    def _apply_signal(self, payload: Any) -> None:
        store = self.livingroom_store
        if isinstance(payload, SensorReading):
            contract = self._contracts.get(
                payload.sensor, SensorContract(refresh_period=60.0, max_missed=2)
            )
            try:
                store.variable(payload.sensor)
            except UnknownVariable:
                store.create(
                    payload.sensor,
                    AladdinGateway.SENSOR_TYPE,
                    payload.state.value,
                    refresh_period=contract.refresh_period,
                    max_missed=contract.max_missed,
                )
                return
            if payload.is_refresh:
                store.refresh(payload.sensor)
            else:
                store.write(payload.sensor, payload.state.value)
        elif isinstance(payload, RemoteCommand):
            if payload.command in ("arm", "disarm"):
                store.write("security.armed", payload.command == "arm")

    def _apply_security(self, event) -> None:
        if event.kind is SSSEventKind.CHANGED:
            self.security.apply(bool(event.value))
