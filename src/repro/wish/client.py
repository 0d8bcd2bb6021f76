"""The WISH client on the user's handheld device (§2.4).

Periodically measures the signal strengths of audible APs at the device's
current physical position, picks the strongest as "the AP the device is
connected to", and ships the report to the WISH server over the wireless
link.  Movement is scripted with waypoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.channel import LatencyModel
from repro.wish.floorplan import FloorPlan, Point
from repro.wish.radio import PathLossModel
from repro.wish.server import ClientReport, WISHServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

#: One hop over the 802.11 network to the server.
WIRELESS_LATENCY = LatencyModel(median=0.3, sigma=0.3, low=0.05, high=2.0)

#: Seconds between location reports.
REPORT_PERIOD = 3.0


class WISHClient:
    """The tracked user's device."""

    def __init__(
        self,
        env: "Environment",
        user: str,
        plan: FloorPlan,
        radio: PathLossModel,
        server: WISHServer,
        rng: np.random.Generator,
        position: Optional[Point] = None,
    ):
        self.env = env
        self.user = user
        self.plan = plan
        self.radio = radio
        self.server = server
        self.rng = rng
        self.position: Optional[Point] = position
        self.activity = "available"
        self.reports_sent = 0
        self._running = False

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------

    def set_position(self, position: Optional[Point]) -> None:
        """Teleport (None = left the building: no APs audible)."""
        self.position = position

    def walk(self, waypoints: list[tuple[float, Optional[Point]]]) -> None:
        """Script a movement: [(at_time, position), ...]."""

        def mover(env):
            for at, position in sorted(waypoints, key=lambda w: w[0]):
                if at > env.now:
                    yield env.timeout(at - env.now)
                self.set_position(position)

        self.env.process(mover(self.env), name=f"wish-walk-{self.user}")

    # ------------------------------------------------------------------
    # Measurement + reporting
    # ------------------------------------------------------------------

    def measure(self) -> dict[str, float]:
        """One scan: noisy strengths of every audible AP."""
        if self.position is None:
            return {}
        strengths = {}
        for ap in self.plan.access_points:
            power = self.radio.measure(ap.distance_to(self.position), self.rng)
            if power is not None:
                strengths[ap.ap_id] = power
        return strengths

    def send_report_now(self) -> ClientReport:
        """Measure and ship one report (also used by the periodic loop)."""
        strengths = self.measure()
        connected = max(strengths, key=strengths.get) if strengths else None
        report = ClientReport(
            user=self.user,
            activity=self.activity,
            connected_ap=connected,
            strengths=strengths,
            sent_at=self.env.now,
        )
        self.reports_sent += 1
        self.env.process(self._transmit(report), name=f"wish-tx-{self.user}")
        return report

    def _transmit(self, report: ClientReport):
        yield self.env.timeout(WIRELESS_LATENCY.draw(self.rng))
        self.server.submit_report(report)

    def start(self) -> None:
        """Begin periodic reporting (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._report_loop(), name=f"wish-client-{self.user}")

    def stop(self) -> None:
        self._running = False

    def _report_loop(self):
        while self._running:
            yield self.env.timeout(REPORT_PERIOD)
            if self._running:
                self.send_report_now()
