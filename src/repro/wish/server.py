"""The WISH location server (§2.4, §5).

Maintains the propagation model, the AP location table, and a fingerprint
lattice built from the noiseless radio model.  For each client report it
estimates the position as the centroid of the k nearest lattice points in
signal space, attaches a confidence percentage, and updates the user's
soft-state variable — exactly the §5 pipeline ("The server updates the
Soft-State Store, in which each user is represented by a soft-state
variable").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.aladdin.sss import SoftStateStore, UnknownVariable
from repro.net.channel import LatencyModel
from repro.wish.floorplan import FloorPlan, Point
from repro.wish.radio import PathLossModel, signal_distance

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

import numpy as np

USER_TYPE = "wish.user"

#: Server-side location computation + store update.
SERVER_PROCESSING = LatencyModel(median=1.2, sigma=0.25, low=0.2, high=5.0)

#: Soft-state lease of a tracked user's location variable: refreshed by
#: every report, expired after this many missed refresh periods.
USER_REFRESH_PERIOD = 10.0
USER_MAX_MISSED = 3


@dataclass
class ClientReport:
    """What the WISH client sends: who, activity, AP id, signal strengths."""

    user: str
    activity: str
    connected_ap: Optional[str]
    strengths: dict[str, float]
    sent_at: float


@dataclass
class LocationEstimate:
    """Server output for one report."""

    user: str
    activity: str
    position: Optional[Point]
    region: str
    confidence: float
    at: float
    #: When the client sent the triggering report (end-to-end anchoring).
    report_sent_at: float = 0.0


class WISHServer:
    """Fingerprinting location server feeding a Soft-State Store."""

    def __init__(
        self,
        env: "Environment",
        plan: FloorPlan,
        radio: PathLossModel,
        store: SoftStateStore,
        rng: np.random.Generator,
        grid_spacing: float = 2.0,
        k: int = 3,
    ):
        self.env = env
        self.plan = plan
        self.radio = radio
        self.store = store
        self.rng = rng
        self.k = k
        store.define_type(USER_TYPE)
        self.estimates: list[LocationEstimate] = []
        #: (lattice point, noiseless fingerprint) pairs.
        self._fingerprints: list[tuple[Point, dict[str, float]]] = [
            (point, self._predict(point))
            for point in plan.grid_points(grid_spacing)
        ]

    def _predict(self, point: Point) -> dict[str, float]:
        fingerprint = {}
        for ap in self.plan.access_points:
            power = self.radio.mean_power(ap.distance_to(point))
            if power >= self.radio.sensitivity_dbm:
                fingerprint[ap.ap_id] = power
        return fingerprint

    # ------------------------------------------------------------------
    # Report handling
    # ------------------------------------------------------------------

    def submit_report(self, report: ClientReport) -> None:
        """Entry point for reports arriving over the wireless network."""
        self.env.process(self._handle(report), name=f"wish-{report.user}")

    def _handle(self, report: ClientReport):
        yield self.env.timeout(SERVER_PROCESSING.draw(self.rng))
        estimate = self.locate(report)
        self.estimates.append(estimate)
        self._update_store(estimate)

    def locate(self, report: ClientReport) -> LocationEstimate:
        """Pure location computation (exposed for accuracy tests)."""
        if not report.strengths or not self._fingerprints:
            return LocationEstimate(
                user=report.user,
                activity=report.activity,
                position=None,
                region=FloorPlan.OUTSIDE,
                confidence=100.0 if not report.strengths else 0.0,
                at=self.env.now,
                report_sent_at=report.sent_at,
            )
        scored = sorted(
            (
                (signal_distance(report.strengths, fingerprint), point)
                for point, fingerprint in self._fingerprints
            ),
            key=lambda pair: pair[0],
        )
        nearest = scored[: self.k]
        xs = [point[0] for _d, point in nearest]
        ys = [point[1] for _d, point in nearest]
        position = (sum(xs) / len(xs), sum(ys) / len(ys))
        mean_mismatch = sum(d for d, _p in nearest) / len(nearest)
        # Confidence falls off with signal-space mismatch: a perfect match
        # is 100 %, ~20 dB aggregate mismatch is ~37 %.
        confidence = 100.0 * math.exp(-mean_mismatch / 20.0)
        return LocationEstimate(
            user=report.user,
            activity=report.activity,
            position=position,
            region=self.plan.region_at(position),
            confidence=confidence,
            at=self.env.now,
            report_sent_at=report.sent_at,
        )

    def _update_store(self, estimate: LocationEstimate) -> None:
        variable = f"wish.user.{estimate.user}"
        value = {
            "region": estimate.region,
            "position": estimate.position,
            "confidence": round(estimate.confidence, 1),
            "activity": estimate.activity,
            "report_sent_at": estimate.report_sent_at,
        }
        try:
            self.store.variable(variable)
        except UnknownVariable:
            self.store.create(
                variable,
                USER_TYPE,
                value,
                refresh_period=USER_REFRESH_PERIOD,
                max_missed=USER_MAX_MISSED,
            )
            return
        self.store.write(variable, value)

    def last_estimate(self, user: str) -> Optional[LocationEstimate]:
        for estimate in reversed(self.estimates):
            if estimate.user == user:
                return estimate
        return None
