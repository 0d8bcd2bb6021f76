"""Experiments E5 and A3: the WISH location-alert chain and its accuracy.

E5 (§5): "From the time the laptop sends out the information wirelessly to
the time the subscriber gets notified by an IM alert, the average delivery
time was measured to be 5 seconds."

A3 (§2.4): "The WISH system is able to determine the user's real-time
location to within a few meters.  A confidence percentage is associated
with each estimate."  The sweep raises the shadowing noise of the radio
environment and reports location error and confidence — the RADAR-style
accuracy figure, plus whether confidence actually tracks accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.aladdin.sss import SoftStateStore
from repro.metrics.stats import Summary, summarize
from repro.net.message import ChannelType
from repro.sim import Environment, RngRegistry
from repro.sim.clock import MINUTE
from repro.wish import (
    FloorPlan,
    LocationTrigger,
    PathLossModel,
    Region,
    WISHAlertService,
    WISHClient,
    WISHServer,
)
from repro.wish.server import ClientReport
from repro.world import SimbaWorld


@dataclass
class WishE2EResult:
    """Latency from wireless report to subscriber IM, plus accuracy info."""

    report_to_im: Summary
    moves: int
    alerts: int
    mean_confidence: float


def _office_plan() -> FloorPlan:
    plan = FloorPlan("msr")
    plan.add_region(Region("west-wing", 0, 0, 20, 20))
    plan.add_region(Region("east-wing", 20, 0, 40, 20))
    plan.add_region(Region("lab", 0, 20, 40, 35))
    plan.add_ap("ap-west", (10, 10))
    plan.add_ap("ap-east", (30, 10))
    plan.add_ap("ap-lab", (20, 28))
    return plan


def run_wish_location(
    n_moves: int = 60, seed: int = 0, move_period: float = 2 * MINUTE
) -> WishE2EResult:
    """Walk a tracked user between wings; measure report→subscriber-IM."""
    world = SimbaWorld(seed=seed)
    boss = world.create_user("boss", present=True)
    deployment = world.create_buddy(boss)
    deployment.register_user_endpoint(boss)
    deployment.subscribe(
        "Whereabouts",
        boss,
        "normal",
        keywords=[
            "Location move_region",
            "Location enter_building",
            "Location leave_building",
        ],
    )
    deployment.launch()
    deployment.config.classifier.accept_source("wish")

    plan = _office_plan()
    radio = PathLossModel(shadowing_sigma_db=2.0)
    store = SoftStateStore(world.env, "wish-sss")
    server = WISHServer(
        world.env, plan, radio, store, rng=world.rngs.stream("wish-server")
    )
    client = WISHClient(
        world.env,
        "victor",
        plan,
        radio,
        server,
        rng=world.rngs.stream("wish-client"),
        position=(5.0, 5.0),
    )
    service = WISHAlertService(
        world.env, "wish", world.create_source_endpoint("wish"), server
    )
    service.authorize("victor", "boss")
    request = service.request_tracking(
        "boss",
        "victor",
        {
            LocationTrigger.MOVE_REGION,
            LocationTrigger.ENTER_BUILDING,
            LocationTrigger.LEAVE_BUILDING,
        },
        deployment.source_facing_book(),
    )

    client.start()
    spots = [(5.0, 5.0), (30.0, 10.0), (15.0, 28.0)]
    client.walk(
        [
            (60.0 + index * move_period, spots[(index + 1) % len(spots)])
            for index in range(n_moves)
        ]
    )
    world.run(until=60.0 + n_moves * move_period + 5 * MINUTE)

    receipts = {r.alert_id: r for r in boss.receipts if not r.duplicate}
    samples = [
        receipts[alert_id].at - sent_at
        for alert_id, sent_at in service.provenance.items()
        if alert_id in receipts
        and receipts[alert_id].channel is ChannelType.IM
    ]
    confidences = [e.confidence for e in server.estimates if e.position]
    return WishE2EResult(
        report_to_im=summarize(samples),
        moves=n_moves,
        alerts=request.alerts_sent,
        mean_confidence=(
            sum(confidences) / len(confidences) if confidences else 0.0
        ),
    )


@dataclass
class AccuracyPoint:
    """One shadowing level of the A3 sweep."""

    sigma: float
    error: Summary
    confidence: Summary


def _survey_plan() -> FloorPlan:
    plan = FloorPlan("bench-building")
    plan.add_region(Region("west", 0, 0, 25, 25))
    plan.add_region(Region("east", 25, 0, 50, 25))
    plan.add_ap("ap1", (12, 12))
    plan.add_ap("ap2", (38, 12))
    plan.add_ap("ap3", (25, 5))
    plan.add_ap("ap4", (25, 20))
    return plan


def run_wish_accuracy_sweep(
    sigmas: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0),
    samples_per_sigma: int = 120,
    seed: int = 0,
) -> list[AccuracyPoint]:
    """A3: locate random positions under growing RF shadowing noise."""
    plan = _survey_plan()
    rngs = RngRegistry(seed=seed)
    position_rng = rngs.stream("positions")
    points = []
    for sigma in sigmas:
        env = Environment()
        radio = PathLossModel(shadowing_sigma_db=sigma)
        store = SoftStateStore(env, "sss")
        server = WISHServer(
            env, plan, radio, store, rng=rngs.stream(f"server-{sigma}")
        )
        measure_rng = rngs.stream(f"measure-{sigma}")
        errors, confidences = [], []
        for _ in range(samples_per_sigma):
            x = float(position_rng.uniform(2, 48))
            y = float(position_rng.uniform(2, 23))
            strengths = {}
            for ap in plan.access_points:
                power = radio.measure(ap.distance_to((x, y)), measure_rng)
                if power is not None:
                    strengths[ap.ap_id] = power
            estimate = server.locate(
                ClientReport("u", "available", None, strengths, 0.0)
            )
            if estimate.position is None:
                continue
            errors.append(math.dist(estimate.position, (x, y)))
            confidences.append(estimate.confidence)
        points.append(
            AccuracyPoint(sigma, summarize(errors), summarize(confidences))
        )
    return points
