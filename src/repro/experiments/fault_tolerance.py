"""Experiments E6 and E9: the one-month fault-tolerance evaluation (§5).

E6 replays a faultload with the paper's category mix against the full HA
stack (pessimistic logging + MDC watchdog + self-stabilization + monkey
threads) and reports the same recovery-log categories the paper does.

E9 is the ablation: re-run the same month with one HA technique disabled at
a time and show that each is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.stats import Summary, summarize
from repro.net.message import ChannelType
from repro.sim.clock import DAY, HOUR, MINUTE
from repro.sim.failures import FaultKind
from repro.testkit.harness import wire_targets
from repro.workloads.faultload import FaultloadSpec, generate_month_faultload
from repro.world import SimbaWorld, WorldConfig


@dataclass(frozen=True)
class HAFeatures:
    """Which §4.2.1 techniques are active (E9 disables one at a time)."""

    pessimistic_logging: bool = True
    watchdog: bool = True
    self_stabilization: bool = True
    monkey_thread: bool = True

    def label(self) -> str:
        disabled = [
            name
            for name, enabled in (
                ("logging", self.pessimistic_logging),
                ("watchdog", self.watchdog),
                ("stabilization", self.self_stabilization),
                ("monkey", self.monkey_thread),
            )
            if not enabled
        ]
        return "full-stack" if not disabled else "no-" + "+".join(disabled)


@dataclass
class FaultMonthResult:
    """The recovery log aggregates the paper reports, plus delivery impact."""

    label: str
    injected: dict[str, int]
    im_outages: int
    im_outage_minutes: list[float]
    relogons: int
    client_restarts: int
    mdc_restarts: int
    reboots: int
    rejuvenations: int
    recovery_replays: int
    unrecovered: int
    alerts_emitted: int
    alerts_received: int
    duplicates_at_user: int
    user_latency: Summary = field(default_factory=lambda: summarize([]))

    @property
    def delivery_ratio(self) -> float:
        if self.alerts_emitted == 0:
            return float("nan")
        return self.alerts_received / self.alerts_emitted

    @property
    def im_path_ratio(self) -> float:
        """Fraction of received alerts that arrived by IM (timeliness proxy:
        everything else fell back to the slow store-and-forward channels)."""
        if self.alerts_received == 0:
            return float("nan")
        return self.user_latency.count / self.alerts_received


def run_fault_month(
    seed: int = 0,
    features: HAFeatures = HAFeatures(),
    spec: FaultloadSpec | None = None,
    alert_period: float = 10 * MINUTE,
    operator_response: float = 4 * HOUR,
) -> FaultMonthResult:
    """One month of alerts under the paper's fault mix."""
    if spec is None:
        spec = FaultloadSpec()
    world = SimbaWorld(WorldConfig(seed=seed))
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    deployment.config.pessimistic_logging_enabled = features.pessimistic_logging
    deployment.config.self_stabilization_enabled = features.self_stabilization
    deployment.config.monkey_enabled = features.monkey_thread

    mdc = None
    if features.watchdog:
        mdc = world.start_mdc(deployment)
    else:
        deployment.launch()

    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")

    duration = spec.duration + 2 * DAY

    emitted = 0

    def emitter(env):
        nonlocal emitted
        while env.now < duration:
            source.emit("News", f"headline {emitted}", "body")
            emitted += 1
            yield env.timeout(alert_period)

    world.env.process(emitter(world.env))

    injector = wire_targets(world, {"": deployment}, operator_response)
    faults = generate_month_faultload(world.rngs.stream("faultload"), spec)
    injector.load(faults)

    world.run(until=duration)

    injected: dict[str, int] = {}
    for record in injector.records:
        if record.accepted:
            key = record.fault.kind.value
            injected[key] = injected.get(key, 0) + 1
    outage_minutes = [
        f.duration / MINUTE
        for f in faults
        if f.kind is FaultKind.IM_SERVICE_OUTAGE
    ]
    unrecovered = spec.unknown_dialogs + (
        0 if world.config.host_has_ups else spec.power_outages
    )
    received = [r for r in user.receipts if not r.duplicate]
    return FaultMonthResult(
        label=features.label(),
        injected=injected,
        im_outages=spec.im_outages,
        im_outage_minutes=outage_minutes,
        relogons=deployment.endpoint.im_manager.stats.relogons,
        client_restarts=deployment.endpoint.im_manager.stats.restarts,
        mdc_restarts=len(mdc.restarts) if mdc is not None else 0,
        reboots=world.host.reboots,
        rejuvenations=len(deployment.journal.rejuvenations),
        recovery_replays=deployment.journal.count("recovery_replay"),
        unrecovered=unrecovered,
        alerts_emitted=emitted,
        alerts_received=len(received),
        duplicates_at_user=user.duplicates_discarded(),
        user_latency=summarize(
            [r.latency for r in received if r.channel is ChannelType.IM]
        ),
    )


def run_ha_ablation(
    seed: int = 0,
    spec: FaultloadSpec | None = None,
    alert_period: float = 10 * MINUTE,
) -> list[FaultMonthResult]:
    """E9: the full stack plus four single-feature ablations."""
    variants = [
        HAFeatures(),
        HAFeatures(pessimistic_logging=False),
        HAFeatures(watchdog=False),
        HAFeatures(self_stabilization=False),
        HAFeatures(monkey_thread=False),
    ]
    return [
        run_fault_month(
            seed=seed, features=features, spec=spec, alert_period=alert_period
        )
        for features in variants
    ]


@dataclass
class LoggingWindowResult:
    """Outcome of the targeted pessimistic-logging demonstration."""

    logging_enabled: bool
    alerts: int
    acked_by_mab: int
    delivered_to_user: int
    recovery_replays: int
    #: Alerts the source believes delivered (it got the IM ack!) that never
    #: reached the user — exactly what log-before-ack exists to prevent.
    acked_but_lost: int = 0


def run_logging_window(
    seed: int = 0, n_alerts: int = 30, logging_enabled: bool = True
) -> LoggingWindowResult:
    """Crash MAB inside the ack-to-processed window for every alert.

    Deterministic demonstration of §4.2.1 pessimistic logging: the source
    receives the acknowledgement (so it will never resend), then MAB dies
    before routing.  With logging, the restarted MAB replays the entry; with
    the ablation, the alert is gone although its sender saw an ack.
    """
    from repro.net.channel import LatencyModel

    fixed_im = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
    world = SimbaWorld(
        WorldConfig(seed=seed, im_latency=fixed_im, email_loss=0.0, sms_loss=0.0)
    )
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    deployment.config.pessimistic_logging_enabled = logging_enabled
    mdc = world.start_mdc(deployment, check_interval=30.0)
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")

    runs = []

    def scenario(env):
        for index in range(n_alerts):
            start = env.now
            runs.extend(source.emit("News", f"headline {index}", "body")[1])
            # IM arrives at ~0.4, the (optional) log write ends ~0.9, the ack
            # lands back ~1.3; MAB finishes routing ~2.5.  Crash at 1.5:
            # after the ack, before the alert is marked processed.
            yield env.timeout(1.5)
            current = deployment.current
            if current is not None and current.alive:
                current.crash()
            # Give the MDC time to restart and the replay to complete.
            yield env.timeout(start + 120.0 - env.now)

    world.env.process(scenario(world.env))
    world.run(until=n_alerts * 120.0 + 600.0)

    acked_ids = {
        run.value.correlation
        for run in runs
        if run.processed and run.value.delivered
        and run.value.delivered_via == 0
    }
    received_ids = user.unique_alerts_received()
    return LoggingWindowResult(
        logging_enabled=logging_enabled,
        alerts=n_alerts,
        acked_by_mab=len(acked_ids),
        delivered_to_user=len(received_ids),
        recovery_replays=deployment.journal.count("recovery_replay"),
        acked_but_lost=len(acked_ids - received_ids),
    )
