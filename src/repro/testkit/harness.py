"""The delivery-run rig: one fault schedule replayed against a live farm.

:class:`DeliveryRig` is the one owner of the farm-run scaffold: the
*zero-loss* world (random channel loss would make honest fire-and-forget
deliveries look like oracle violations — every loss here must come from
the fault schedule), a :class:`~repro.core.farm.BuddyFarm` whose tenants
run under their own MDC watchdogs, the round-robin and storm emitters, the
fault-target handlers, the quiesce-then-audit hand-off to the
:class:`~repro.testkit.oracle.DeliveryOracle`, and the per-alert fate pass.
:func:`run_chaos` is a :class:`ChaosRunConfig` applied to the rig; E11 and
E12 configure the same rig their own way, and E6's single-MAB world shares
its handler factories through :func:`wire_targets`.

Determinism contract: for a fixed (:class:`ChaosRunConfig`, schedule) pair
the run is bit-for-bit reproducible — :meth:`ChaosReport.fingerprint`
digests only process-independent facts (outcome-kind counts, delivered
subjects, ack counters, violations; never raw alert ids, which come from a
process-global counter).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.core.admission import AdmissionConfig
from repro.core.alert import Alert, AlertSeverity
from repro.core.farm import FarmProfile
from repro.net.adversary import DEFAULT_REORDER_HORIZON, AdversaryModel
from repro.net.channel import LatencyModel
from repro.sim.clock import HOUR, MINUTE
from repro.sim.failures import FaultInjector, FaultKind, ScheduledFault
from repro.testkit.generator import StormConfig, StormTrafficGenerator
from repro.testkit.oracle import ACCOUNTED_KINDS, DeliveryOracle, OracleReport
from repro.workloads.faultload import (
    TARGET_EMAIL_SERVICE,
    TARGET_HOST,
    TARGET_IM_CLIENT,
    TARGET_IM_SERVICE,
    TARGET_MAB,
    TARGET_REPLICATION_LINK,
    TARGET_SCREEN,
    TARGET_STANDBY_HOST,
)
from repro.world import BuddyDeployment, SimbaWorld, WorldConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.farm import FarmTenant
    from repro.core.host import Host
    from repro.core.replication import ReplicatedPair
    from repro.core.user_endpoint import Receipt
    from repro.sources.base import AlertSource

#: Fast store-and-forward email so chaos runs quiesce inside the settle
#: window (the default model's tail is hours).
EMAIL_FAST = LatencyModel(median=20.0, sigma=0.4, low=2.0, high=600.0)


@dataclass(frozen=True)
class ChaosRunConfig:
    """Run parameters (all JSON-serializable, for reproducer pinning)."""

    seed: int = 0
    n_users: int = 3
    #: The fault window the schedule was generated for.
    duration: float = 2 * HOUR
    #: Quiet head start before the first fault may fire.
    start: float = 5 * MINUTE
    #: One alert lands somewhere on the farm this often (round-robin).
    alert_period: float = 40.0
    #: Quiesce time after the last fault clears: must cover the retry
    #: chain (max_attempts × retry_delay), recovery replays and the email
    #: latency tail.
    settle: float = 30 * MINUTE
    #: How long a human takes to register an unknown dialog's rule (§5).
    operator_response: float = 5 * MINUTE
    delivery_retry_delay: float = 60.0
    delivery_max_attempts: int = 4
    mdc_check_interval: float = 60.0
    #: Give every tenant a warm-standby pair (:meth:`~repro.core.farm
    #: .BuddyFarm.enable_replication`) and register the replication
    #: injection targets (``replication-link:<user>``,
    #: ``standby-host:<user>``).
    replication: bool = False
    heartbeat_interval: float = 5.0
    lease_timeout: float = 20.0
    lease_check_interval: float = 2.0
    #: Traffic hardening applied to every tenant (None = legacy path;
    #: :meth:`AdmissionConfig.permissive` = hardening wired but all off).
    admission: Optional[AdmissionConfig] = None
    #: Replace the steady round-robin workload with an alert storm
    #: (burst arrivals from many sources, duplicate submissions).
    storm: Optional[StormConfig] = None
    #: Ambient adversary applied to every channel (IM, email, SMS, and in
    #: replication mode every pair's ship link) for the whole run; pulse
    #: faults (LINK_REORDER / LINK_DUPLICATE / LINK_CORRUPT) layer bounded
    #: windows on top.  None = benign channels, and the field is dropped
    #: from the fingerprint so pre-adversary pins are unchanged.
    adversary: Optional[AdversaryModel] = None
    #: Replication record transport: "stabilizing" (checksum + dedup +
    #: bounded resend) or "naive" (the E14 baseline).  None = the default
    #: ("stabilizing"), dropped from the fingerprint like ``adversary``.
    transport: Optional[str] = None


#: ChaosRunConfig fields :meth:`ChaosReport.fingerprint` leaves out when
#: None, so pins written before the field existed keep their digest — the
#: same pattern as the "promotions"/"admission" keys.  None must therefore
#: mean exactly what the field's explicit default does.
FINGERPRINT_OMITS_WHEN_NONE = ("adversary", "transport")


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    config: ChaosRunConfig
    schedule: list[ScheduledFault]
    oracle: OracleReport
    #: Per-tenant workload counts.
    offered: dict[str, int] = field(default_factory=dict)
    delivered: dict[str, int] = field(default_factory=dict)
    #: Aggregate pipeline outcome kinds across the farm.
    outcome_counts: dict[str, int] = field(default_factory=dict)
    injected: int = 0
    rejected_injections: int = 0
    #: When the last fault cleared, and ``settle`` later the end of the run
    #: (neither is part of :meth:`fingerprint`).
    fault_window_end: float = 0.0
    horizon: float = 0.0
    #: Replication mode only: per-tenant failover promotion counts.
    promotions: dict[str, int] = field(default_factory=dict)
    #: Hardened runs only: the farm's summed admission counters
    #: (:meth:`~repro.core.farm.BuddyFarm.admission_summary`).
    admission: Optional[dict] = None
    #: The run's :class:`repro.obs.TraceSink` when ``run_chaos(trace=True)``
    #: — excluded from :meth:`fingerprint` (tracing is pure observation;
    #: traced and untraced runs must fingerprint identically).
    trace: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.oracle.ok

    def fingerprint(self) -> str:
        """Deterministic digest of the run's observable behaviour."""
        config_payload = asdict(self.config)
        for optional in FINGERPRINT_OMITS_WHEN_NONE:
            if config_payload.get(optional) is None:
                config_payload.pop(optional, None)
        payload = {
            "config": config_payload,
            "schedule": [
                (f.at, f.kind.value, f.target, f.duration,
                 sorted(f.params.items()))
                for f in self.schedule
            ],
            "offered": sorted(self.offered.items()),
            "delivered": sorted(self.delivered.items()),
            "outcomes": sorted(self.outcome_counts.items()),
            "injected": self.injected,
            "rejected_injections": self.rejected_injections,
            "violations": sorted(str(v) for v in self.oracle.violations),
            "info": sorted(self.oracle.info.items()),
        }
        if self.promotions:
            # Only stamped in replication mode, so pre-replication
            # fingerprints (pinned reproducers) are unchanged.
            payload["promotions"] = sorted(self.promotions.items())
        if self.admission is not None:
            # Same pattern: only hardened runs carry the rollup.
            payload["admission"] = sorted(self.admission.items())
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        failovers = ""
        if self.promotions:
            failovers = f" ({sum(self.promotions.values())} failover(s))"
        return (
            f"chaos {verdict}: {self.injected} faults injected{failovers}, "
            f"{sum(self.offered.values())} alerts offered, "
            f"{sum(self.delivered.values())} delivered — "
            + self.oracle.summary()
        )


#: The channel-adversary pulse kinds a handler maps to ``adversary_pulse``.
ADVERSARY_PULSE_KINDS = frozenset(
    {FaultKind.LINK_REORDER, FaultKind.LINK_DUPLICATE, FaultKind.LINK_CORRUPT}
)


def adversary_model_for(fault: ScheduledFault) -> AdversaryModel:
    """The one-effect :class:`AdversaryModel` a pulse fault pins.

    Each pulse kind turns up exactly one knob (probability and the
    kind-specific parameter ride in ``fault.params``), so a shrunk
    schedule isolates which misbehaviour broke the run.
    """
    probability = float(fault.params.get("probability", 0.25))
    if fault.kind is FaultKind.LINK_REORDER:
        return AdversaryModel(
            reorder_probability=probability,
            reorder_horizon=float(
                fault.params.get("horizon", DEFAULT_REORDER_HORIZON)
            ),
        )
    if fault.kind is FaultKind.LINK_DUPLICATE:
        return AdversaryModel(
            duplicate_probability=probability,
            duplicate_max=int(fault.params.get("copies", 3)),
        )
    if fault.kind is FaultKind.LINK_CORRUPT:
        return AdversaryModel(corrupt_probability=probability)
    raise ValueError(f"{fault.kind} is not an adversary pulse kind")


def fault_window_end(
    schedule: list[ScheduledFault], start: float, duration: float
) -> float:
    """When the last fault has cleared: the nominal window's end, or the
    end of a fault that outlasts it."""
    return max([start + duration] + [f.at + f.duration for f in schedule])


def storm_source_names(storm: StormConfig) -> tuple[str, ...]:
    """The source names a storm's ``event.source`` indices address."""
    return tuple(f"storm{i}" for i in range(storm.n_sources))


# ----------------------------------------------------------------------
# Fault-target handlers.  Each factory takes the *deployment* (or pair) it
# acts on, so E6's single MAB (``mab`` / ``im-client``) and a farm tenant
# (``mab:<user>`` / ``im-client:<user>``) register the same handler.
# ----------------------------------------------------------------------


def mab_handler(deployment: BuddyDeployment):
    def on_mab(fault: ScheduledFault) -> bool:
        current = deployment.current
        if current is None or not current.alive:
            return False
        if fault.kind is FaultKind.PROCESS_CRASH:
            return current.crash()
        if fault.kind is FaultKind.PROCESS_HANG:
            return current.hang()
        if fault.kind is FaultKind.MEMORY_LEAK:
            return current.leak_memory(fault.params.get("megabytes", 300.0))
        return False

    return on_mab


def client_handler(world: SimbaWorld, deployment: BuddyDeployment):
    def on_im_client(fault: ScheduledFault) -> bool:
        client = deployment.endpoint.im_client
        if fault.kind is FaultKind.CLIENT_LOGOUT:
            return world.im.force_logout(deployment.im_address)
        if fault.kind is FaultKind.CLIENT_HANG:
            return client.hang()
        if fault.kind is FaultKind.CLIENT_STALE_POINTER:
            if not client.running:
                return False
            client.terminate()
            client.start()
            return True
        return False

    return on_im_client


def outage_handler(channel, outage_kind: FaultKind):
    """For anything with the channel fault surface: IM, email, ship link."""

    def on_channel(fault: ScheduledFault) -> bool:
        if fault.kind is outage_kind:
            channel.outage(fault.duration)
            return True
        if fault.kind in ADVERSARY_PULSE_KINDS:
            channel.adversary_pulse(
                adversary_model_for(fault), fault.duration
            )
            return True
        return False

    return on_channel


def host_handler(host: "Host"):
    def on_host(fault: ScheduledFault) -> bool:
        if fault.kind is FaultKind.POWER_OUTAGE and host.up:
            return host.power_failure(fault.duration)
        return False

    return on_host


def wire_targets(
    world: SimbaWorld,
    deployments: dict[str, BuddyDeployment],
    operator_response: float,
    pairs: Optional[dict[str, "ReplicatedPair"]] = None,
) -> FaultInjector:
    """Register handlers for every target name a faultload can emit.

    Global targets use the faultload names (``im-service``, ``host``…).
    ``deployments`` maps a target-name suffix to the deployment it
    addresses: ``{"": d}`` registers E6's bare ``mab`` / ``im-client``,
    ``{":user3": d}`` a farm tenant's ``mab:user3`` / ``im-client:user3``.
    ``pairs`` does the same for ``replication-link`` / ``standby-host``.
    """
    injector = FaultInjector(world.env)

    def on_screen(fault: ScheduledFault) -> bool:
        if not world.host.up:
            return False
        caption = fault.params.get("caption", "Mystery dialog")
        button = fault.params.get("button", "OK")
        world.host.screen.pop_dialog(caption, (button,), owner=None)
        if fault.kind is FaultKind.UNKNOWN_DIALOG_POPUP:
            # The paper's fix: after a human noticed, the dialog-box
            # handling API was used to register the new caption-button pair.
            def operator(env):
                yield env.timeout(operator_response)
                for deployment in deployments.values():
                    deployment.endpoint.im_manager.register_dialog_rule(
                        caption, button
                    )
                    deployment.endpoint.email_manager.register_dialog_rule(
                        caption, button
                    )
                # With the monkey ablated too, the operator clicks it away.
                blocking = [
                    d
                    for d in world.host.screen.open_dialogs()
                    if d.caption == caption
                ]
                for dialog in blocking:
                    world.host.screen.click(dialog, button)

            world.env.process(operator(world.env), name="operator-fix")
        return True

    handlers = {
        TARGET_IM_SERVICE: outage_handler(
            world.im, FaultKind.IM_SERVICE_OUTAGE
        ),
        TARGET_EMAIL_SERVICE: outage_handler(
            world.email, FaultKind.EMAIL_OUTAGE
        ),
        TARGET_HOST: host_handler(world.host),
        TARGET_SCREEN: on_screen,
    }
    for suffix, deployment in deployments.items():
        handlers[TARGET_MAB + suffix] = mab_handler(deployment)
        handlers[TARGET_IM_CLIENT + suffix] = client_handler(world, deployment)
    for suffix, pair in (pairs or {}).items():
        handlers[TARGET_REPLICATION_LINK + suffix] = outage_handler(
            pair.link, FaultKind.REPLICATION_LINK_DOWN
        )
        # The pair's *dedicated* second machine — after a failover it is
        # the active primary, which is exactly the double failure the
        # replication schedules go looking for.
        handlers[TARGET_STANDBY_HOST + suffix] = host_handler(pair.b.host)
    for target, handler in handlers.items():
        injector.register(target, handler)
    return injector


@dataclass(frozen=True)
class AlertFate:
    """What became of one offered alert (see :func:`alert_fates`)."""

    user: str
    alert_id: str
    #: First non-duplicate receipt; None = never reached the user.
    receipt: Optional["Receipt"]
    #: Duplicate copies that reached the user's screen.
    user_duplicates: int
    #: Terminal ``routed`` pipeline trips (> 1 = routed twice).
    routed: int
    #: Some trip ended in a dead-letter or admission-terminal kind: the
    #: system decided, on the record, not to deliver.
    accounted: bool

    @property
    def delivered(self) -> bool:
        return self.receipt is not None

    @property
    def lost(self) -> bool:
        """Neither delivered nor explicitly accounted for — silent loss."""
        return self.receipt is None and not self.accounted


def alert_fates(
    tenants: Iterable["FarmTenant"],
    offered: dict[str, set[str]],
    oracle: DeliveryOracle,
) -> Iterator[AlertFate]:
    """One :class:`AlertFate` per offered alert of a quiesced run.

    Per tenant, delivered alerts come first, in first-receipt order: alert
    ids come from a process-global counter, so the ``offered`` sets iterate
    in an order that depends on what the *process* did before — receipt
    order keeps latency summaries bit-identical between in-process and
    forked-worker runs.
    """
    by_user = oracle.outcomes_by_user()
    for tenant in tenants:
        ids = offered[tenant.name]
        first: dict[str, "Receipt"] = {}
        duplicates: Counter[str] = Counter()
        for receipt in tenant.user.receipts:
            if receipt.alert_id not in ids:
                continue
            if receipt.duplicate:
                duplicates[receipt.alert_id] += 1
            else:
                first.setdefault(receipt.alert_id, receipt)
        trips = by_user.get(tenant.name, {})
        for alert_id in (*first, *(ids - first.keys())):
            kinds = [t.kind for t in trips.get(alert_id, ())]
            yield AlertFate(
                user=tenant.name,
                alert_id=alert_id,
                receipt=first.get(alert_id),
                user_duplicates=duplicates[alert_id],
                routed=kinds.count("routed"),
                accounted=any(k in ACCOUNTED_KINDS for k in kinds),
            )


class VariantLookup:
    """Mixin for comparison results holding named ``variants``."""

    variants: list

    def variant(self, name: str):
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)


class DeliveryRig:
    """The one delivery-run scaffold: sources → farm under MDC → users.

    Builds the *zero-loss* world, a 4-shard ``News`` farm of ``n_users``
    tenants observed by the oracle, and (at :meth:`start`) the named
    ``sources`` — which are also the only sources the tenants accept.  A
    run is: build → configure (``farm`` / ``tenants`` are exposed for it)
    → :meth:`start` → an emitter → :meth:`inject` → :meth:`quiesce` →
    :meth:`fates`.
    """

    def __init__(
        self,
        seed: int,
        n_users: int,
        sources: tuple[str, ...] = ("portal",),
        oracle: Optional[DeliveryOracle] = None,
        trace: bool = False,
    ):
        self.seed = seed
        self.oracle = oracle if oracle is not None else DeliveryOracle()
        self.world = SimbaWorld(
            WorldConfig(
                seed=seed,
                email_latency=EMAIL_FAST,
                email_loss=0.0,
                sms_loss=0.0,
            )
        )
        self.sink = None
        if trace:
            from repro.obs import TraceSink

            self.sink = TraceSink().install(self.world.env)
        self.farm = self.world.create_farm(
            shards=4,
            profile=FarmProfile(
                categories=("News",), accept_sources=tuple(sources)
            ),
        )
        self.tenants = self.farm.add_users(n_users)
        for tenant in self.tenants:
            tenant.deployment.config.pipeline_observer = (
                self.oracle.observer_for(tenant.name)
            )
        #: Alert ids addressed to each tenant (what the oracle audits).
        self.offered: dict[str, set[str]] = {
            t.name: set() for t in self.tenants
        }
        self._source_names = tuple(sources)
        self.sources: dict[str, "AlertSource"] = {}

    def start(self, watchdog_interval: Optional[float] = 60.0) -> None:
        """Launch the tenants — under MDC watchdogs, or bare
        (``launch_all``) when ``watchdog_interval`` is None — then create
        the sources."""
        if watchdog_interval is None:
            self.farm.launch_all()
        else:
            self.farm.start_watchdogs(check_interval=watchdog_interval)
        for name in self._source_names:
            self.sources[name] = self.world.create_source(name)

    def emit(
        self,
        source: "AlertSource",
        tenant: "FarmTenant",
        subject: str,
        severity: AlertSeverity = AlertSeverity.ROUTINE,
    ) -> Alert:
        """Address one ``News`` alert to ``tenant`` and remember it."""
        alert, _ = source.emit_to(
            tenant.book, "News", subject, "body", severity=severity
        )
        self.offered[tenant.name].add(alert.alert_id)
        return alert

    def round_robin(self, period: float, until: float) -> None:
        """One ``portal`` alert somewhere on the farm every ``period``."""
        source = self.sources["portal"]

        def workload(env):
            index = 0
            while env.now < until:
                tenant = self.tenants[index % len(self.tenants)]
                self.emit(source, tenant, f"alert-{index}-{tenant.name}")
                index += 1
                yield env.timeout(period)

        self.world.env.process(workload(self.world.env), name="chaos-workload")

    def storm(self, storm: StormConfig, duration: float, start: float) -> None:
        """Burst arrivals from the storm sources, with duplicate copies."""
        sources = [self.sources[n] for n in storm_source_names(storm)]
        tenants = {t.name: t for t in self.tenants}
        # Drawn as the workload reaches each arrival, so only the arrival
        # being emitted is alive, not the whole storm's schedule.
        events = StormTrafficGenerator(
            self.seed, list(tenants), storm, duration=duration, start=start
        ).generate()

        def workload(env):
            # Per-user memory of the last fresh emission, so a
            # ``duplicate`` event re-submits the *same* alert object from
            # the same source — the upstream at-least-once copy dedup keys
            # must suppress.
            last: dict[str, tuple] = {}
            index = 0
            for event in events:
                if event.at > env.now:
                    yield env.timeout(event.at - env.now)
                tenant = tenants[event.user]
                if event.duplicate and event.user in last:
                    prev_src, prev_alert = last[event.user]
                    prev_src.deliver(prev_alert, tenant.book)
                    continue
                src = sources[event.source]
                alert = self.emit(
                    src,
                    tenant,
                    f"storm-{index}-{event.user}",
                    AlertSeverity(event.severity),
                )
                last[event.user] = (src, alert)
                index += 1

        self.world.env.process(workload(self.world.env), name="storm-workload")

    def inject(
        self,
        schedule: list[ScheduledFault],
        operator_response: float = 5 * MINUTE,
    ) -> FaultInjector:
        """Wire every tenant's targets and schedule the faults."""
        injector = wire_targets(
            self.world,
            {f":{t.name}": t.deployment for t in self.tenants},
            operator_response,
            pairs={
                f":{t.name}": t.pair
                for t in self.tenants
                if t.pair is not None
            },
        )
        injector.load(schedule)
        return injector

    def quiesce(self, until: float) -> OracleReport:
        """Run to ``until``, then hand the farm to the oracle."""
        self.world.run(until=until)
        return self.oracle.check(
            self.farm,
            offered=self.offered,
            source_endpoints=[s.endpoint for s in self.sources.values()],
            trace_sink=self.sink,
        )

    def promotions(self) -> dict[str, int]:
        """Failover promotions per replicated tenant (the first promotion
        record is the initial epoch grant)."""
        return {
            t.name: len(t.pair.audit.promotions) - 1
            for t in self.tenants
            if t.pair is not None
        }

    def fates(self) -> Iterator[AlertFate]:
        return alert_fates(self.tenants, self.offered, self.oracle)


def run_chaos(
    schedule: list[ScheduledFault],
    config: Optional[ChaosRunConfig] = None,
    stage_factory: Optional[Callable[[], list]] = None,
    oracle: Optional[DeliveryOracle] = None,
    trace: bool = False,
) -> ChaosReport:
    """Replay ``schedule`` against a fresh farm; return the audited report.

    ``stage_factory`` swaps every tenant's pipeline stages — the way the
    testkit's own tests (and :mod:`repro.testkit.bugs`) plant deliberately
    broken pipelines to prove the oracle has teeth.

    ``trace`` installs a :class:`repro.obs.TraceSink` for the run; the
    sink rides back on ``report.trace`` and the oracle additionally audits
    the trace-backed invariants (``report.oracle.trace_violations``).  A
    parameter, not a :class:`ChaosRunConfig` field: the config is part of
    every pinned reproducer's fingerprint, and tracing must never change a
    run's identity.
    """
    if config is None:
        config = ChaosRunConfig()
    storm_names = (
        storm_source_names(config.storm) if config.storm is not None else ()
    )
    rig = DeliveryRig(
        config.seed,
        config.n_users,
        sources=("portal", *storm_names),
        oracle=oracle,
        trace=trace,
    )
    for tenant in rig.tenants:
        cfg = tenant.deployment.config
        cfg.delivery_retry_delay = config.delivery_retry_delay
        cfg.delivery_max_attempts = config.delivery_max_attempts
        cfg.admission = config.admission
        if stage_factory is not None:
            cfg.stage_factory = stage_factory
    if config.replication:
        rig.farm.enable_replication(
            heartbeat_interval=config.heartbeat_interval,
            lease_timeout=config.lease_timeout,
            check_interval=config.lease_check_interval,
            transport=config.transport or "stabilizing",
        )
    if config.adversary is not None:
        for channel in (rig.world.im, rig.world.email, rig.world.sms):
            channel.set_adversary(config.adversary)
        for tenant in rig.tenants:
            if tenant.pair is not None:
                tenant.pair.link.set_adversary(config.adversary)
    rig.start(watchdog_interval=config.mdc_check_interval)

    window_end = fault_window_end(schedule, config.start, config.duration)
    if config.storm is not None:
        rig.storm(config.storm, duration=config.duration, start=config.start)
    else:
        rig.round_robin(config.alert_period, until=window_end)
    injector = rig.inject(schedule, config.operator_response)
    horizon = window_end + config.settle
    report = rig.quiesce(horizon)

    outcome_counts = Counter(
        obs.kind or "(dropped)" for obs in rig.oracle.observed
    )
    delivered = {name: 0 for name in rig.offered}
    for fate in rig.fates():
        delivered[fate.user] += fate.delivered
    accepted = sum(1 for r in injector.records if r.accepted)
    return ChaosReport(
        config=config,
        schedule=list(schedule),
        oracle=report,
        offered={name: len(ids) for name, ids in rig.offered.items()},
        delivered=delivered,
        outcome_counts=dict(outcome_counts),
        injected=accepted,
        rejected_injections=len(injector.records) - accepted,
        horizon=horizon,
        fault_window_end=window_end,
        promotions=rig.promotions(),
        admission=rig.farm.admission_summary(),
        trace=rig.sink,
    )
