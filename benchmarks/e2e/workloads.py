"""The four delivery workloads, driven through the repo's public API.

Each workload is one class with the same four steps, so the worker can
time them separately:

- ``__init__(seed, size, inline)`` generates the inputs — arrival times,
  fault schedule, run configuration — from the seed alone;
- ``setup()`` builds whatever can be built before the timed run;
- ``run()`` is the timed run;
- ``collect()`` audits the quiesced system and returns an
  :class:`Outcome`; ``close()`` releases workers.

Sizes are explicit per scale (``SIZES``): ``full`` is the measured
workload, ``quarter`` the traced pass, ``tiny`` the smoke/test size.
Why each workload exists is recorded next to its name in ``metrics.py``
and argued in the README.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.admission import AdmissionConfig
from repro.core.farm import FarmProfile
from repro.core.shard import ShardedFarm
from repro.experiments.sharded import (
    E13_PROFILE,
    E13_WORKLOAD,
    e13_world_config,
)
from repro.net.message import ChannelType
from repro.testkit.generator import FaultScheduleGenerator, StormConfig
from repro.testkit.harness import ChaosRunConfig, run_chaos
from repro.testkit.oracle import (
    ADMISSION_TERMINAL_KINDS,
    DEAD_LETTER_KINDS,
    DeliveryOracle,
)
from repro.world import SimbaWorld

#: An alert is on time when its first receipt lands within this many
#: simulated seconds of emission.
ON_TIME_LIMIT = 60.0

SIZES: dict[str, dict[str, dict]] = {
    "farm_steady": {
        "full": dict(tenants=500, rate=0.02, traffic=700.0, drain=600.0),
        "quarter": dict(tenants=500, rate=0.02, traffic=175.0, drain=150.0),
        "tiny": dict(tenants=40, rate=0.02, traffic=300.0, drain=300.0),
    },
    "shard_fanout_cold": {
        "full": dict(population=24_000, duration=600.0, drain=240.0),
        "quarter": dict(population=6_000, duration=600.0, drain=240.0),
        "tiny": dict(population=1_500, duration=600.0, drain=240.0),
    },
    "farm_chaos_replicated": {
        "full": dict(n_users=80, duration=2600.0, alert_period=0.5,
                     schedule_seed=21),
        "quarter": dict(n_users=80, duration=650.0, alert_period=0.5,
                        schedule_seed=5),
        "tiny": dict(n_users=8, duration=600.0, alert_period=4.0,
                     schedule_seed=21),
    },
    "farm_storm_admission": {
        "full": dict(n_users=40, duration=7200.0, n_bursts=3, burst_rate=60.0),
        "quarter": dict(n_users=40, duration=1800.0, n_bursts=1, burst_rate=60.0),
        "tiny": dict(n_users=8, duration=600.0, n_bursts=1, burst_rate=6.0),
    },
}

#: Launch warm-up of ``farm_steady``: IM logins finish before traffic.
WARMUP = 60.0
#: Process shards of ``shard_fanout_cold`` (the box has two cores).
SHARDS = 2
SHARD_EPOCH = 60.0


@dataclass
class Outcome:
    """What one run of a workload delivered, as the audit sees it."""

    offered: int
    #: Emission -> first receipt, one per delivered offered alert.
    latencies: list[float]
    #: Offered alerts with no terminal accounted outcome.
    unaccounted: int
    violations: list[str]
    #: Offered alerts (or, when unnamed, violations) the oracle flagged.
    violation_alerts: int
    tenants: int
    #: Deterministic counters behind the named per-layer metrics.
    counts: dict[str, float] = field(default_factory=dict)
    #: The workload's own behavioural fingerprint.
    fingerprint: str = ""

    @property
    def failed(self) -> int:
        return min(self.offered, self.unaccounted + self.violation_alerts)

    def digest(self) -> str:
        """Digest of every seed-determined fact of the run."""
        payload = {
            "offered": self.offered,
            "latencies": [repr(value) for value in sorted(self.latencies)],
            "unaccounted": self.unaccounted,
            "violations": sorted(self.violations),
            "tenants": self.tenants,
            "counts": sorted(self.counts.items()),
            "fingerprint": self.fingerprint,
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (nan when empty)."""
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _CapturingOracle(DeliveryOracle):
    """``run_chaos`` hands the quiesced farm to its oracle and to nobody
    else; keeping the reference is how the benchmark reads receipts and
    layer counters from outside."""

    farm = None
    offered = None

    def check(self, farm, offered=None, source_endpoints=(), trace_sink=None):
        self.farm = farm
        self.offered = offered
        return super().check(
            farm,
            offered=offered,
            source_endpoints=source_endpoints,
            trace_sink=trace_sink,
        )


def _audit_farm(farm, offered, oracle, report) -> Outcome:
    """Outcome of a single-kernel farm run from its public surfaces."""
    accounted = DEAD_LETTER_KINDS | ADMISSION_TERMINAL_KINDS
    by_user = oracle.outcomes_by_user()
    latencies: list[float] = []
    unaccounted = 0
    refused = 0
    fallbacks = 0
    counts: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    for tenant in farm:
        ids = offered[tenant.name]
        first = {}
        for receipt in tenant.user.receipts:
            if receipt.alert_id in ids and not receipt.duplicate:
                first.setdefault(receipt.alert_id, receipt)
        trips = by_user.get(tenant.name, {})
        for alert_id in ids:
            receipt = first.get(alert_id)
            if receipt is not None:
                latencies.append(receipt.latency)
                fallbacks += receipt.channel is not ChannelType.IM
            elif alert_id not in trips:
                # Never acknowledged by the MAB (every channel to it was
                # down): the *sender* holds a failed delivery outcome, so
                # the alert is refused, not silently lost.
                refused += 1
            elif not any(t.kind in accounted for t in trips[alert_id]):
                unaccounted += 1
        if tenant.pair is None:
            deployments = [tenant.deployment]
        else:
            deployments = [side.deployment for side in tenant.pair.sides()]
            add("promotions", len(tenant.pair.audit.promotions) - 1)
            for side in tenant.pair.sides():
                audit = side.transport_audit.summary()
                add("ships", audit["shipped"])
                add("resends", audit["resends"])
        for deployment in deployments:
            add("log_entries", len(deployment.log))
            for kind, count in deployment.journal.counts().items():
                add(f"journal.{kind}", count)
    counts["fallbacks"] = fallbacks
    counts["refused"] = refused
    for key, value in (farm.admission_summary() or {}).items():
        counts[f"admission.{key}"] = value
    flagged = {v.alert_id for v in report.violations if v.alert_id}
    unnamed = sum(1 for v in report.violations if not v.alert_id)
    return Outcome(
        offered=sum(len(ids) for ids in offered.values()),
        latencies=latencies,
        unaccounted=unaccounted,
        violations=[str(v) for v in report.violations]
        + [str(v) for v in report.trace_violations],
        violation_alerts=len(flagged) + unnamed + len(report.trace_violations),
        tenants=len(farm),
        counts=counts,
    )


class FarmSteady:
    """One BuddyFarm, tenants pre-built, Poisson IM-with-ack happy path."""

    def __init__(self, seed: int, size: dict, inline: bool = False):
        self.seed = seed
        self.size = size
        rng = np.random.default_rng([seed, 0x57EAD])
        per_tenant = rng.poisson(size["rate"] * size["traffic"], size["tenants"])
        self.arrivals = sorted(
            (WARMUP + float(at), tenant)
            for tenant, count in enumerate(per_tenant)
            for at in rng.uniform(0.0, size["traffic"], int(count))
        )
        self.horizon = WARMUP + size["traffic"] + size["drain"]

    def setup(self) -> None:
        self.world = SimbaWorld(seed=self.seed)
        self.source = self.world.create_source("portal")
        self.farm = self.world.create_farm(
            profile=FarmProfile(accept_sources=("portal",))
        )
        self.farm.add_users(self.size["tenants"])
        self.oracle = DeliveryOracle()
        for tenant in self.farm:
            tenant.deployment.config.pipeline_observer = (
                self.oracle.observer_for(tenant.name)
            )
        self.farm.launch_all()
        self.world.run(until=WARMUP)
        self.offered = {tenant.name: set() for tenant in self.farm}
        self.world.env.process(self._emit(self.world.env), name="steady-arrivals")

    def _emit(self, env):
        for index, (at, tenant_index) in enumerate(self.arrivals):
            if at > env.now:
                yield env.timeout(at - env.now)
            tenant = self.farm.tenant_at(tenant_index)
            alert, _ = self.source.emit_to(
                tenant.book, "News", f"steady-{index}-{tenant.name}", "body"
            )
            self.offered[tenant.name].add(alert.alert_id)

    def run(self) -> None:
        self.world.run(until=self.horizon)

    def collect(self) -> Outcome:
        report = self.oracle.check(
            self.farm,
            offered=self.offered,
            source_endpoints=[self.source.endpoint],
        )
        outcome = _audit_farm(self.farm, self.offered, self.oracle, report)
        outcome.fingerprint = json.dumps(
            sorted(self.farm.aggregate_counts().items())
        )
        return outcome

    def close(self) -> None:
        pass


class ShardFanoutCold:
    """E13 traffic over two process shards; tenants materialize lazily."""

    def __init__(self, seed: int, size: dict, inline: bool = False):
        self.size = size
        self.until = size["duration"] + size["drain"]
        # E13 draws its send times from name-keyed streams of the seed:
        # the (seed, population, duration) triple *is* the input.
        self.farm = ShardedFarm(
            shards=SHARDS,
            seed=seed,
            population=size["population"],
            workload=E13_WORKLOAD,
            workload_kwargs={"duration": size["duration"]},
            epoch=SHARD_EPOCH,
            world_config=e13_world_config(seed),
            profile=E13_PROFILE,
            inline=inline,
        )

    def setup(self) -> None:
        self.farm.start()

    def run(self) -> None:
        self.farm.run(until=self.until)
        self.rollup = self.farm.merged_rollup()

    def collect(self) -> Outcome:
        rollup = self.rollup
        offered = sum(load.envelopes_out for load in rollup.loads)
        events = list(rollup.placement.per_shard_events.values())
        mean_events = sum(events) / len(events) if events else 0.0
        counts = {f"journal.{k}": v for k, v in rollup.counts.items()}
        counts["envelopes_in"] = sum(l.envelopes_in for l in rollup.loads)
        counts["undelivered_envelopes"] = rollup.undelivered_envelopes
        counts["epochs"] = round(self.farm.now / self.farm.epoch)
        counts["imbalance"] = max(events) / mean_events if mean_events else 0.0
        return Outcome(
            offered=offered,
            latencies=list(rollup.latencies),
            unaccounted=max(0, offered - rollup.receipts)
            + rollup.undelivered_envelopes,
            violations=[],
            violation_alerts=0,
            tenants=rollup.tenants,
            counts=counts,
            fingerprint=self.farm.merged_fingerprint(),
        )

    def close(self) -> None:
        self.farm.stop()


class _ChaosWorkload:
    """Shared shape of the two ``run_chaos`` workloads."""

    config: ChaosRunConfig
    schedule: list

    def setup(self) -> None:
        # run_chaos builds its (small) farm itself; nothing can be
        # prepared from outside beyond the inputs.
        self.oracle = _CapturingOracle()

    def run(self) -> None:
        self.report = run_chaos(self.schedule, self.config, oracle=self.oracle)

    def collect(self) -> Outcome:
        outcome = _audit_farm(
            self.oracle.farm, self.oracle.offered, self.oracle,
            self.report.oracle,
        )
        outcome.counts["faults_injected"] = self.report.injected
        for kind, count in self.report.outcome_counts.items():
            outcome.counts[f"outcome.{kind}"] = count
        outcome.fingerprint = self.report.fingerprint()
        return outcome

    def close(self) -> None:
        pass


#: The chaos testkit exists to find (schedule, seed) pairs on which the
#: system breaks an invariant, and with replication on it still does (see
#: the README's leads).  A benchmark needs inputs on which no operation
#: fails and whose cost does not swing with the draw, so the fault
#: schedule is a constant of the workload — ``schedule_seed`` of the
#: generator at default intensity, chosen per scale for a host power loss
#: that fails every tenant over, service outages, crashes, hangs, logouts
#: and link partitions — and ``--seed`` picks the world (channel
#: latencies, reaction times, lease timing) among the seeds vetted
#: oracle-clean on that schedule.
CHAOS_WORLD_SEEDS = tuple(range(20))


class FarmChaosReplicated(_ChaosWorkload):
    """Replicated tenants under the pinned generated fault schedule."""

    def __init__(self, seed: int, size: dict, inline: bool = False):
        users = [f"user{i}" for i in range(size["n_users"])]
        self.config = ChaosRunConfig(
            seed=CHAOS_WORLD_SEEDS[seed % len(CHAOS_WORLD_SEEDS)],
            n_users=size["n_users"],
            duration=size["duration"],
            alert_period=size["alert_period"],
            replication=True,
        )
        self.schedule = FaultScheduleGenerator(
            size["schedule_seed"],
            users,
            duration=size["duration"],
            start=self.config.start,
            replication=True,
        ).generate()


class FarmStormAdmission(_ChaosWorkload):
    """Bursty multi-source storm against hardened admission, no faults."""

    def __init__(self, seed: int, size: dict, inline: bool = False):
        self.config = ChaosRunConfig(
            seed=seed,
            n_users=size["n_users"],
            duration=size["duration"],
            admission=AdmissionConfig.hardened(seed),
            storm=StormConfig(
                n_sources=4,
                base_rate=0.2,
                burst_rate=size["burst_rate"],
                n_bursts=size["n_bursts"],
                burst_duration=90.0,
                duplicate_probability=0.2,
            ),
        )
        self.schedule = []


WORKLOADS = {
    "farm_steady": FarmSteady,
    "shard_fanout_cold": ShardFanoutCold,
    "farm_chaos_replicated": FarmChaosReplicated,
    "farm_storm_admission": FarmStormAdmission,
}
