"""Design-choice ablations called out in DESIGN.md §5.

- **Ack-timeout sweep (A1)**: the block ``ack_timeout`` trades premature
  fallback (too small: acks still in flight when the block gives up →
  duplicate deliveries, wasted messages) against stall time when the
  receiver really is down (too large: every failure costs the full wait).
- **Log-write-latency sweep (A2)**: the pessimistic-log write sits on the
  ack path; the measured ack RTT should be one-way + write + one-way, which
  is exactly the decomposition behind the paper's 1.5 s figure.
- **Throughput sweeps (A4)**: one MAB is a sequential daemon (§4:
  log-before-ack, classify, route, wait for the block outcome, one alert at
  a time); the first sweep finds where it saturates, around 0.2 alerts/s
  with an acknowledging user in the loop.  SIMBA scales by *multiplying
  daemons*, not by speeding one up: the second sweep runs a
  :class:`~repro.core.farm.BuddyFarm` at growing tenant counts and shows
  aggregate delivered throughput growing near-linearly with users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.delivery_modes import im_ack_then_email
from repro.core.farm import FarmProfile
from repro.metrics.stats import Summary, summarize
from repro.sim.clock import MINUTE
from repro.testkit.parallel import fanout
from repro.workloads.arrivals import poisson_arrival_times
from repro.world import SimbaWorld, WorldConfig


@dataclass
class AckTimeoutPoint:
    """One sweep point of experiment A1."""

    ack_timeout: float
    delivered_ratio: float
    premature_fallbacks: int
    fallbacks_during_outage: int
    duplicates_at_mab: int
    mean_source_latency: float


def run_ack_timeout_sweep(
    timeouts: tuple[float, ...] = (2.0, 5.0, 15.0, 60.0),
    n_alerts: int = 150,
    seed: int = 0,
) -> list[AckTimeoutPoint]:
    """A1: sweep the source→MAB ack timeout under periodic MAB hangs.

    Workload: one alert every 30 s; every 20 minutes the MAB process hangs
    until the MDC's probe restarts it (~1-4 minutes).  A hang is the case
    the timeout exists for: the IM *submission* succeeds (the client is
    still logged in) but no acknowledgement ever comes, so the block waits
    out its full ``ack_timeout`` before falling back.

    - Too small a timeout → *premature* fallbacks (and duplicate deliveries
      at MAB) while the IM path was actually healthy.
    - Too large a timeout → every hang-window alert stalls for the full
      wait before the email fallback fires (latency tail).
    """
    points = []
    for timeout in timeouts:
        world = SimbaWorld(WorldConfig(seed=seed, email_loss=0.0, sms_loss=0.0))
        user = world.create_user("alice", present=True)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("News", user, "normal", keywords=["News"])
        world.start_mdc(deployment, check_interval=60.0)
        source = world.create_source("portal")
        source.mode = im_ack_then_email(ack_timeout=timeout)
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")

        hang_windows: list[tuple[float, float]] = []
        runs = []

        def hangs(env):
            while True:
                yield env.timeout(20 * MINUTE)
                current = deployment.current
                if current is not None and current.alive:
                    start = env.now
                    current.hang()
                    hang_windows.append((start, start + 4 * MINUTE))

        def emitter(env):
            for index in range(n_alerts):
                runs.extend(source.emit("News", f"h{index}", "b")[1])
                yield env.timeout(30.0)

        world.env.process(hangs(world.env))
        world.env.process(emitter(world.env))
        world.run(until=n_alerts * 30.0 + 30 * MINUTE)

        outcomes = [run.value for run in runs if run.processed]
        premature = during_outage = 0
        latencies = []
        for outcome in outcomes:
            latencies.append(outcome.elapsed)
            if outcome.delivered_via == 1:
                started = outcome.started_at
                in_outage = any(
                    start - timeout <= started <= end + 60.0
                    for start, end in hang_windows
                )
                if in_outage:
                    during_outage += 1
                else:
                    premature += 1
        points.append(
            AckTimeoutPoint(
                ack_timeout=timeout,
                delivered_ratio=(
                    sum(1 for o in outcomes if o.delivered) / len(outcomes)
                ),
                premature_fallbacks=premature,
                fallbacks_during_outage=during_outage,
                duplicates_at_mab=deployment.journal.count(
                    "duplicate_incoming"
                ),
                mean_source_latency=summarize(latencies).mean,
            )
        )
    return points


@dataclass
class LogLatencyPoint:
    """One sweep point of experiment A2."""

    write_latency: float
    ack_rtt: Summary


def run_log_latency_sweep(
    write_latencies: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0),
    n_alerts: int = 120,
    seed: int = 0,
) -> list[LogLatencyPoint]:
    """A2: ack RTT as a function of the pessimistic-log write latency."""
    points = []
    for write_latency in write_latencies:
        world = SimbaWorld(
            WorldConfig(seed=seed, log_write_latency=write_latency)
        )
        user = world.create_user("alice", present=True)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("News", user, "normal", keywords=["News"])
        deployment.launch()
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")
        runs = []

        def emitter(env):
            for index in range(n_alerts):
                runs.extend(source.emit("News", f"h{index}", "b")[1])
                yield env.timeout(20.0)

        world.env.process(emitter(world.env))
        world.run(until=n_alerts * 20.0 + 5 * MINUTE)
        rtts = [
            run.value.blocks[0].elapsed
            for run in runs
            if run.processed and run.value.delivered_via == 0
        ]
        points.append(
            LogLatencyPoint(
                write_latency=write_latency, ack_rtt=summarize(rtts)
            )
        )
    return points


#: The single-daemon service ceiling (alerts/s) the saturation sweep
#: demonstrates and the farm sweep is measured against.
SINGLE_DAEMON_CEILING = 0.2


@dataclass
class SaturationPoint:
    """One offered rate of the A4 single-daemon saturation sweep."""

    rate: float
    offered: int
    delivered: int
    on_time_ratio: float
    latency: Summary


def run_daemon_saturation_sweep(
    rates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4),
    duration: float = 30 * MINUTE,
    on_time: float = 60.0,
    seed: int = 0,
) -> list[SaturationPoint]:
    """A4 (single daemon): Poisson arrivals at growing rates into one MAB.

    Nothing is lost at any rate — the daemon queues — so the ceiling shows
    as latency: past it the on-time share collapses.
    """
    points = []
    for rate in rates:
        world = SimbaWorld(WorldConfig(seed=seed, email_loss=0.0, sms_loss=0.0))
        user = world.create_user("alice", present=True)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("News", user, "normal", keywords=["News"])
        deployment.launch()
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")

        times = poisson_arrival_times(
            world.rngs.stream("arrivals"), rate=rate, duration=duration
        )

        def emitter(env):
            for at in times:
                if at > env.now:
                    yield env.timeout(at - env.now)
                source.emit("News", f"h{env.now:.0f}", "b")

        world.env.process(emitter(world.env))
        # Generous drain time so queued alerts can finish.
        world.run(until=duration + 60 * MINUTE)
        latencies = [r.latency for r in user.receipts if not r.duplicate]
        points.append(
            SaturationPoint(
                rate=rate,
                offered=len(times),
                delivered=len(latencies),
                on_time_ratio=(
                    sum(1 for lat in latencies if lat <= on_time) / len(times)
                    if times
                    else 0.0
                ),
                latency=summarize(latencies),
            )
        )
    return points


@dataclass
class FarmThroughputPoint:
    """One sweep point of the A4 farm-scaling experiment."""

    users: int
    offered: int
    delivered: int
    duration: float
    on_time_ratio: float
    latency: Summary

    @property
    def aggregate_rate(self) -> float:
        """Delivered alerts/s across the whole farm."""
        return self.delivered / self.duration

    @property
    def ceiling_multiple(self) -> float:
        """The aggregate rate in single-daemon ceilings."""
        return self.aggregate_rate / SINGLE_DAEMON_CEILING


def _farm_throughput_point(spec: dict) -> FarmThroughputPoint:
    """One sweep point (one farm size) — module-level so the A4 sweep can
    fan points out across a process pool."""
    n_users = spec["n_users"]
    per_user_rate = spec["per_user_rate"]
    duration = spec["duration"]
    on_time = spec["on_time"]
    seed = spec["seed"]
    world = SimbaWorld(
        WorldConfig(seed=seed, email_loss=0.0, sms_loss=0.0)
    )
    farm = world.create_farm(
        profile=FarmProfile(accept_sources=("portal",))
    )
    farm.add_users(n_users)
    source = world.create_source("portal")
    farm.launch_all()

    arrivals = sorted(
        (at, tenant.index)
        for tenant in farm
        for at in poisson_arrival_times(
            world.rngs.stream(f"arrivals-{tenant.name}"),
            rate=per_user_rate,
            duration=duration,
        )
    )

    def emitter(env, arrivals=arrivals):
        for at, index in arrivals:
            if at > env.now:
                yield env.timeout(at - env.now)
            tenant = farm.tenant_at(index)
            source.emit_to(tenant.book, "News", f"h{env.now:.0f}", "b")

    world.env.process(emitter(world.env), name="farm-emitter")
    # Generous drain window so queued alerts can finish.
    world.run(until=duration + 30 * MINUTE)

    received = farm.receipts(unique=True)
    latencies = [r.latency for r in received]
    return FarmThroughputPoint(
        users=n_users,
        offered=len(arrivals),
        delivered=len(received),
        duration=duration,
        on_time_ratio=(
            sum(1 for lat in latencies if lat <= on_time)
            / len(arrivals)
            if arrivals
            else 0.0
        ),
        latency=summarize(latencies),
    )


def run_farm_throughput_sweep(
    user_counts: tuple[int, ...] = (1, 10, 50, 100),
    per_user_rate: float = 0.12,
    duration: float = 10 * MINUTE,
    on_time: float = 60.0,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> list[FarmThroughputPoint]:
    """A4 (farm): aggregate throughput as the tenant count grows.

    Each tenant receives its own Poisson stream at ``per_user_rate`` —
    comfortably below the single-daemon ceiling — so any throughput limit
    the sweep finds is architectural, not per-user overload.  Per-user
    arrival streams come from the world's named RNG registry, so the
    workload for user *k* is identical at every farm size — and every
    sweep point is a fully independent world, so ``jobs > 1`` runs points
    in parallel processes with results merged in ``user_counts`` order.
    """
    specs = [
        dict(
            n_users=n_users,
            per_user_rate=per_user_rate,
            duration=duration,
            on_time=on_time,
            seed=seed,
        )
        for n_users in user_counts
    ]
    return fanout(_farm_throughput_point, specs, jobs=jobs)
