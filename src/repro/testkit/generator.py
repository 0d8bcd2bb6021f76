"""Seeded random fault-schedule generation over the full taxonomy.

A :class:`FaultScheduleGenerator` turns (seed, users, window, intensity)
into a :class:`~repro.sim.failures.ScheduledFault` list.  Unlike
:func:`~repro.workloads.faultload.generate_month_faultload`, which
reproduces the paper's §5 category *mix*, this generator searches the space
of adversarial interleavings:

- **base faults** arrive Poisson over the window, each drawing a kind from
  the whole :class:`~repro.sim.failures.FaultKind` taxonomy;
- **bursts** stack extra compound faults (usually different kinds, often
  different targets) within seconds of a base fault — the overlapping
  IM-outage-during-hang, power-loss-mid-outage days;
- **recovery chasers** inject a follow-up fault shortly after a crash,
  hang or power loss, while the MDC/replay machinery is mid-recovery —
  the interleavings hand-written schedules never cover.

Everything is drawn from one ``numpy`` generator seeded in the
constructor, so a (seed, parameters) pair always yields the identical
schedule — which is what makes sweep results reproducible and shrunk
schedules pinnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.clock import HOUR, MINUTE
from repro.sim.failures import FaultKind, ScheduledFault
from repro.workloads.arrivals import BurstWindow, storm_arrival_times
from repro.workloads.faultload import (
    KNOWN_DIALOG_CAPTIONS,
    TARGET_EMAIL_SERVICE,
    TARGET_HOST,
    TARGET_IM_CLIENT,
    TARGET_IM_SERVICE,
    TARGET_MAB,
    TARGET_REPLICATION_LINK,
    TARGET_SCREEN,
    TARGET_STANDBY_HOST,
    UNKNOWN_DIALOG_CAPTIONS,
)

#: Kinds that hit one user's slice of the farm (target carries the user).
PER_USER_KINDS = (
    FaultKind.CLIENT_LOGOUT,
    FaultKind.CLIENT_HANG,
    FaultKind.CLIENT_STALE_POINTER,
    FaultKind.PROCESS_CRASH,
    FaultKind.PROCESS_HANG,
    FaultKind.MEMORY_LEAK,
)
#: Kinds whose injection leaves the system recovering for a while — the
#: anchors recovery-chaser faults are scheduled after.
RECOVERY_KINDS = (
    FaultKind.PROCESS_CRASH,
    FaultKind.PROCESS_HANG,
    FaultKind.POWER_OUTAGE,
    FaultKind.IM_SERVICE_OUTAGE,
)


def per_user_target(kind: FaultKind, user: str) -> str:
    """Injection-target name for a per-user fault (``mab:alice``)."""
    if kind in (
        FaultKind.CLIENT_LOGOUT,
        FaultKind.CLIENT_HANG,
        FaultKind.CLIENT_STALE_POINTER,
    ):
        return f"{TARGET_IM_CLIENT}:{user}"
    return f"{TARGET_MAB}:{user}"


@dataclass(frozen=True)
class ChaosIntensity:
    """How hard the generator leans on the system.

    The defaults are calibrated for a 2-hour window on a handful of
    tenants: a fault every ~8 minutes, a quarter of them seeding compound
    bursts.  Scale ``faults_per_hour`` up (or the run window down) to turn
    a smoke sweep into a soak.
    """

    faults_per_hour: float = 8.0
    #: Probability that a base fault seeds a burst of compound faults.
    burst_probability: float = 0.25
    #: 1..burst_max extra faults stacked inside ``burst_window``.
    burst_max: int = 3
    burst_window: float = 45.0
    #: Probability of a follow-up fault while recovery from a crash /
    #: hang / outage is still in flight.
    recovery_chaser_probability: float = 0.35
    #: Chaser lands this long after its anchor (recovery is mid-flight).
    recovery_chaser_delay: tuple[float, float] = (5.0, 90.0)
    #: Service-outage durations (IM and email alike).
    outage_duration: tuple[float, float] = (30.0, 10 * MINUTE)
    #: Power-outage durations (bounded so the host is back well before the
    #: settle window ends).
    power_duration: tuple[float, float] = (MINUTE, 8 * MINUTE)
    #: Leaked megabytes per MEMORY_LEAK fault (over the 200 MB default
    #: limit triggers rejuvenation; under it just loads the heap).
    leak_megabytes: tuple[float, float] = (100.0, 400.0)
    #: Replication mode: how long the log-ship link stays partitioned.
    #: The upper bound comfortably exceeds the default 20 s lease, so some
    #: partitions promote the standby while the primary is still alive —
    #: the split-brain-shaped interleaving epoch fencing exists for.
    link_down_duration: tuple[float, float] = (10.0, 5 * MINUTE)
    #: Replication mode: probability a primary-host power loss seeds a
    #: *failover storm* — a standby-host crash landing while promotion /
    #: takeover recovery is still in flight.
    failover_storm_probability: float = 0.5
    #: The storm's standby crash lands this long after the primary's (the
    #: default lease expires at ~20 s, so the window straddles promotion).
    standby_crash_delay: tuple[float, float] = (8.0, 45.0)
    #: Adversarial mode: how long one LINK_REORDER / LINK_DUPLICATE /
    #: LINK_CORRUPT pulse keeps a channel's adversary knobs turned up.
    adversary_pulse_duration: tuple[float, float] = (30.0, 4 * MINUTE)
    #: Adversarial mode: per-packet effect probability inside a pulse.
    adversary_probability: tuple[float, float] = (0.1, 0.5)
    #: Adversarial mode: reorder-pulse latency-inversion horizon (seconds).
    adversary_horizon: tuple[float, float] = (0.5, 10.0)

    def __post_init__(self):
        if self.faults_per_hour < 0:
            raise ConfigurationError(
                f"faults_per_hour must be >= 0, got {self.faults_per_hour}"
            )
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ConfigurationError(
                f"burst_probability must be in [0, 1], got {self.burst_probability}"
            )
        if self.burst_max < 1:
            raise ConfigurationError(
                f"burst_max must be >= 1, got {self.burst_max}"
            )
        if not 0.0 <= self.recovery_chaser_probability <= 1.0:
            raise ConfigurationError(
                "recovery_chaser_probability must be in [0, 1], got "
                f"{self.recovery_chaser_probability}"
            )


#: Relative draw weights over the taxonomy.  Service outages and process
#: faults dominate (as in the paper's log); unknown dialogs are rare
#: because each one parks every client on the shared screen until the
#: simulated operator responds.
KIND_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.IM_SERVICE_OUTAGE: 2.0,
    FaultKind.EMAIL_OUTAGE: 1.5,
    FaultKind.CLIENT_LOGOUT: 2.0,
    FaultKind.CLIENT_HANG: 1.5,
    FaultKind.CLIENT_STALE_POINTER: 1.0,
    FaultKind.DIALOG_POPUP: 1.0,
    FaultKind.UNKNOWN_DIALOG_POPUP: 0.25,
    FaultKind.PROCESS_CRASH: 2.5,
    FaultKind.PROCESS_HANG: 1.5,
    FaultKind.MEMORY_LEAK: 0.75,
    FaultKind.POWER_OUTAGE: 0.5,
}

#: Extra weights layered on in replication mode: link partitions join the
#: taxonomy and host power loss becomes a *featured* fault (it is exactly
#: what the warm standby exists to survive).  Kept out of
#: :data:`KIND_WEIGHTS` so non-replicated schedules are bit-for-bit
#: unchanged for a fixed seed.
REPLICATION_KIND_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.REPLICATION_LINK_DOWN: 1.5,
    FaultKind.POWER_OUTAGE: 2.0,
}

#: Extra weights layered on in adversarial mode: windows during which a
#: channel reorders, duplicates or corrupts packets in flight.  A separate
#: dict for the same reason as :data:`REPLICATION_KIND_WEIGHTS` — the
#: default generator never draws these kinds, so pre-adversary schedules
#: stay bit-for-bit unchanged for a fixed seed.
ADVERSARIAL_KIND_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.LINK_REORDER: 1.0,
    FaultKind.LINK_DUPLICATE: 1.0,
    FaultKind.LINK_CORRUPT: 0.75,
}

#: The adversarial pulse kinds (handlers map these to ``adversary_pulse``).
ADVERSARY_FAULT_KINDS = frozenset(ADVERSARIAL_KIND_WEIGHTS)


class FaultScheduleGenerator:
    """Sample random fault schedules for a fixed set of users."""

    def __init__(
        self,
        seed: int,
        users: list[str],
        duration: float = 2 * HOUR,
        start: float = 5 * MINUTE,
        intensity: ChaosIntensity | None = None,
        replication: bool = False,
        adversarial: bool = False,
    ):
        if not users:
            raise ConfigurationError("at least one user is required")
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.seed = int(seed)
        self.users = list(users)
        self.duration = float(duration)
        self.start = float(start)
        self.intensity = intensity if intensity is not None else ChaosIntensity()
        self.replication = bool(replication)
        self.adversarial = bool(adversarial)
        self.rng = np.random.default_rng(self.seed)
        weight_table = dict(KIND_WEIGHTS)
        if self.replication:
            weight_table.update(REPLICATION_KIND_WEIGHTS)
        if self.adversarial:
            weight_table.update(ADVERSARIAL_KIND_WEIGHTS)
        kinds = list(weight_table)
        weights = np.array([weight_table[k] for k in kinds], dtype=float)
        self._kinds = kinds
        self._kind_probs = weights / weights.sum()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _draw_kind(self) -> FaultKind:
        return self._kinds[
            int(self.rng.choice(len(self._kinds), p=self._kind_probs))
        ]

    def _draw_user(self) -> str:
        return self.users[int(self.rng.integers(0, len(self.users)))]

    def _uniform(self, bounds: tuple[float, float]) -> float:
        return float(self.rng.uniform(bounds[0], bounds[1]))

    def make_fault(self, at: float) -> ScheduledFault:
        """One concrete fault at ``at``, of a drawn kind."""
        intensity = self.intensity
        kind = self._draw_kind()
        if kind is FaultKind.IM_SERVICE_OUTAGE:
            return ScheduledFault(
                at=at, kind=kind, target=TARGET_IM_SERVICE,
                duration=self._uniform(intensity.outage_duration),
            )
        if kind is FaultKind.EMAIL_OUTAGE:
            return ScheduledFault(
                at=at, kind=kind, target=TARGET_EMAIL_SERVICE,
                duration=self._uniform(intensity.outage_duration),
            )
        if kind is FaultKind.POWER_OUTAGE:
            target = TARGET_HOST
            if self.replication and self.rng.random() < 0.4:
                # Sometimes the *standby's* machine loses power instead of
                # the primary pool — promotion must then wait for it, and a
                # dead standby must never be promoted.
                target = f"{TARGET_STANDBY_HOST}:{self._draw_user()}"
            return ScheduledFault(
                at=at, kind=kind, target=target,
                duration=self._uniform(intensity.power_duration),
            )
        if kind is FaultKind.REPLICATION_LINK_DOWN:
            return ScheduledFault(
                at=at, kind=kind,
                target=f"{TARGET_REPLICATION_LINK}:{self._draw_user()}",
                duration=self._uniform(intensity.link_down_duration),
            )
        if kind in ADVERSARY_FAULT_KINDS:
            return self._make_adversary_pulse(at, kind)
        if kind is FaultKind.DIALOG_POPUP:
            caption, button = KNOWN_DIALOG_CAPTIONS[
                int(self.rng.integers(0, len(KNOWN_DIALOG_CAPTIONS)))
            ]
            return ScheduledFault(
                at=at, kind=kind, target=TARGET_SCREEN,
                params={"caption": caption, "button": button},
            )
        if kind is FaultKind.UNKNOWN_DIALOG_POPUP:
            caption = UNKNOWN_DIALOG_CAPTIONS[
                int(self.rng.integers(0, len(UNKNOWN_DIALOG_CAPTIONS)))
            ]
            return ScheduledFault(
                at=at, kind=kind, target=TARGET_SCREEN,
                params={"caption": caption, "button": "OK"},
            )
        user = self._draw_user()
        params = {}
        if kind is FaultKind.MEMORY_LEAK:
            params = {
                "megabytes": round(self._uniform(intensity.leak_megabytes), 1)
            }
        return ScheduledFault(
            at=at, kind=kind, target=per_user_target(kind, user), params=params,
        )

    def _make_adversary_pulse(
        self, at: float, kind: FaultKind
    ) -> ScheduledFault:
        """One bounded window of channel misbehaviour.

        The pulse targets a shared service channel — or, in replication
        mode, sometimes one tenant's log-ship link, the path the
        stabilizing transport exists to defend.  Params pin the knobs the
        handler hands to :meth:`~repro.net.channel.ChannelBase
        .adversary_pulse`, so a shrunk schedule replays the identical
        window.
        """
        intensity = self.intensity
        if self.replication and self.rng.random() < 0.5:
            target = f"{TARGET_REPLICATION_LINK}:{self._draw_user()}"
        else:
            target = (TARGET_IM_SERVICE, TARGET_EMAIL_SERVICE)[
                int(self.rng.integers(0, 2))
            ]
        params: dict = {
            "probability": round(
                self._uniform(intensity.adversary_probability), 3
            )
        }
        if kind is FaultKind.LINK_REORDER:
            params["horizon"] = round(
                self._uniform(intensity.adversary_horizon), 2
            )
        elif kind is FaultKind.LINK_DUPLICATE:
            params["copies"] = int(self.rng.integers(2, 6))
        return ScheduledFault(
            at=at, kind=kind, target=target,
            duration=self._uniform(intensity.adversary_pulse_duration),
            params=params,
        )

    def make_failover_storm(self, at: float) -> list[ScheduledFault]:
        """The nastiest replicated-pair interleaving, as one compound.

        The primary's host loses power (so with alerts flowing every few
        tens of seconds, some run dies between log-append and ack), and
        while the lease is expiring / the standby is mid-promotion-takeover
        the standby's host crashes too.  Half the time the ship link was
        already partitioned when the primary died, so the standby promotes
        from a mirror missing the freshest unshipped appends.
        """
        intensity = self.intensity
        user = self._draw_user()
        storm = []
        if self.rng.random() < 0.5:
            storm.append(
                ScheduledFault(
                    at=max(0.0, at - self._uniform((1.0, 30.0))),
                    kind=FaultKind.REPLICATION_LINK_DOWN,
                    target=f"{TARGET_REPLICATION_LINK}:{user}",
                    duration=self._uniform(intensity.link_down_duration),
                )
            )
        storm.append(
            ScheduledFault(
                at=at, kind=FaultKind.POWER_OUTAGE, target=TARGET_HOST,
                duration=self._uniform(intensity.power_duration),
            )
        )
        storm.append(
            ScheduledFault(
                at=at + self._uniform(intensity.standby_crash_delay),
                kind=FaultKind.POWER_OUTAGE,
                target=f"{TARGET_STANDBY_HOST}:{user}",
                duration=self._uniform(intensity.power_duration),
            )
        )
        return storm

    def generate(self) -> list[ScheduledFault]:
        """One full schedule: base Poisson arrivals + bursts + chasers."""
        intensity = self.intensity
        expected = intensity.faults_per_hour * self.duration / HOUR
        n_base = int(self.rng.poisson(expected))
        base_times = np.sort(
            self.rng.uniform(self.start, self.start + self.duration, n_base)
        )
        faults: list[ScheduledFault] = []
        for at in base_times:
            fault = self.make_fault(float(at))
            if (
                self.replication
                and fault.kind is FaultKind.POWER_OUTAGE
                and fault.target == TARGET_HOST
                and self.rng.random() < intensity.failover_storm_probability
            ):
                faults.extend(self.make_failover_storm(fault.at))
            else:
                faults.append(fault)
            if self.rng.random() < intensity.burst_probability:
                extra = int(self.rng.integers(1, intensity.burst_max + 1))
                for _ in range(extra):
                    offset = self._uniform((0.5, intensity.burst_window))
                    faults.append(self.make_fault(float(at) + offset))
            if (
                fault.kind in RECOVERY_KINDS
                and self.rng.random() < intensity.recovery_chaser_probability
            ):
                delay = self._uniform(intensity.recovery_chaser_delay)
                anchor_end = fault.at + max(fault.duration, 0.0)
                faults.append(self.make_fault(anchor_end + delay))
        return sorted(faults, key=lambda f: f.at)

    def window_end(self, schedule: list[ScheduledFault]) -> float:
        """When the last fault (including its duration) is over."""
        if not schedule:
            return self.start
        return max(f.at + f.duration for f in schedule)


# ----------------------------------------------------------------------
# Alert-storm traffic (burst arrivals from many sources at once)
# ----------------------------------------------------------------------

#: Seed-sequence spice for the storm traffic stream, so storm traffic and
#: fault schedules generated from the same run seed stay independent.
_STORM_STREAM = 0x73746F72  # "stor"


@dataclass(frozen=True)
class StormConfig:
    """Alert-storm traffic shape (JSON-serializable, reproducer-pinnable).

    Unlike the steady round-robin chaos workload, a storm run drives the
    farm from ``n_sources`` independent sources whose arrivals spike in
    shared burst windows — many sources at once, which is what overloads
    a per-recipient pipeline — and re-submits a fraction of alerts as
    duplicate copies (the upstream at-least-once behaviour dedup keys
    exist for).
    """

    n_sources: int = 4
    #: Farm-wide base arrival rate (alerts/second) outside bursts.
    base_rate: float = 0.02
    #: *Additional* farm-wide rate inside each burst window.
    burst_rate: float = 0.8
    n_bursts: int = 3
    burst_duration: float = 60.0
    #: Probability an arrival re-submits the recipient's previous alert
    #: (a duplicate copy from the same source) instead of a fresh one.
    duplicate_probability: float = 0.15
    #: Severity mix (the remainder is routine — the only shed-eligible
    #: class under the default admission config).
    important_probability: float = 0.15
    critical_probability: float = 0.05

    def __post_init__(self):
        if self.n_sources < 1:
            raise ConfigurationError(
                f"n_sources must be >= 1, got {self.n_sources}"
            )
        for name in ("duplicate_probability", "important_probability",
                     "critical_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value!r}"
                )


@dataclass(frozen=True)
class StormEvent:
    """One storm arrival: which source hits which user, and how."""

    at: float
    source: int
    user: str
    severity: str
    #: Re-submit the user's previous alert from its original source
    #: instead of emitting a fresh one.
    duplicate: bool


class StormTrafficGenerator:
    """Sample a deterministic alert-storm event sequence for a fixed user set.

    Everything is drawn from one ``numpy`` generator seeded from
    ``(seed, storm-stream)``, so a (seed, config) pair always yields the
    identical traffic — and never perturbs the fault-schedule stream
    seeded from the bare run seed.
    """

    def __init__(
        self,
        seed: int,
        users: list[str],
        config: StormConfig | None = None,
        duration: float = 2 * HOUR,
        start: float = 5 * MINUTE,
    ):
        if not users:
            raise ConfigurationError("at least one user is required")
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.seed = int(seed)
        self.users = list(users)
        self.config = config if config is not None else StormConfig()
        self.duration = float(duration)
        self.start = float(start)
        self.rng = np.random.default_rng([self.seed, _STORM_STREAM])

    def burst_windows(self) -> list[BurstWindow]:
        """The shared burst windows every source's arrivals spike inside."""
        config = self.config
        latest = max(self.start, self.start + self.duration
                     - config.burst_duration)
        return [
            BurstWindow(
                start=float(self.rng.uniform(self.start, latest)),
                duration=config.burst_duration,
                rate=config.burst_rate,
            )
            for _ in range(config.n_bursts)
        ]

    def generate(self) -> Iterator[StormEvent]:
        """One full storm: burst-shaped arrivals fanned over the sources,
        drawn one arrival at a time as the caller iterates, so an emitted
        arrival need not outlive its emission.  The draws come from this
        generator's own stream, so when they happen changes none of them.
        """
        config = self.config
        bursts = self.burst_windows()
        times = storm_arrival_times(
            self.rng, config.base_rate, self.duration, bursts, self.start
        )
        for at in times:
            severity = "routine"
            roll = float(self.rng.random())
            if roll < config.critical_probability:
                severity = "critical"
            elif roll < config.critical_probability + config.important_probability:
                severity = "important"
            yield StormEvent(
                at=float(at),
                source=int(self.rng.integers(0, config.n_sources)),
                user=self.users[int(self.rng.integers(0, len(self.users)))],
                severity=severity,
                duplicate=bool(
                    self.rng.random() < config.duplicate_probability
                ),
            )
