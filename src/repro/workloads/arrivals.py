"""Arrival processes for alert workloads.

Portal alerts are human-driven: stock alerts cluster around market hours,
sports around evenings.  :class:`DiurnalProfile` modulates a base Poisson
rate over the day; :func:`poisson_arrival_times` produces plain or
modulated arrival sequences via thinning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.clock import time_of_day


@dataclass(frozen=True)
class DiurnalProfile:
    """Hour-of-day rate multipliers (24 values, mean-normalized)."""

    multipliers: tuple[float, ...]

    def __post_init__(self):
        if len(self.multipliers) != 24:
            raise ConfigurationError("need exactly 24 hourly multipliers")
        if any(m < 0 for m in self.multipliers):
            raise ConfigurationError("multipliers must be >= 0")
        if max(self.multipliers) == 0:
            raise ConfigurationError("at least one hour must be active")

    @classmethod
    def office_hours(cls) -> "DiurnalProfile":
        """Low overnight, ramping through the work day — a portal's shape."""
        shape = [
            0.2, 0.15, 0.1, 0.1, 0.15, 0.3, 0.6, 1.0,
            1.5, 1.8, 1.9, 1.8, 1.6, 1.7, 1.8, 1.7,
            1.5, 1.3, 1.2, 1.1, 0.9, 0.7, 0.5, 0.3,
        ]
        mean = sum(shape) / len(shape)
        return cls(multipliers=tuple(m / mean for m in shape))

    def rate_at(self, now: float, base_rate: float) -> float:
        hour = int(time_of_day(now) // 3600) % 24
        return base_rate * self.multipliers[hour]

    @property
    def peak_multiplier(self) -> float:
        return max(self.multipliers)


@dataclass(frozen=True)
class BurstWindow:
    """One storm burst: an elevated-rate interval inside the run window."""

    start: float
    duration: float
    rate: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError(
                f"burst duration must be > 0, got {self.duration!r}"
            )
        if self.rate < 0:
            raise ConfigurationError(
                f"burst rate must be >= 0, got {self.rate!r}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


def storm_arrival_times(
    rng: np.random.Generator,
    base_rate: float,
    duration: float,
    bursts: "list[BurstWindow] | tuple[BurstWindow, ...]" = (),
    start: float = 0.0,
) -> list[float]:
    """Alert-storm arrivals: a base Poisson stream plus burst windows.

    Each :class:`BurstWindow` superimposes an *additional* Poisson stream
    at ``burst.rate`` over its interval — the superposition of independent
    Poisson processes is itself Poisson, so inside a burst the effective
    rate is ``base_rate + burst.rate``.  This is the many-sources-at-once
    shape admission control exists for: long polite stretches punctuated
    by bursts one or two orders of magnitude over baseline.
    """
    times = list(poisson_arrival_times(rng, base_rate, duration, start))
    for burst in bursts:
        times.extend(
            poisson_arrival_times(rng, burst.rate, burst.duration, burst.start)
        )
    times.sort()
    return times


def poisson_arrival_times(
    rng: np.random.Generator,
    rate: float,
    duration: float,
    start: float = 0.0,
    profile: DiurnalProfile | None = None,
) -> list[float]:
    """Arrival times in [start, start+duration) at ``rate`` events/second.

    With a profile, uses Lewis-Shedler thinning against the peak rate so the
    result is an exact non-homogeneous Poisson process.
    """
    if rate < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate!r}")
    if duration <= 0 or rate == 0:
        return []
    if profile is None:
        times = []
        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= start + duration:
                return times
            times.append(t)
    peak = rate * profile.peak_multiplier
    times = []
    t = start
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= start + duration:
            return times
        if rng.random() <= profile.rate_at(t, rate) / peak:
            times.append(t)
