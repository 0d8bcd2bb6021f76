"""Synthetic commercial-portal usage log (§1).

"We analyzed a recent one-week usage log from a commercial portal site, and
it showed that on average around 225 thousands of people received around 778
thousands of alerts every day from that site."

The generator reproduces those aggregates: a recipient population whose
per-user alert counts follow a Zipf-like distribution (a few heavy
subscribers, a long tail), a category mix over the portal's alert types, and
diurnal arrival times.  Bench E7 replays scaled-down versions of this log
through real MyAlertBuddies and reports the same per-day aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.clock import DAY
from repro.workloads.arrivals import DiurnalProfile, poisson_arrival_times

#: The paper's headline aggregates: ~225 k *distinct recipients* and ~778 k
#: alerts per day.
PAPER_DAILY_USERS = 225_000
PAPER_DAILY_ALERTS = 778_000

#: Per-user popularity skew: rank r gets weight r ** (-1 / ZIPF_EXPONENT).
ZIPF_EXPONENT = 2.0

#: Subscriber base calibrated so that, with the ZIPF_EXPONENT skew, the
#: expected number of distinct recipients per day is ≈ PAPER_DAILY_USERS
#: (heavy subscribers receive several alerts; many subscribers receive none
#: on a given day).
DEFAULT_SUBSCRIBER_BASE = 252_000

#: Category mix for a general portal (stocks dominate, as §3.3 suggests).
CATEGORY_WEIGHTS = {
    "Stocks": 0.30,
    "News": 0.20,
    "Sports": 0.15,
    "Weather": 0.12,
    "Financial news": 0.08,
    "Lottery": 0.06,
    "Career": 0.05,
    "Real estate": 0.04,
}


@dataclass(frozen=True)
class LogRecord:
    """One alert delivery in the usage log."""

    at: float
    user_id: int
    category: str


class PortalLogGenerator:
    """Reproducible synthetic portal log.

    ``n_users`` and ``alerts_per_day`` default to the paper's aggregates;
    scale both down proportionally for simulation-sized replays (the
    per-user rate ≈3.46 alerts/day is preserved).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_users: int = DEFAULT_SUBSCRIBER_BASE,
        alerts_per_day: int = PAPER_DAILY_ALERTS,
    ):
        if n_users <= 0 or alerts_per_day <= 0:
            raise ConfigurationError("population and volume must be positive")
        self.rng = rng
        self.n_users = n_users
        self.alerts_per_day = alerts_per_day
        total = sum(CATEGORY_WEIGHTS.values())
        self.categories = list(CATEGORY_WEIGHTS)
        self._category_p = np.array(
            [w / total for w in CATEGORY_WEIGHTS.values()]
        )
        # Per-user popularity: Zipf-ish weights normalized to a distribution.
        ranks = np.arange(1, n_users + 1, dtype=float)
        user_weights = ranks ** (-1.0 / ZIPF_EXPONENT)
        self._user_p = user_weights / user_weights.sum()

    @property
    def alerts_per_user_per_day(self) -> float:
        return self.alerts_per_day / self.n_users

    def generate_day(
        self, day_index: int = 0, profile: DiurnalProfile | None = None
    ) -> list[LogRecord]:
        """One simulated day of log records, sorted by time."""
        if profile is None:
            profile = DiurnalProfile.office_hours()
        start = day_index * DAY
        times = poisson_arrival_times(
            self.rng,
            rate=self.alerts_per_day / DAY,
            duration=DAY,
            start=start,
            profile=profile,
        )
        users = self.rng.choice(self.n_users, size=len(times), p=self._user_p)
        categories = self.rng.choice(
            len(self.categories), size=len(times), p=self._category_p
        )
        return [
            LogRecord(
                at=t, user_id=int(u), category=self.categories[int(c)]
            )
            for t, u, c in zip(times, users, categories)
        ]

    def stream_days(self, n_days: int) -> Iterator[list[LogRecord]]:
        for day in range(n_days):
            yield self.generate_day(day)

    @staticmethod
    def daily_summary(records: list[LogRecord]) -> dict[str, float]:
        """The two §1 aggregates plus the per-user mean, for one day."""
        users = {r.user_id for r in records}
        return {
            "alerts": float(len(records)),
            "distinct_users": float(len(users)),
            "alerts_per_user": len(records) / len(users) if users else 0.0,
        }
