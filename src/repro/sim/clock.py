"""Time units and helpers for the simulation clock.

Simulated time is a float number of seconds since the start of the run.
The paper's schedules are wall-clock based (sanity checks every minute,
dialog scans every 20 seconds, nightly rejuvenation at 11:30 PM), so this
module provides unit constants and day-relative helpers.
"""

from __future__ import annotations

import math

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY


def time_of_day(now: float) -> float:
    """Return seconds elapsed since the most recent simulated midnight."""
    return now % DAY


def seconds_until_time_of_day(now: float, target: float) -> float:
    """Return the delay from ``now`` until the next occurrence of ``target``.

    ``target`` is a time of day in seconds since midnight (e.g. 23.5 * HOUR
    for the paper's 11:30 PM rejuvenation).  If ``now`` is exactly at the
    target, the *next* day's occurrence is returned (a full day away).
    """
    if not 0 <= target < DAY:
        raise ValueError(f"target time of day {target!r} outside [0, DAY)")
    delta = (target - time_of_day(now)) % DAY
    return delta if delta > 0 else DAY


def delay_until(now: float, at: float) -> float:
    """The delay whose timer fires at exactly ``at``.

    ``now + (at - now)`` can round to a neighbour of ``at``; a timer that
    stands in for a chained one must fire with ``env.now == at`` to the
    bit, as the chain would.
    """
    delay = at - now
    while now + delay < at:
        delay = math.nextafter(delay, math.inf)
    while now + delay > at:
        delay = math.nextafter(delay, -math.inf)
    return delay


def format_time(now: float) -> str:
    """Render simulated time as ``Dd HH:MM:SS.mmm`` for logs and reports."""
    days, rem = divmod(now, DAY)
    hours, rem = divmod(rem, HOUR)
    minutes, seconds = divmod(rem, MINUTE)
    return (
        f"{int(days)}d {int(hours):02d}:{int(minutes):02d}:"
        f"{seconds:06.3f}"
    )
