"""Alert filtering: enable/disable and delivery-time constraints (§3.3, §4.2).

"Enabling and disabling of some categories of alerts and specifying delivery
time constraints can also be conveniently and consistently performed with
the alert buddy."  MyAlertBuddy is "a personal alert filter that temporarily
blocks unwanted alerts, which might have been useful before and may be
useful in the future" — so filtering is *suppression*, never unsubscription:
the decision records why an alert was withheld.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.clock import DAY, time_of_day


@dataclass(frozen=True)
class TimeWindow:
    """A daily time window [start, end) in seconds since midnight.

    Windows may wrap midnight (start > end), e.g. a 22:00–07:00 quiet window.
    """

    start: float
    end: float

    def __post_init__(self):
        for value in (self.start, self.end):
            if not 0 <= value < DAY:
                raise ConfigurationError(
                    f"time-of-day {value!r} outside [0, 86400)"
                )
        if self.start == self.end:
            raise ConfigurationError("empty time window (start == end)")

    def contains(self, now: float) -> bool:
        tod = time_of_day(now)
        if self.start < self.end:
            return self.start <= tod < self.end
        return tod >= self.start or tod < self.end


class FilterDecision(enum.Enum):
    """Why an alert was passed or withheld."""

    DELIVER = "deliver"
    CATEGORY_DISABLED = "category_disabled"
    OUTSIDE_DELIVERY_WINDOW = "outside_delivery_window"


#: What a fresh policy disables: one shared empty set, not one each.
_NOTHING_DISABLED: frozenset[str] = frozenset()


class FilterPolicy:
    """Per-category suppression state for one user."""

    def __init__(self):
        #: Replaced, never changed in place, so it starts shared.
        self._disabled: frozenset[str] = _NOTHING_DISABLED
        #: category → window during which delivery is ALLOWED.  No entry
        #: means deliver at any time.
        self._windows: dict[str, TimeWindow] = {}

    def disable_category(self, category: str) -> None:
        """Temporarily block a category ("avoid distractions", §3.3)."""
        self._disabled = self._disabled | {category}

    def enable_category(self, category: str) -> None:
        self._disabled = self._disabled - {category}

    def is_disabled(self, category: str) -> bool:
        return category in self._disabled

    def set_delivery_window(self, category: str, window: TimeWindow) -> None:
        """Only deliver ``category`` inside ``window`` each day."""
        self._windows[category] = window

    def clear_delivery_window(self, category: str) -> None:
        self._windows.pop(category, None)

    def evaluate(self, category: str, now: float) -> FilterDecision:
        """Decide whether an alert of ``category`` may be delivered at ``now``."""
        if category in self._disabled:
            return FilterDecision.CATEGORY_DISABLED
        window = self._windows.get(category)
        if window is not None and not window.contains(now):
            return FilterDecision.OUTSIDE_DELIVERY_WINDOW
        return FilterDecision.DELIVER
