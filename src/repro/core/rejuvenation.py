"""Software rejuvenation policy (§4.2.1).

"We perform three kinds of rejuvenation tasks in MyAlertBuddy: (1) whenever
MyAlertBuddy catches an exception that cannot be handled or any of the
self-stabilization checks reveals invariant violations that cannot be
rectified, MyAlertBuddy gracefully terminates and gets restarted by the MDC.
(2) Every night at 11:30PM, MyAlertBuddy requests an orderly shutdown of all
the communication client software and terminates itself.  (3) ... users can
send IMs or emails with special keywords to explicitly trigger rejuvenation."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.clock import HOUR

#: 11:30 PM, as in the paper.
DEFAULT_NIGHTLY_TIME = 23.5 * HOUR

#: The magic keyword recognized in remote-administration IMs/emails.
DEFAULT_KEYWORD = "SIMBA-REJUVENATE"


class RejuvenationKind(enum.Enum):
    EXCEPTION = "exception"
    NIGHTLY = "nightly"
    REMOTE = "remote"


@dataclass
class RejuvenationPolicy:
    """When MyAlertBuddy should rejuvenate."""

    nightly_enabled: bool = True
    nightly_time: float = DEFAULT_NIGHTLY_TIME
    #: Frozen, so every policy can hold the default one.
    keywords: frozenset[str] = frozenset({DEFAULT_KEYWORD})
    exception_triggered: bool = True

    def matches_keyword(self, text: str) -> bool:
        """Does a remote-administration message request rejuvenation?"""
        return any(keyword in text for keyword in self.keywords)


@dataclass
class RejuvenationRecord:
    at: float
    kind: RejuvenationKind
    detail: str = ""
