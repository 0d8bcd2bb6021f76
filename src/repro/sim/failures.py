"""Fault-injection primitives.

The paper evaluated MAB's fault tolerance against a month of naturally
occurring failures (§5).  We reproduce that evaluation by *injecting* the
same failure taxonomy on a schedule.  Components register named injection
handlers with a :class:`FaultInjector`; a faultload (see
:mod:`repro.workloads.faultload`) is a list of :class:`ScheduledFault`
entries the injector replays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class FaultKind(enum.Enum):
    """Failure taxonomy observed in the paper's one-month log (§5)."""

    #: IM service / proxy / network unavailable for an extended period.
    IM_SERVICE_OUTAGE = "im_service_outage"
    #: Client silently logged out; a simple re-logon fixes it.
    CLIENT_LOGOUT = "client_logout"
    #: Client software hung; must be killed and restarted.
    CLIENT_HANG = "client_hang"
    #: Automation pointers invalidated (e.g. client restarted underneath us).
    CLIENT_STALE_POINTER = "client_stale_pointer"
    #: Modal dialog box with a caption known to the monkey thread.
    DIALOG_POPUP = "dialog_popup"
    #: Modal dialog with a caption *not* registered — blocks until a human
    #: (the paper's two unrecovered failures were of this kind).
    UNKNOWN_DIALOG_POPUP = "unknown_dialog_popup"
    #: MAB process raises an unhandled exception / terminates.
    PROCESS_CRASH = "process_crash"
    #: MAB process stops making progress (AreYouWorking goes unanswered).
    PROCESS_HANG = "process_hang"
    #: Gradual resource exhaustion detected by self-stabilization.
    MEMORY_LEAK = "memory_leak"
    #: Whole-machine power loss (the paper's one unrecovered outage; a UPS
    #: was the fix).
    POWER_OUTAGE = "power_outage"
    #: SMTP relay unavailable.  Not in the paper's one-month log, but the
    #: chaos testkit needs it: the delivery-retry path only fires when
    #: *every* communication block fails, which requires the email backup
    #: channel to be down at routing time.
    EMAIL_OUTAGE = "email_outage"
    #: The warm-standby log-ship link between a primary and its standby is
    #: partitioned.  Appends queue as unshipped on the primary; a lease
    #: expiry during the partition promotes the standby and the fencing
    #: epoch is what keeps the still-alive primary from double-routing.
    REPLICATION_LINK_DOWN = "replication_link_down"
    #: Adversarial transport pulses (not in the paper's log; grounded in the
    #: stabilizing-communication literature): for a bounded window the
    #: targeted channel reorders packets inside a latency-inversion horizon,
    #: amplifies sends into duplicate copies with independent delays, or
    #: flips payload bits (flagged at receive).  ``params`` may carry
    #: explicit :class:`~repro.net.adversary.AdversaryModel` knobs.
    LINK_REORDER = "link_reorder"
    LINK_DUPLICATE = "link_duplicate"
    LINK_CORRUPT = "link_corrupt"


@dataclass(frozen=True)
class ScheduledFault:
    """One fault occurrence in a faultload."""

    at: float
    kind: FaultKind
    target: str
    duration: float = 0.0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.at < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.at!r}")
        if self.duration < 0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration!r}"
            )


@dataclass
class InjectionRecord:
    """Audit record of a fault actually injected during a run."""

    fault: ScheduledFault
    injected_at: float
    accepted: bool
    detail: str = ""


FaultHandler = Callable[[ScheduledFault], bool]


class FaultInjector:
    """Replays a fault schedule against registered targets.

    A handler returns True if the fault was injected (the target existed and
    was in a state where the fault applies), False otherwise; both outcomes
    are recorded so benches can report attempted vs. effective faults.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._handlers: dict[str, FaultHandler] = {}
        self.records: list[InjectionRecord] = []

    def register(self, target: str, handler: FaultHandler) -> None:
        """Register (or replace) the injection handler for ``target``."""
        self._handlers[target] = handler

    def load(self, faults: list[ScheduledFault]) -> None:
        """Schedule every fault in ``faults`` for replay.

        A faultload referencing a target nobody registered a handler for is
        almost always a wiring mistake, so it raises a
        :class:`ConfigurationError` up front rather than silently recording
        "no handler" rejections fault by fault.
        """
        missing = sorted({f.target for f in faults} - set(self._handlers))
        if missing:
            raise ConfigurationError(
                "faultload references unregistered injection targets: "
                + ", ".join(missing)
                + f" (registered: {sorted(self._handlers) or 'none'})"
            )
        for fault in sorted(faults, key=lambda f: f.at):
            if fault.at < self.env.now:
                raise ConfigurationError(
                    f"fault at {fault.at} is in the past (now={self.env.now})"
                )
            self.env.process(self._fire(fault), name=f"fault@{fault.at}")

    def inject_now(self, fault: ScheduledFault) -> bool:
        """Inject a single fault immediately (used by unit tests)."""
        handler = self._handlers.get(fault.target)
        if handler is None:
            self.records.append(
                InjectionRecord(fault, self.env.now, False, "no handler")
            )
            return False
        accepted = bool(handler(fault))
        self.records.append(InjectionRecord(fault, self.env.now, accepted))
        return accepted

    def _fire(self, fault: ScheduledFault):
        delay = fault.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.inject_now(fault)
