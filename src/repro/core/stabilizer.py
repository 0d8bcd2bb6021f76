"""Self-stabilization: periodic invariant checks and corrections (§4.2.1).

"Since it is very difficult to anticipate all possible failures and to
detect and recover them on the spot, MyAlertBuddy incorporates
self-stabilization mechanisms that periodically check system invariants and
correct violations."

A stabilizer is a bag of named periodic tasks.  Each task callable returns a
list of corrective-action strings (empty = invariant held).  A task that
raises signals an *unrectifiable* violation; the owner's ``on_unrectifiable``
hook decides what to do (MyAlertBuddy triggers rejuvenation, §4.2.1 item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment, Membership

_INFINITY = float("inf")


@dataclass
class TaskRecord:
    """Execution history of one stabilization task."""

    name: str
    interval: float
    runs: int = 0
    corrections: list[tuple[float, str]] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)


class SelfStabilizer:
    """Periodic invariant checker."""

    def __init__(
        self,
        env: "Environment",
        on_unrectifiable: Optional[Callable[[str, Exception], None]] = None,
    ):
        self.env = env
        self.on_unrectifiable = on_unrectifiable
        self._tasks: dict[str, tuple[float, Callable[[], list[str]]]] = {}
        #: Each task's history, from its first run.
        self.records: dict[str, TaskRecord] = {}
        #: One cohort membership per interval group (cancelled by
        #: :meth:`stop`).
        self._members: tuple["Membership", ...] = ()
        self._running = False

    def add_task(
        self, name: str, interval: float, check: Callable[[], list[str]]
    ) -> None:
        """Register a periodic check.  ``check`` returns corrections made."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if name in self._tasks:
            raise ValueError(f"duplicate stabilization task {name!r}")
        self._tasks[name] = (interval, check)

    def start(self) -> None:
        """Join one cohort per task interval (idempotent); each tick runs
        that interval's tasks in task order (DESIGN §6b).  A task whose
        interval is infinite never runs, so it joins nothing."""
        if self._running:
            return
        self._running = True
        groups: dict[float, list[str]] = {}
        for name, (interval, _check) in self._tasks.items():
            if interval != _INFINITY:
                groups.setdefault(interval, []).append(name)
        self._members = tuple(
            self.env.every(interval, partial(self._tick, tuple(names)))
            for interval, names in groups.items()
        )

    def stop(self) -> None:
        """Stop ticking: every membership leaves its cohort at once."""
        self._running = False
        for member in self._members:
            member.cancel()
        self._members = ()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute(self, name: str, check: Callable[[], list[str]]) -> None:
        record = self.records.get(name)
        if record is None:
            record = self.records[name] = TaskRecord(
                name=name, interval=self._tasks[name][0]
            )
        record.runs += 1
        try:
            corrections = check()
        except Exception as exc:  # noqa: BLE001 - invariant escalation path
            record.failures.append((self.env.now, str(exc)))
            if self.on_unrectifiable is not None:
                self.on_unrectifiable(name, exc)
            return
        for correction in corrections:
            record.corrections.append((self.env.now, correction))

    def _tick(self, names: tuple[str, ...], _now: float) -> None:
        for name in names:
            if not self._running:
                return  # an earlier task's escalation stopped us
            self._execute(name, self._tasks[name][1])
