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
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


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
        self.records: dict[str, TaskRecord] = {}
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
        self.records[name] = TaskRecord(name=name, interval=interval)

    def start(self) -> None:
        """Start one loop per task (idempotent)."""
        if self._running:
            return
        self._running = True
        for name, (interval, check) in self._tasks.items():
            self.env.process(
                self._loop(name, interval, check), name=f"stabilize-{name}"
            )

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute(self, name: str, check: Callable[[], list[str]]) -> None:
        record = self.records[name]
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

    def _loop(self, name: str, interval: float, check):
        # Scope-acquired interval timers: tearing the task down mid-sleep
        # (incarnation crash, rejuvenation) settles the pending tick.
        with self.env.timers() as timers:
            while self._running:
                yield timers.acquire(interval)
                if not self._running:
                    return
                self._execute(name, check)
