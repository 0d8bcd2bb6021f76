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
    from repro.sim.events import Timeout
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
        #: Each running task's armed tick (cancelled by :meth:`stop`).
        self._pending: dict[str, "Timeout"] = {}
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
        """Start one timer chain per task (idempotent).

        The chains are armed from one zero-delay kick rather than inline,
        so every tick keeps its (time, sequence) place (DESIGN §6b).
        """
        if self._running:
            return
        self._running = True
        kick = self.env.event()
        kick.callbacks.append(self._arm_all)
        kick.succeed()

    def stop(self) -> None:
        """Stop every chain and cancel its pending tick."""
        self._running = False
        for timer in self._pending.values():
            timer.cancel()
        self._pending.clear()

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

    def _arm_all(self, _kick) -> None:
        if self._running:
            for name in self._tasks:
                self._arm(name)

    def _arm(self, name: str) -> None:
        timer = self.env.timeout(self._tasks[name][0], name)
        timer.callbacks.append(self._tick)
        self._pending[name] = timer

    def _tick(self, timer) -> None:
        name = timer.value
        del self._pending[name]
        self._execute(name, self._tasks[name][1])
        if self._running:
            self._arm(name)
