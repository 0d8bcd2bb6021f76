"""The machine MyAlertBuddy runs on.

"Currently, MyAlertBuddy runs on a desktop PC owned by the user" (§4).  The
host owns the screen (dialog boxes live per machine), can lose power (the
paper's one unrecovered outage — "UPS ... [was] then used to fix the
problem"), and can be rebooted by the MDC when restarts alone do not help.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.clients.screen import Screen

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

DEFAULT_BOOT_DELAY = 90.0


@dataclass
class PowerEvent:
    """Audit record of one power incident."""

    at: float
    duration: float
    survived_on_ups: bool


class Host:
    """A failable machine: power state, screen, shutdown/boot hooks."""

    def __init__(
        self,
        env: "Environment",
        name: str = "desktop",
        has_ups: bool = False,
        boot_delay: float = DEFAULT_BOOT_DELAY,
    ):
        self.env = env
        self.name = name
        self.has_ups = has_ups
        self.boot_delay = boot_delay
        self.screen = Screen(env)
        self.powered = True
        self.booted = True
        #: ``powered and booted``, kept by :meth:`_change`.
        self.up = True
        #: Called (in registration order) when the machine goes down.
        self._shutdown_hooks: list[Callable[[], None]] = []
        #: Called when the machine comes back up.
        self._boot_hooks: list[Callable[[], None]] = []
        #: Called just before and again just after ``powered`` or
        #: ``booted`` changes.
        self._watchers: list[Callable[[], None]] = []
        self.power_events: list[PowerEvent] = []
        self.reboots = 0

    def on_shutdown(self, hook: Callable[[], None]) -> None:
        self._shutdown_hooks.append(hook)

    def on_boot(self, hook: Callable[[], None]) -> None:
        self._boot_hooks.append(hook)

    def watch(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` on both sides of every power or boot change: once
        while the old state still holds, once when the new one does (a
        replicated pair settles its keep-alives, then re-arms them)."""
        self._watchers.append(hook)

    # ------------------------------------------------------------------
    # Failure / recovery actions
    # ------------------------------------------------------------------

    def power_failure(self, duration: float) -> bool:
        """Power loss for ``duration`` seconds.

        With a UPS the machine rides it out (returns False: fault did not
        bite).  Without one, everything dies instantly and the machine boots
        ``boot_delay`` after power returns.
        """
        if duration <= 0:
            raise ValueError(f"outage duration must be > 0, got {duration!r}")
        if self.has_ups:
            self.power_events.append(PowerEvent(self.env.now, duration, True))
            return False
        self.power_events.append(PowerEvent(self.env.now, duration, False))
        self._go_down()
        self._change("powered", False)
        self.env.process(self._restore_power(duration), name=f"{self.name}-power")
        return True

    def reboot(self) -> None:
        """Orderly reboot (the MDC's last-resort recovery, §4.2.1)."""
        if not self.up:
            return
        self.reboots += 1
        self._go_down()
        self.env.process(self._boot_timer(), name=f"{self.name}-boot")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _change(self, attribute: str, value: bool) -> None:
        """Set ``powered`` or ``booted`` between the two watcher calls."""
        for hook in self._watchers:
            hook()
        setattr(self, attribute, value)
        self.up = self.powered and self.booted
        for hook in self._watchers:
            hook()

    def _go_down(self) -> None:
        self._change("booted", False)
        for hook in self._shutdown_hooks:
            hook()
        # Whatever was on screen dies with the machine.
        for dialog in self.screen.open_dialogs():
            self.screen.click(dialog, dialog.buttons[0])

    def _come_up(self) -> None:
        self._change("booted", True)
        for hook in self._boot_hooks:
            hook()

    def _restore_power(self, duration: float):
        yield self.env.timeout(duration)
        self._change("powered", True)
        yield self.env.timeout(self.boot_delay)
        self._come_up()

    def _boot_timer(self):
        yield self.env.timeout(self.boot_delay)
        self._come_up()
