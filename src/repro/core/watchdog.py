"""The Master Daemon Controller (MDC): MyAlertBuddy's watchdog (§4.2.1).

"MyAlertBuddy is always launched by a watchdog process called Master Daemon
Controller (MDC), which monitors MyAlertBuddy and restarts it upon detecting
its termination.  The MDC also periodically invokes a non-blocking
AreYouWorking() function call and restarts MyAlertBuddy if it is hung and
fails to respond ...  If the number of failed restarts exceeds a threshold,
the MDC reboots the machine."

The probe protocol mirrors the paper's event-object design: the MDC signals
a request event; a client thread *inside* MyAlertBuddy wakes, invokes the
AreYouWorking callback, and signals the reply event.  A hung buddy never
replies, so the MDC cannot be blocked by the hang itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.core.host import Host
from repro.obs import lifecycle_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment
    from repro.sim.process import Process

#: "the AreYouWorking() callback is invoked every three minutes" (§4.2.1).
DEFAULT_CHECK_INTERVAL = 180.0
DEFAULT_REPLY_TIMEOUT = 10.0
DEFAULT_MAX_FAILED_RESTARTS = 3
#: A restarted buddy that survives this long is considered stable again.
DEFAULT_STABILITY_WINDOW = 600.0


class RestartReason(enum.Enum):
    TERMINATION = "termination"
    PROBE_TIMEOUT = "probe_timeout"


@dataclass
class RestartRecord:
    at: float
    reason: RestartReason


class Watchable(Protocol):
    """What the MDC requires of a MyAlertBuddy incarnation."""

    process: Optional["Process"]

    def start(self) -> "Process": ...
    def attach_mdc(self, request, reply) -> None: ...
    def force_terminate(self, cause: str) -> None: ...


class MasterDaemonController:
    """Launches, probes, restarts and — in extremis — reboots."""

    def __init__(
        self,
        env: "Environment",
        host: Host,
        buddy_factory: Callable[[], Watchable],
        check_interval: float = DEFAULT_CHECK_INTERVAL,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        max_failed_restarts: int = DEFAULT_MAX_FAILED_RESTARTS,
        stability_window: float = DEFAULT_STABILITY_WINDOW,
    ):
        self.env = env
        self.host = host
        self.buddy_factory = buddy_factory
        self.check_interval = check_interval
        self.reply_timeout = reply_timeout
        self.max_failed_restarts = max_failed_restarts
        self.stability_window = stability_window

        self.buddy: Optional[Watchable] = None
        self.restarts: list[RestartRecord] = []
        self.reboots_requested = 0
        self.running = False
        self._generation = 0
        self._consecutive_failed = 0
        #: Replication hook: when set, a boot-time restart first asks the
        #: failover controller whether this side may run at all.  A fenced
        #: old primary gets False (and is sent to reconciliation) — the MDC
        #: hands off instead of resurrecting a split brain.
        self.resurrection_gate: Optional[Callable[[], bool]] = None

        host.on_shutdown(self._on_host_down)
        host.on_boot(self._on_host_boot)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the buddy and begin monitoring (idempotent)."""
        if self.running:
            return
        self.running = True
        self._generation += 1
        self._launch_buddy()
        self.env.process(
            self._monitor(self._generation), name="mdc-monitor"
        )

    def stop(self, terminate_buddy: bool = False) -> None:
        """Stop monitoring; with ``terminate_buddy`` also kill the buddy.

        A plain stop leaves the incarnation running *unmonitored* — fine
        for handing over to another supervisor, but a teardown (or a
        fencing handoff) wants no orphan process left routing.
        """
        self.running = False
        if (
            terminate_buddy
            and self.buddy is not None
            and self.buddy.process is not None
            and self.buddy.process.is_alive
        ):
            self.buddy.force_terminate("MDC stop")

    def _on_host_down(self) -> None:
        self.running = False
        if self.buddy is not None and self.buddy.process is not None:
            if self.buddy.process.is_alive:
                self.buddy.force_terminate("host down")
        self.buddy = None

    def _on_host_boot(self) -> None:
        # The MDC is registered to start at boot — that is what makes the
        # whole stack self-healing across reboots.
        if self.resurrection_gate is not None and not self.resurrection_gate():
            return
        self.start()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def _launch_buddy(self) -> None:
        self.buddy = self.buddy_factory()
        self.buddy.start()

    def _trace_lifecycle(self, name: str, **annotations) -> None:
        tracer = self.env.tracer
        if tracer is None:
            return
        owner = (
            getattr(getattr(self.buddy, "config", None), "user", None)
            or self.host.name
        )
        tracer.event(lifecycle_trace(owner), name, **annotations)

    def _restart_buddy(self, reason: RestartReason) -> None:
        self.restarts.append(RestartRecord(at=self.env.now, reason=reason))
        self._trace_lifecycle("mdc.restart", reason=reason.value)
        buddy = self.buddy
        if buddy is not None and buddy.process is not None and buddy.process.is_alive:
            buddy.force_terminate(f"MDC restart: {reason.value}")
        self._consecutive_failed += 1
        if self._consecutive_failed > self.max_failed_restarts:
            self.reboots_requested += 1
            self._consecutive_failed = 0
            self._trace_lifecycle("mdc.reboot", host=self.host.name)
            self.host.reboot()  # monitoring stops via the shutdown hook
            return
        self._launch_buddy()

    def _monitor(self, generation: int):
        last_restart_time = self.env.now
        while self.running and self._generation == generation:
            yield self.env.timeout(self.check_interval)
            if not self.running or self._generation != generation:
                return
            buddy = self.buddy
            if buddy is None:
                return
            # Stability bookkeeping: a long-enough quiet period clears the
            # consecutive-failure counter.
            if (
                self._consecutive_failed
                and self.env.now - last_restart_time >= self.stability_window
            ):
                self._consecutive_failed = 0

            if buddy.process is None or not buddy.process.is_alive:
                self._restart_buddy(RestartReason.TERMINATION)
                last_restart_time = self.env.now
                continue

            request = self.env.event()
            reply = self.env.event()
            buddy.attach_mdc(request, reply)
            request.succeed()
            guard = self.env.timeout(self.reply_timeout)
            yield self.env.any_of([reply, guard])
            # The host may have gone down inside the reply window: a
            # restart now would launch an incarnation on a dead host that
            # nothing ever kills, beside the one the MDC launches at boot.
            if not self.running or self._generation != generation:
                return
            if not reply.processed:
                self._restart_buddy(RestartReason.PROBE_TIMEOUT)
                last_restart_time = self.env.now
