"""Unit tests for the MDC watchdog and the Host machine model."""

import pytest

from repro.core.host import Host
from repro.core.watchdog import (
    MasterDaemonController,
    RestartReason,
)
from repro.sim import Environment, MINUTE


class FakeBuddy:
    """Minimal Watchable used to test the MDC protocol in isolation."""

    def __init__(self, env, behaviour="healthy"):
        self.env = env
        self.behaviour = behaviour
        self.process = None
        self.started = 0
        self.terminated = []

    def start(self):
        self.started += 1
        self.process = self.env.process(self._run(), name="fake-buddy")
        return self.process

    def _run(self):
        from repro.errors import Interrupt

        try:
            if self.behaviour == "dies-quickly":
                yield self.env.timeout(10.0)
                return
            yield self.env.timeout(10**9)
        except Interrupt:
            return  # killed — like the real buddy, exit cleanly

    def attach_mdc(self, request, reply):
        def client(env):
            yield request
            if self.behaviour != "hung":
                reply.succeed()

        self.env.process(client(self.env), name="fake-mdc-client")

    def force_terminate(self, cause):
        self.terminated.append(cause)
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(cause)


def make_mdc(env, behaviours, **kwargs):
    """MDC whose factory pops behaviours (last one repeats forever)."""
    host = Host(env, boot_delay=30.0)
    queue = list(behaviours)
    made = []

    def factory():
        behaviour = queue.pop(0) if len(queue) > 1 else queue[0]
        buddy = FakeBuddy(env, behaviour)
        made.append(buddy)
        return buddy

    mdc = MasterDaemonController(
        env, host, factory, check_interval=60.0, reply_timeout=5.0, **kwargs
    )
    return mdc, host, made


class TestWatchdog:
    def test_start_launches_buddy(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        env.run(until=10 * MINUTE)
        assert len(made) == 1
        assert made[0].started == 1
        assert mdc.restarts == []

    def test_healthy_buddy_probed_but_never_restarted(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        env.run(until=30 * MINUTE)
        assert mdc.restarts == []

    def test_termination_detected_and_restarted(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["dies-quickly", "healthy"])
        mdc.start()
        env.run(until=10 * MINUTE)
        assert any(r.reason is RestartReason.TERMINATION for r in mdc.restarts)
        assert len(made) >= 2
        assert made[-1].process.is_alive

    def test_hung_buddy_restarted_on_probe_timeout(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["hung", "healthy"])
        mdc.start()
        env.run(until=10 * MINUTE)
        assert any(
            r.reason is RestartReason.PROBE_TIMEOUT for r in mdc.restarts
        )
        # The hung incarnation was killed before relaunch.
        assert made[0].terminated

    def test_reboot_after_max_failed_restarts(self):
        env = Environment()
        mdc, host, made = make_mdc(
            env, ["dies-quickly"], max_failed_restarts=2,
            stability_window=10 * MINUTE,
        )
        mdc.start()
        env.run(until=30 * MINUTE)
        assert mdc.reboots_requested >= 1
        assert host.reboots >= 1
        # After boot, the MDC came back and launched a fresh buddy.
        assert made[-1].started == 1

    def test_stability_window_resets_failure_count(self):
        env = Environment()
        # healthy buddy; inject two manual kills far apart.
        mdc, host, made = make_mdc(
            env, ["healthy"], max_failed_restarts=2,
            stability_window=5 * MINUTE,
        )
        mdc.start()

        def killer(env):
            for _ in range(4):
                yield env.timeout(20 * MINUTE)  # > stability window apart
                buddy = mdc.buddy
                if buddy is not None and buddy.process.is_alive:
                    buddy.process.interrupt("test kill")

        env.process(killer(env))
        env.run(until=2 * 3600)
        # Four restarts but never a reboot: stability resets the counter.
        assert len(mdc.restarts) == 4
        assert mdc.reboots_requested == 0

    def test_host_down_stops_monitoring(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()

        def outage(env):
            yield env.timeout(5 * MINUTE)
            host.power_failure(10 * MINUTE)

        env.process(outage(env))
        env.run(until=12 * MINUTE)
        assert not made[0].process.is_alive  # killed by host-down hook
        env.run(until=40 * MINUTE)
        # Rebooted: the MDC relaunched a buddy.
        assert made[-1].process.is_alive

    def test_start_idempotent(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        mdc.start()
        env.run(until=5 * MINUTE)
        assert len(made) == 1


class TestWatchdogEdges:
    def test_plain_stop_leaves_buddy_running_unmonitored(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        env.run(until=5 * MINUTE)
        mdc.stop()
        # Hand-over semantics: the incarnation keeps running...
        assert made[0].process.is_alive
        # ...but if it dies later, nobody restarts it.
        made[0].process.interrupt("test kill")
        env.run(until=30 * MINUTE)
        assert len(made) == 1
        assert mdc.restarts == []

    def test_stop_terminate_buddy_kills_incarnation(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        env.run(until=5 * MINUTE)
        mdc.stop(terminate_buddy=True)
        env.run(until=6 * MINUTE)
        assert made[0].terminated == ["MDC stop"]
        assert not made[0].process.is_alive
        env.run(until=30 * MINUTE)
        assert len(made) == 1, "stopped MDC relaunched a buddy"

    def test_no_probe_restarts_while_host_down(self):
        """The probe cycle is a no-op for the whole outage: monitoring
        stops on shutdown and the boot-time relaunch is a start, not a
        restart."""
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.start()
        env.run(until=5 * MINUTE)
        host.power_failure(20 * MINUTE)
        assert not mdc.running
        assert mdc.buddy is None
        env.run(until=24 * MINUTE)  # still down (power back 25' + 30 s boot)
        assert mdc.restarts == []
        env.run(until=40 * MINUTE)
        assert made[-1].process.is_alive
        assert mdc.restarts == []

    def test_host_down_inside_the_reply_window_leaves_one_incarnation(self):
        """The probe's guard expires after the host went down: the monitor
        must not restart the hung buddy on the dead host (the MDC zombie),
        so the boot's launch is the only live incarnation."""
        env = Environment()
        mdc, host, made = make_mdc(env, ["hung", "healthy"])
        mdc.start()
        env.run(until=62.0)  # probed at 60 s; the reply window ends at 65 s
        host.power_failure(5 * MINUTE)
        env.run(until=20 * MINUTE)
        assert mdc.restarts == []
        assert [b.behaviour for b in made if b.process.is_alive] == ["healthy"]

    def test_a_stale_monitor_restarts_no_dead_buddy(self):
        """The termination branch stays behind the re-check after the
        interval wait: a host that rebooted inside one check interval
        leaves the old generation's monitor with a running MDC and a dead
        buddy, and only the new generation's monitor may restart it."""
        env = Environment()
        host = Host(env, boot_delay=5.0)
        made = []

        def factory():
            behaviour = "dies-quickly" if len(made) < 2 else "healthy"
            made.append(FakeBuddy(env, behaviour))
            return made[-1]

        mdc = MasterDaemonController(
            env, host, factory, check_interval=60.0, reply_timeout=5.0
        )
        mdc.start()
        env.run(until=20.0)  # the first buddy died at 10 s
        host.reboot()
        # Booted at 25 s; the boot's buddy died at 35 s; the first
        # monitor woke at 60 s, the boot's at 85 s.
        env.run(until=90.0)
        assert [r.at for r in mdc.restarts] == [85.0]
        assert len(made) == 3 and made[2].process.is_alive

    def test_consecutive_failed_clears_after_stability_window(self):
        env = Environment()
        mdc, host, made = make_mdc(
            env, ["dies-quickly", "healthy"],
            max_failed_restarts=5, stability_window=5 * MINUTE,
        )
        mdc.start()
        env.run(until=2 * MINUTE)
        assert mdc._consecutive_failed == 1
        env.run(until=30 * MINUTE)
        assert mdc._consecutive_failed == 0

    def test_reboot_rearms_monitoring_after_boot(self):
        """Hitting max_failed_restarts reboots the host; the boot hook
        must bring back a *monitoring* MDC, not just a launched buddy."""
        env = Environment()
        mdc, host, made = make_mdc(
            env,
            ["dies-quickly", "dies-quickly", "dies-quickly", "healthy"],
            max_failed_restarts=2, stability_window=10 * MINUTE,
        )
        mdc.start()
        env.run(until=40 * MINUTE)
        assert mdc.reboots_requested == 1
        healthy = made[-1]
        assert healthy.process.is_alive
        # Kill the post-reboot buddy: the re-armed monitor must notice.
        healthy.process.interrupt("test kill")
        env.run(until=80 * MINUTE)
        assert made[-1] is not healthy
        assert made[-1].process.is_alive
        assert any(r.at > 40 * MINUTE for r in mdc.restarts)

    def test_resurrection_gate_blocks_boot_relaunch(self):
        env = Environment()
        mdc, host, made = make_mdc(env, ["healthy"])
        mdc.resurrection_gate = lambda: False
        mdc.start()  # explicit start is not gated — only boot-time is
        env.run(until=2 * MINUTE)
        assert len(made) == 1
        host.reboot()
        env.run(until=30 * MINUTE)
        assert len(made) == 1, "gated MDC relaunched at boot"
        assert not mdc.running


class TestHost:
    def test_defaults_up(self):
        env = Environment()
        host = Host(env)
        assert host.up and host.powered and host.booted

    def test_power_failure_without_ups(self):
        env = Environment()
        host = Host(env, boot_delay=60.0)
        down, up = [], []
        host.on_shutdown(lambda: down.append(env.now))
        host.on_boot(lambda: up.append(env.now))

        def scenario(env):
            yield env.timeout(100.0)
            assert host.power_failure(300.0) is True
            assert not host.up

        env.process(scenario(env))
        env.run(until=1000.0)
        assert down == [100.0]
        assert up == [460.0]  # restore at 400 + 60 boot
        assert host.up

    def test_ups_rides_out_outage(self):
        env = Environment()
        host = Host(env, has_ups=True)
        down = []
        host.on_shutdown(lambda: down.append(env.now))
        assert host.power_failure(300.0) is False
        assert host.up
        assert down == []
        assert host.power_events[0].survived_on_ups

    def test_reboot_cycle(self):
        env = Environment()
        host = Host(env, boot_delay=30.0)
        events = []
        host.on_shutdown(lambda: events.append(("down", env.now)))
        host.on_boot(lambda: events.append(("up", env.now)))
        host.reboot()
        assert not host.up
        env.run(until=100.0)
        assert events == [("down", 0.0), ("up", 30.0)]
        assert host.reboots == 1

    def test_reboot_while_down_ignored(self):
        env = Environment()
        host = Host(env)
        host.reboot()
        host.reboot()
        assert host.reboots == 1

    def test_invalid_outage_duration(self):
        env = Environment()
        with pytest.raises(ValueError):
            Host(env).power_failure(0.0)

    def test_going_down_clears_screen(self):
        env = Environment()
        host = Host(env)
        host.screen.pop_dialog("Stuck forever", ("OK",))
        host.reboot()
        assert host.screen.open_dialogs() == []
