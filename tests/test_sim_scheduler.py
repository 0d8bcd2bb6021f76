"""Scheduler-layer tests: backend contract, wheel edge cases, pooling
guards, and the explicit timer lifecycle.

The randomized equivalence suite (``test_kernel_equivalence.py``) proves
both backends match the frozen reference on whole programs; this module
pins the *local* invariants — NaN rejection, queue accounting, wheel
geometry corners, pool recycling guards — with small deterministic
scenarios, so a regression fails here with a readable name instead of a
30-seed trace diff.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    Interrupt,
    SimulationError,
)
from repro.sim import Environment
from repro.sim.scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULER_ENV_VAR,
    HeapScheduler,
    make_scheduler,
)
from repro.sim.wheel import WheelScheduler

BACKENDS = ("heap", "wheel")


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_explicit_names(self):
        assert isinstance(Environment(scheduler="heap").scheduler,
                          HeapScheduler)
        assert isinstance(Environment(scheduler="wheel").scheduler,
                          WheelScheduler)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            Environment(scheduler="fibonacci")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV_VAR, "heap")
        assert Environment().scheduler.name == "heap"
        monkeypatch.setenv(SCHEDULER_ENV_VAR, "wheel")
        assert Environment().scheduler.name == "wheel"

    def test_argument_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(SCHEDULER_ENV_VAR, "heap")
        assert Environment(scheduler="wheel").scheduler.name == "wheel"

    def test_default_is_wheel(self, monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV_VAR, raising=False)
        assert DEFAULT_SCHEDULER == "wheel"
        assert Environment().scheduler.name == "wheel"

    def test_make_scheduler_normalizes_name(self):
        env = Environment(scheduler="heap")
        assert make_scheduler(env, " Wheel ").name == "wheel"


# ----------------------------------------------------------------------
# Satellite: NaN delays must be rejected, never enqueued
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestNaNRejection:
    """A NaN deadline never compares, so one in a heap or a wheel slot
    silently corrupts the pop order for the rest of the run.  Both
    entry points must reject it loudly instead."""

    def test_schedule_nan_delay(self, backend):
        env = Environment(scheduler=backend)
        event = env.event()
        with pytest.raises(ValueError, match="NaN"):
            env.schedule(event, delay=float("nan"))
        assert env.queue_depth == 0

    def test_timeout_nan_delay(self, backend):
        env = Environment(scheduler=backend)
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
        assert env.queue_depth == 0

    def test_timeout_nan_delay_with_warm_pool(self, backend):
        # The pooled fast path guards with ``delay >= 0.0`` — NaN fails
        # that comparison and must fall through to the raising
        # constructor, not reuse a pooled timer.
        env = Environment(scheduler=backend)
        for _ in range(4):
            env.timeout(0.5)
        env.run(until=2.0)
        assert len(env.scheduler.pool.timeouts) > 0
        with pytest.raises(ValueError):
            env.timeout(float("nan"))

    def test_negative_delay_still_rejected(self, backend):
        env = Environment(scheduler=backend)
        with pytest.raises(ValueError):
            env.timeout(-1.0)
        event = env.event()
        with pytest.raises(ValueError, match="past"):
            env.schedule(event, delay=-0.25)


# ----------------------------------------------------------------------
# Satellite: run(until=event) must deregister on queue exhaustion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestRunUntilEventExhaustion:
    def test_stop_callback_deregistered(self, backend):
        env = Environment(scheduler=backend)
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="exhausted"):
            env.run(until=never)
        # The stale callback is gone: triggering the event later must
        # not raise StopSimulation into an unrelated drain.
        assert env._stop_on_event not in never.callbacks

    def test_event_usable_after_exhausted_run(self, backend):
        env = Environment(scheduler=backend)
        flag = env.event()
        with pytest.raises(SimulationError):
            env.run(until=flag)

        seen = []

        def waiter(env, flag):
            value = yield flag
            seen.append(value)

        env.process(waiter(env, flag))
        flag.succeed("late")
        env.run()  # must terminate normally, not via StopSimulation
        assert seen == ["late"]

    def test_second_run_until_event_succeeds(self, backend):
        env = Environment(scheduler=backend)
        flag = env.event()
        with pytest.raises(SimulationError):
            env.run(until=flag)

        def firer(env, flag):
            yield env.timeout(3.0)
            flag.succeed(42)

        env.process(firer(env, flag))
        assert env.run(until=flag) == 42
        assert env.now == 3.0


# ----------------------------------------------------------------------
# Wheel geometry edge cases
# ----------------------------------------------------------------------


class TestWheelEdgeCases:
    """Deterministic corners of the wheel: slot/page boundaries, cascade
    levels, the overflow heap, and cancellation storms.  Each scenario
    runs under both backends and asserts identical firing orders, so a
    wheel bug shows up as a divergence from the heap."""

    @staticmethod
    def _fire_order(backend, delays, horizon):
        env = Environment(scheduler=backend)
        fired = []
        for index, delay in enumerate(delays):
            timer = env.timeout(delay, value=(index, delay))
            timer.callbacks.append(
                lambda evt: fired.append((env.now, evt.value))
            )
        env.run(until=horizon)
        return fired

    def test_slot_boundary_delays(self):
        # Exactly on, just before and just after slot boundaries, plus
        # ties inside one slot (sequence order must break them).
        delays = [255.0, 255.999, 256.0, 256.0, 256.001, 257.0,
                  511.5, 512.0, 0.5, 1.0, 1.0]
        heap = self._fire_order("heap", delays, 600.0)
        wheel = self._fire_order("wheel", delays, 600.0)
        assert wheel == heap
        assert [t for t, _ in wheel] == sorted(t for t, _ in wheel)

    def test_page_walk_past_many_boundaries(self):
        # A chain that re-arms ~1.7s ahead each hop walks the cursor
        # across dozens of level-0 pages; each staging must cascade the
        # next page correctly.
        def chained(env, log):
            for hop in range(700):
                yield env.timeout(1.7)
                log.append(env.now)

        for backend in BACKENDS:
            env = Environment(scheduler=backend)
            log = []
            env.process(chained(env, log))
            env.run()
            assert len(log) == 700
            assert log[-1] == pytest.approx(700 * 1.7)

    def test_level2_and_overflow_cascades(self):
        # One timer per wheel region: level 0 (<256s), level 1 (<65536s),
        # level 2 (<256^3 s), and the overflow heap beyond the span.
        span = 256 ** 3
        delays = [12.0, 300.0, 70_000.0, float(span - 1),
                  float(span + 10), float(span * 3)]
        heap = self._fire_order("heap", delays, float(span * 4))
        wheel = self._fire_order("wheel", delays, float(span * 4))
        assert wheel == heap
        assert len(wheel) == len(delays)

    def test_infinite_delay_never_fires(self):
        for backend in BACKENDS:
            env = Environment(scheduler=backend)
            env.timeout(float("inf"))
            env.timeout(5.0)
            env.run(until=10.0)
            assert env.now == 10.0
            # The inf sentinel stays queued but must not wedge a later run.
            assert env.queue_depth == 1
            env.run(until=20.0)
            assert env.now == 20.0

    def test_mass_cancellation_storm(self):
        # Thousands of timers cancelled mid-run force compaction while
        # the wheel still holds occupied pages; survivors must fire in
        # heap-identical order.
        def build(backend):
            env = Environment(scheduler=backend)
            fired = []
            timers = []
            for index in range(2000):
                timer = env.timeout(1.0 + (index % 500) * 0.75,
                                    value=index)
                timer.callbacks.append(
                    lambda evt: fired.append((env.now, evt.value))
                )
                timers.append(timer)

            def reaper(env, timers):
                yield env.timeout(0.5)
                for timer in timers:
                    if timer.value % 4 != 0:  # cancel 75%
                        timer.cancel()

            env.process(reaper(env, timers))
            env.run()
            return env, fired

        heap_env, heap_fired = build("heap")
        wheel_env, wheel_fired = build("wheel")
        assert wheel_fired == heap_fired
        assert len(wheel_fired) == 500
        assert wheel_env.queue_depth == 0
        assert heap_env.queue_depth == 0

    def test_cancel_storm_then_reschedule_same_slots(self):
        # After a storm, fresh timers landing in the just-vacated slots
        # must not see stale occupancy bits or tombstones.
        env = Environment(scheduler="wheel")
        doomed = [env.timeout(50.0 + i * 0.1) for i in range(64)]
        for timer in doomed:
            timer.cancel()
        fired = []
        timer = env.timeout(50.5, value="fresh")
        timer.callbacks.append(lambda evt: fired.append(evt.value))
        env.run()
        assert fired == ["fresh"]
        assert env.now == 50.5

    def test_straggler_insert_behind_cursor(self):
        # Once the wheel stages a page, a short timer created by a
        # callback inside that page lands *behind* the cursor and must
        # still fire in exact time order.
        def prober(env, log):
            yield env.timeout(100.25)
            log.append(("woke", env.now))
            yield env.timeout(0.25)  # straggler: idx 100 < staged cursor
            log.append(("straggler", env.now))

        for backend in BACKENDS:
            env = Environment(scheduler=backend)
            log = []
            env.process(prober(env, log))
            env.timeout(100.75)
            env.run()
            assert log == [("woke", 100.25), ("straggler", 100.5)]


# ----------------------------------------------------------------------
# Satellite: scheduler-owned queue accounting
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestQueueAccounting:
    def test_depth_counts_live_entries_only(self, backend):
        env = Environment(scheduler=backend)
        timers = [env.timeout(float(delay)) for delay in (5, 500, 70_000)]
        env.schedule(env.event())  # immediate FIFO entry
        assert env.queue_depth == 4
        assert env.dead_entries == 0
        timers[1].cancel()
        assert env.queue_depth == 3
        assert env.dead_entries in (0, 1)  # compaction may have fired
        env.run()
        assert env.queue_depth == 0
        assert env.dead_entries == 0

    def test_depth_restored_after_race(self, backend):
        # The router's invariant: after an ack-vs-timeout race resolves
        # inside a TimerScope, the losing guard must not linger.
        env = Environment(scheduler=backend)

        def racer(env):
            with env.timers() as timers:
                guard = timers.acquire(3600.0)
                yield env.any_of([env.timeout(1.0), guard])

        env.process(racer(env))
        env.run()
        assert env.queue_depth == 0


# ----------------------------------------------------------------------
# Pool guards
# ----------------------------------------------------------------------


class TestPoolGuards:
    def test_release_and_reuse(self):
        # A processed Event nobody holds goes back to the free list, and
        # the next factory call is served from it.
        env = Environment(scheduler="heap")
        env.event().succeed()
        env.run()
        pool = env.scheduler.pool
        assert len(pool.events) == 1
        recycled = pool.events[0]
        assert env.event() is recycled
        assert pool.reused == 1

    def test_cancelled_timer_declined_not_raised(self):
        # A cancelled timer's tombstone may still sit in a queue —
        # recycling it then would let the stale entry fire a new
        # incarnation.  It is declined until the tombstone is discarded.
        env = Environment(scheduler="heap")
        for _ in range(3):  # live entries: no compaction purges the tombstone
            env.timeout(6.0)
        env.timeout(5.0).cancel()
        pool = env.scheduler.pool
        assert pool.timeouts == []
        env.run(until=5.5)
        assert len(pool.timeouts) == 1
        assert not pool.timeouts[0]._cancelled  # clean at release

    def test_extra_reference_declined(self):
        # The dispatch loop recycles only what nobody else holds.
        env = Environment(scheduler="heap")
        held = env.timeout(1.0)
        env.timeout(1.0)
        env.run(until=2.0)
        pool = env.scheduler.pool
        assert len(pool.timeouts) == 1
        assert pool.timeouts[0] is not held

    def test_bounded_pool_declines_when_full(self):
        env = Environment(scheduler="heap")
        env.scheduler.pool.max_size = 1
        for _ in range(3):
            env.timeout(1.0)
        env.run(until=2.0)
        assert len(env.scheduler.pool.timeouts) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dispatch_loop_recycles_and_factories_reuse(self, backend):
        # End-to-end: the drain loop pools processed timers, and later
        # factory calls are served from the free list.
        env = Environment(scheduler=backend)
        for _ in range(16):
            env.timeout(0.5)
        env.run(until=1.0)
        pool = env.scheduler.pool
        assert len(pool.timeouts) > 0
        before = pool.reused
        env.timeout(0.5)
        assert pool.reused == before + 1
        assert pool.recycled >= pool.reused

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pooled_timer_reuse_preserves_determinism(self, backend):
        # A recycled Timeout must behave exactly like a fresh one.
        env = Environment(scheduler=backend)
        log = []

        def chain(env, log):
            for index in range(50):
                yield env.timeout(0.25, value=index)
                log.append((env.now, index))

        env.process(chain(env, log))
        env.run()
        assert log == [(0.25 * (i + 1), i) for i in range(50)]
        assert env.scheduler.pool.reused > 0


# ----------------------------------------------------------------------
# TimerScope lifecycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestTimerScope:
    def test_settles_loser_on_exit(self, backend):
        env = Environment(scheduler=backend)

        def racer(env):
            with env.timers() as timers:
                guard = timers.acquire(1000.0)
                yield env.any_of([env.timeout(1.0), guard])

        env.process(racer(env))
        env.run()
        assert env.queue_depth == 0
        assert env.now == 1.0  # never drained to the guard's deadline

    def test_settles_on_interrupt(self, backend):
        env = Environment(scheduler=backend)

        def sleeper(env):
            with env.timers() as timers:
                try:
                    yield timers.acquire(500.0)
                except Interrupt:
                    pass

        proc = env.process(sleeper(env))

        def interrupter(env, proc):
            yield env.timeout(2.0)
            proc.interrupt("wake up")

        env.process(interrupter(env, proc))
        env.run()
        assert env.queue_depth == 0
        assert env.now == 2.0

    def test_reusable_across_iterations(self, backend):
        env = Environment(scheduler=backend)
        scope_sizes = []

        def heartbeat(env, scope_sizes):
            with env.timers() as timers:
                for _ in range(5):
                    yield timers.acquire(1.0)
                    # acquire() prunes fired timers, so the active list
                    # never accumulates across iterations.
                    scope_sizes.append(len(timers.active))

        env.process(heartbeat(env, scope_sizes))
        env.run()
        assert env.now == 5.0
        assert all(size <= 1 for size in scope_sizes)

    def test_explicit_cancel_releases_early(self, backend):
        env = Environment(scheduler=backend)

        def prober(env):
            with env.timers() as timers:
                reply = env.event()
                guard = timers.acquire(30.0)
                reply.succeed()  # reply "arrives" immediately
                yield env.any_of([reply, guard])
                timers.cancel(guard)
                assert timers.active == []
                yield env.timeout(1.0)

        env.process(prober(env))
        env.run()
        assert env.now == 1.0
        assert env.queue_depth == 0

    def test_settle_is_idempotent(self, backend):
        env = Environment(scheduler=backend)
        timers = env.timers()
        timers.acquire(10.0)
        assert len(timers.active) == 1
        assert timers.settle() == 1
        assert timers.settle() == 0
        assert timers.active == []
