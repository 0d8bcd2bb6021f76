"""Scheduler-layer tests: backend contract, wheel edge cases, pooling
guards, and the kernel's release of the timer a wait leaves behind.

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
from repro.sim.events import Condition
from repro.sim.process import Process
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
        # The router's invariant: after an ack-vs-timeout race resolves,
        # the losing guard must not linger.
        env = Environment(scheduler=backend)
        depths = []

        def racer(env):
            yield env.any_of([env.timeout(1.0), env.timeout(3600.0)])
            depths.append(env.queue_depth)

        env.process(racer(env))
        env.run()
        assert depths == [0]


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
# Kernel release: the timer a wait leaves behind is cancelled
# ----------------------------------------------------------------------


def race_a_long_guard(env):
    """A decided ``any_of`` leaves its losing timer behind; returns the
    queue depth seen just after the race and the clock once drained."""
    depths = []

    def racer(env):
        yield env.any_of([env.timeout(1.0), env.timeout(1000.0)])
        depths.append(env.queue_depth)

    env.process(racer(env))
    env.run()
    return depths, env.now


def interrupt_a_long_sleep(env):
    """An interrupt abandons the timer its process waited on; returns the
    queue depth seen by the woken process and the clock once drained."""
    depths = []

    def sleeper(env):
        try:
            yield env.timeout(500.0)
        except Interrupt:
            depths.append(env.queue_depth)

    proc = env.process(sleeper(env))
    env.timeout(2.0).callbacks.append(lambda _: proc.interrupt("wake up"))
    env.run()
    return depths, env.now


def deliver_interrupt_without_cancel(self, cause):
    """``Process._deliver_interrupt`` minus its cancel of the awaited
    event."""
    if not self.is_alive:
        return
    target = self._waiting_on
    if target is not None:
        callbacks = target.callbacks
        if callbacks and self._wake in callbacks:
            callbacks.remove(self._wake)
    self._waiting_on = None
    self._step(Interrupt(cause), ok=False)


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelRelease:
    def test_decided_any_of_cancels_its_losing_timer(self, backend):
        depths, now = race_a_long_guard(Environment(scheduler=backend))
        assert depths == [0]
        assert now == 1.0  # never drained to the guard's deadline

    def test_interrupt_cancels_the_awaited_timer(self, backend):
        depths, now = interrupt_a_long_sleep(Environment(scheduler=backend))
        assert depths == [0]
        assert now == 2.0

    def test_without_release_losers_the_guard_leaks(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(Condition, "_release_losers", lambda self: None)
        depths, now = race_a_long_guard(Environment(scheduler=backend))
        assert depths == [1]
        assert now == 1000.0

    def test_without_interrupt_cancel_the_timer_leaks(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(
            Process, "_deliver_interrupt", deliver_interrupt_without_cancel
        )
        depths, now = interrupt_a_long_sleep(Environment(scheduler=backend))
        assert depths == [1]
        assert now == 500.0


# ----------------------------------------------------------------------
# Cohorts: env.every
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestEvery:
    def test_members_run_in_join_order_on_one_timer(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        for name in "abc":
            env.every(20.0, lambda now, name=name: fired.append((now, name)))
        env.run(until=1.0)
        assert env.queue_depth == 1  # one timer for the three members
        env.run(until=45.0)
        assert fired == [(20.0, "a"), (20.0, "b"), (20.0, "c"),
                         (40.0, "a"), (40.0, "b"), (40.0, "c")]

    def test_same_interval_at_another_instant_has_its_own_timer(
        self, backend
    ):
        env = Environment(scheduler=backend)
        fired = []
        env.every(2.0, lambda now: fired.append(("early", now)))
        env.run(until=0.5)
        env.every(2.0, lambda now: fired.append(("late", now)))
        env.run(until=1.0)
        assert env.queue_depth == 2
        env.run(until=5.0)
        assert fired == [("early", 2.0), ("late", 2.5),
                         ("early", 4.0), ("late", 4.5)]

    def test_a_member_returning_false_leaves_at_that_tick(self, backend):
        env = Environment(scheduler=backend)
        fired = []

        def once(now):
            fired.append(("once", now))
            return False

        env.every(10.0, once)
        env.every(10.0, lambda now: fired.append(("stays", now)))
        env.run(until=35.0)
        assert fired == [("once", 10.0), ("stays", 10.0),
                         ("stays", 20.0), ("stays", 30.0)]

    def test_the_last_member_returning_false_ends_the_timer(self, backend):
        env = Environment(scheduler=backend)
        env.every(10.0, lambda now: False)
        env.run()
        assert env.now == 10.0 and env.queue_depth == 0

    def test_cancelling_the_last_member_leaves_no_live_timer(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        first = env.every(30.0, fired.append)
        second = env.every(30.0, fired.append)
        env.run(until=31.0)
        first.cancel()
        assert env.queue_depth == 1  # the other member still ticks
        second.cancel()
        second.cancel()  # idempotent
        assert env.queue_depth == 0
        env.run()
        assert fired == [30.0, 30.0]

    def test_cancelling_before_the_kick_arms_nothing(self, backend):
        env = Environment(scheduler=backend)
        member = env.every(60.0, lambda now: pytest.fail("a member ran"))
        member.cancel()
        env.run()
        assert env.now == 0.0 and env.queue_depth == 0
        # The emptied cohort is not joined again: a new one is opened.
        fired = []
        env.every(60.0, fired.append)
        env.run(until=61.0)
        assert fired == [60.0]

    def test_a_tick_may_cancel_a_later_member_of_its_cohort(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        handles = {}

        def killer(now):
            fired.append("killer")
            handles["victim"].cancel()
            return False

        env.every(5.0, killer)
        handles["victim"] = env.every(5.0, lambda now: fired.append("victim"))
        env.run()
        assert fired == ["killer"] and env.queue_depth == 0

    def test_a_join_from_inside_a_tick_opens_a_new_cohort(self, backend):
        env = Environment(scheduler=backend)
        fired = []

        def joiner(now):
            fired.append(("joiner", now))
            if now == 20.0:
                env.every(20.0, lambda t: fired.append(("joined", t)))

        env.every(20.0, joiner)
        env.run(until=21.0)
        assert env.queue_depth == 2  # the joiner's and the new cohort's
        env.run(until=61.0)
        assert fired == [("joiner", 20.0), ("joiner", 40.0),
                         ("joined", 40.0), ("joiner", 60.0),
                         ("joined", 60.0)]

    def test_interval_must_be_positive(self, backend):
        env = Environment(scheduler=backend)
        for interval in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                env.every(interval, lambda now: None)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSleepWake:
    def test_a_woken_member_keeps_its_place_in_join_order(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        members = {
            name: env.every(10.0, lambda now, name=name: fired.append(name))
            for name in "abc"
        }
        members["a"].sleep()
        env.run(until=11.0)
        members["a"].wake()
        env.run(until=21.0)
        assert fired == ["b", "c", "a", "b", "c"]

    def test_a_fully_asleep_cohort_queues_no_timer(self, backend):
        env = Environment(scheduler=backend)
        first = env.every(10.0, lambda now: pytest.fail("a sleeper ran"))
        second = env.every(10.0, lambda now: pytest.fail("a sleeper ran"))
        first.sleep()
        second.sleep()
        env.run()
        assert env.now == 0.0 and env.queue_depth == 0
        # Armed, then emptied of awake members: the timer is cancelled.
        first.wake()
        assert env.queue_depth == 1
        first.sleep()
        first.sleep()  # idempotent
        assert env.queue_depth == 0

    def test_a_wake_re_arms_at_the_next_phase_instant(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        member = env.every(10.0, fired.append)
        env.run(until=15.0)
        member.sleep()
        env.run(until=42.5)
        member.wake()
        member.wake()  # idempotent
        env.run(until=60.0)
        assert fired == [10.0, 50.0, 60.0]
        # Woken on a phase instant: the tick strictly after it.
        member.sleep()
        env.run(until=70.0)
        member.wake()
        env.run(until=85.0)
        assert fired == [10.0, 50.0, 60.0, 80.0]

    def test_a_wake_re_arms_on_the_chains_own_float_sums(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        member = env.every(0.1, fired.append)
        member.sleep()
        env.run(until=0.65)
        member.wake()
        env.run(until=0.75)
        chain = 0.0
        for _ in range(7):
            chain += 0.1
        assert fired == [chain]

    def test_cancel_while_asleep(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        sleeper = env.every(10.0, lambda now: pytest.fail("a sleeper ran"))
        env.every(10.0, fired.append)
        sleeper.sleep()
        sleeper.cancel()
        sleeper.wake()  # a member that has left stays gone
        env.run(until=25.0)
        assert fired == [10.0, 20.0] and env.queue_depth == 1

    def test_a_false_tick_next_to_sleepers_ends_the_timer(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        sleeper = env.every(10.0, lambda now: fired.append("sleeper"))
        env.every(10.0, lambda now: fired.append("once") or False)
        sleeper.sleep()
        env.run()
        assert fired == ["once"] and env.queue_depth == 0
        sleeper.wake()
        env.run(until=30.0)
        assert fired == ["once", "sleeper", "sleeper"]

    def test_a_member_may_sleep_inside_its_own_tick(self, backend):
        env = Environment(scheduler=backend)
        fired = []
        handles = {}

        def napper(now):
            fired.append(("napper", now))
            handles["napper"].sleep()
            handles["other"].wake()

        handles["napper"] = env.every(10.0, napper)
        handles["other"] = env.every(
            10.0, lambda now: fired.append(("other", now))
        )
        handles["other"].sleep()
        env.run(until=25.0)
        # Woken by an earlier member, "other" ticks in the same tick.
        assert fired == [("napper", 10.0), ("other", 10.0),
                         ("other", 20.0)]
        handles["other"].sleep()
        env.run()
        assert env.queue_depth == 0


class ChainMember:
    """The reference ``every``: a timer chain of one's own, kicked by one
    zero-delay event at the join, re-armed after each tick."""

    def __init__(self, env, interval, tick):
        self.env = env
        self.interval = interval
        self.tick = tick
        self.live = True
        self.asleep = False
        self.timer = None
        kick = env.event()
        kick.callbacks.append(self._arm)
        kick.succeed()

    def _arm(self, _event):
        if self.live:
            self.timer = self.env.timeout(self.interval)
            self.timer.callbacks.append(self._fire)

    def _fire(self, _timer):
        if not self.asleep and self.tick(self.env.now) is False:
            self.live = False
        self._arm(None)

    def cancel(self):
        self.live = False
        if self.timer is not None:
            self.timer.cancel()

    def sleep(self):
        self.asleep = True

    def wake(self):
        self.asleep = False


def cohort_plan(seed):
    """Joins and cancels at random, clustered on a few instants so that
    same-interval joins both share and miss one another's instant."""
    import random

    rng = random.Random(seed)
    instants = [0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 20.0, 30.0, 30.0, 41.0, 60.0]
    joins = [
        (rng.choice(instants), member, rng.choice((2.0, 20.0, 30.0, 60.0)),
         rng.choice((None, None, 1, 3, 7)))
        for member in range(24)
    ]
    cancels = [
        (rng.choice(instants) + rng.choice((0.0, 3.0, 40.0)),
         rng.randrange(24))
        for _ in range(8)
    ]
    return joins, cancels


def nap_plan(seed):
    """:func:`cohort_plan` plus sleeps at any instant and wakes off the
    integer grid every tick lands on: a wake never ties with a tick."""
    import random

    rng = random.Random(-seed)
    joins, cancels = cohort_plan(seed)
    instants = sorted({at for at, *_ in joins})
    naps = [
        (rng.choice(instants) + rng.choice(offsets), kind, rng.randrange(24))
        for _ in range(16)
        for kind, offsets in ((2, (0.0, 3.0, 40.0)),
                              (3, (0.5, 3.5, 40.5, 90.5)))
    ]
    return joins, cancels, naps


def run_cohort_plan(backend, plan, join):
    """Drive ``plan`` with ``join(env, interval, tick)``; return the firing
    log ``[(now, member)]`` and each member's cohort key."""
    joins, cancels, *naps = plan
    env = Environment(scheduler=backend)
    log = []
    handles = {}
    keys = {}

    def tick_of(member, leave_after):
        count = [0]

        def tick(now):
            log.append((now, member))
            count[0] += 1
            if leave_after is not None and count[0] >= leave_after:
                return False

        return tick

    ops = sorted(
        [(at, 0, member, interval, leave) for at, member, interval, leave
         in joins]
        + [(at, 1, member, None, None) for at, member in cancels]
        + [(at, kind, member, None, None) for nap in naps
           for at, kind, member in nap],
        key=lambda op: op[:2],
    )

    def driver(env):
        for at, kind, member, interval, leave in ops:
            if at > env.now:
                yield env.timeout(at - env.now)
            if kind == 0:
                keys[member] = (interval, env.now)
                handles[member] = join(env, interval, tick_of(member, leave))
            elif member in handles:
                handle = handles[member]
                (handle.cancel, handle.sleep, handle.wake)[kind - 1]()

    env.process(driver(env))
    env.run(until=400.0)
    return log, keys


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(20))
def test_every_fires_as_per_member_chains_would(backend, seed):
    assert_fires_as_chains(backend, cohort_plan(seed))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(20))
def test_sleepers_fire_as_chains_skipping_their_ticks_would(backend, seed):
    assert_fires_as_chains(backend, nap_plan(seed))


def assert_fires_as_chains(backend, plan):
    got, keys = run_cohort_plan(backend, plan, Environment.every)
    want, _ = run_cohort_plan(backend, plan, ChainMember)

    def times(log):
        fired = {}
        for now, member in log:
            fired.setdefault(member, []).append(now)
        return fired

    def cohort_order(log):
        order = {}
        for now, member in log:
            order.setdefault((now, keys[member]), []).append(member)
        return order

    assert times(got) == times(want)
    assert cohort_order(got) == cohort_order(want)
