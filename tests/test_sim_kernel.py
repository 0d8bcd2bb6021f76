"""Unit tests for the discrete-event kernel (Environment, Event, Process)."""

import pytest

from repro.errors import EventAlreadyTriggered, Interrupt, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=50.0)
    with pytest.raises(ValueError):
        env.run(until=10.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 3.0


def test_run_until_event_raises_process_exception():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=p)


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    env.run()
    assert env.run(until=p) == 42


def test_unwaited_process_failure_crashes_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unobserved")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unobserved"):
        env.run()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter_with_value():
    env = Environment()
    evt = env.event()
    results = []

    def waiter(env):
        value = yield evt
        results.append(value)

    def firer(env):
        yield env.timeout(2.0)
        evt.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert results == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter(env):
        try:
            yield evt
        except KeyError as exc:
            caught.append(exc)

    def firer(env):
        yield env.timeout(1.0)
        evt.fail(KeyError("nope"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert len(caught) == 1


def test_event_cannot_trigger_twice():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        evt.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        evt.fail(ValueError())


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(AttributeError):
        _ = evt.value
    with pytest.raises(AttributeError):
        _ = evt.ok


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield "not an event"

    p = env.process(proc(env))
    with pytest.raises(TypeError, match="expected an Event"):
        env.run(until=p)


def test_yield_already_processed_event_resumes():
    env = Environment()
    evt = env.event()
    evt.succeed("early")
    got = []

    def late_waiter(env):
        yield env.timeout(5.0)
        value = yield evt
        got.append(value)

    env.process(late_waiter(env))
    env.run()
    assert got == ["early"]


def test_any_of_triggers_on_first():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(10.0, value="slow")
        result = yield env.any_of([fast, slow])
        return list(result.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["fast"]
    assert env.now == 1.0


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(3.0, value="b")
        result = yield env.all_of([a, b])
        return sorted(result.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["a", "b"]
    assert env.now == 3.0


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == {}


def test_condition_fails_when_child_fails():
    env = Environment()
    bad = env.event()

    def proc(env):
        slow = env.timeout(10.0)
        yield env.all_of([bad, slow])

    def firer(env):
        yield env.timeout(1.0)
        bad.fail(ValueError("child died"))

    p = env.process(proc(env))
    env.process(firer(env))
    with pytest.raises(ValueError, match="child died"):
        env.run(until=p)


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def killer(env, target):
        yield env.timeout(2.0)
        target.interrupt("killed by test")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert log == [("interrupted", "killed by test", 2.0)]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    trace = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            trace.append(("caught", env.now))
        yield env.timeout(1.0)
        trace.append(("resumed", env.now))

    def killer(env, target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    # Interruption cancels the wait; the abandoned 100 s timeout is
    # tombstoned (nobody else observes it), so the run ends at t=6 instead
    # of draining the dead timer at t=100.
    assert trace == [("caught", 5.0), ("resumed", 6.0)]
    assert env.now == 6.0


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_nested_process_wait():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "child result"

    def parent(env):
        result = yield env.process(child(env))
        return f"parent saw {result}"

    p = env.process(parent(env))
    env.run(until=p)
    assert p.value == "parent saw child result"


def test_schedule_negative_delay_rejected():
    env = Environment()
    evt = env.event()
    with pytest.raises(ValueError):
        env.schedule(evt, delay=-1.0)


def test_determinism_two_identical_runs():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name, period):
            while env.now < 50.0:
                yield env.timeout(period)
                trace.append((round(env.now, 6), name))

        env.process(worker(env, "x", 3.0))
        env.process(worker(env, "y", 7.0))
        env.run(until=60.0)
        return trace

    assert build_and_run() == build_and_run()


def test_condition_built_on_failed_but_unprocessed_child():
    env = Environment()
    bad = env.event()
    bad.fail(ValueError("child failed"))

    def proc(env):
        yield env.all_of([bad, env.timeout(5.0)])

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="child failed"):
        env.run(until=p)


def test_late_child_failure_after_anyof_triggered_is_defused():
    env = Environment()
    slow_failure = env.event()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        result = yield env.any_of([fast, slow_failure])
        return list(result.values())

    def late_failer(env):
        yield env.timeout(10.0)
        slow_failure.fail(RuntimeError("too late to matter"))

    p = env.process(proc(env))
    env.process(late_failer(env))
    env.run()  # must NOT raise: the late failure is defused by the condition
    assert p.value == ["fast"]


def test_event_cancel_is_safe_on_plain_events():
    env = Environment()
    evt = env.event()
    evt.cancel()  # no-op
    evt.succeed("still works")
    assert evt.value == "still works"


def test_interrupt_cause_none():
    env = Environment()
    caught = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            caught.append(exc.cause)

    target = env.process(victim(env))

    def killer(env):
        yield env.timeout(1.0)
        target.interrupt()

    env.process(killer(env))
    env.run()
    assert caught == [None]


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        env.active_process.interrupt("me")
        yield env.timeout(1.0)

    p = env.process(selfish(env))
    with pytest.raises(RuntimeError, match="cannot interrupt itself"):
        env.run(until=p)


def test_run_until_inf_equivalent_to_none():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(3.0)
        done.append(env.now)

    env.process(proc(env))
    env.run(until=None)
    assert done == [3.0]


# ----------------------------------------------------------------------
# Cancellable timers, tombstones, and the zero-delay fast path
# ----------------------------------------------------------------------


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    timer = env.timeout(10.0)
    timer.callbacks.append(lambda evt: fired.append(env.now))
    timer.cancel()
    env.run()
    assert fired == []
    assert timer.cancelled
    assert not timer.processed
    assert env.now == 0.0  # nothing live was ever in the queue


def test_timeout_cancel_is_idempotent():
    env = Environment()
    timer = env.timeout(5.0)
    timer.cancel()
    timer.cancel()  # second cancel must not corrupt the dead-entry count
    assert env.dead_entries <= 1
    env.run()
    assert env.queue_depth == 0
    assert env.now == 0.0


def test_cancel_after_processing_is_noop():
    env = Environment()
    timer = env.timeout(1.0)
    env.run()
    assert timer.processed
    timer.cancel()
    assert not timer.cancelled


def test_run_skips_tombstoned_entries():
    """A cancelled timer's timestamp is never acted on: neither as a
    clock value nor as a reason to stop short of the horizon."""
    env = Environment()
    fired = []
    near = env.timeout(5.0)
    far = env.timeout(10.0)
    for timer in (near, far):
        timer.callbacks.append(lambda evt: fired.append(env.now))
    near.cancel()
    env.run(until=7.0)
    assert (env.now, fired) == (7.0, [])
    env.run()
    assert (env.now, fired) == (10.0, [10.0])


def test_run_all_tombstones_stays_idle():
    env = Environment()
    timers = [env.timeout(float(i + 1)) for i in range(4)]
    for timer in timers:
        timer.cancel()
    assert env.queue_depth == 0
    env.run()
    assert env.now == 0.0  # no tombstone's timestamp moved the clock
    assert env.queue_depth == 0 and env.dead_entries == 0


def test_queue_depth_excludes_tombstones():
    env = Environment()
    timers = [env.timeout(float(i + 10)) for i in range(6)]
    assert env.queue_depth == 6
    timers[0].cancel()
    timers[1].cancel()
    assert env.queue_depth == 4


def test_compaction_purges_dominating_tombstones():
    env = Environment()
    timers = [env.timeout(float(i + 1)) for i in range(20)]
    # Cancel more than half: the compaction threshold must trip and throw
    # the dead entries away wholesale (the 11th cancel tips 2*dead over the
    # queue length; the 12th lands after the purge).
    for timer in timers[:12]:
        timer.cancel()
    assert env.dead_entries <= 1  # compacted mid-loop, not accumulating 12
    assert env.queue_depth == 8
    order = []
    env.timeout(0.5).callbacks.append(lambda evt: order.append(env.now))
    env.run()
    # Compaction must not disturb the live timers' order or times.
    assert order == [0.5]
    assert env.now == 20.0


def test_anyof_cancels_losing_timer():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(100.0, value="slow")
        result = yield env.any_of([fast, slow])
        return (list(result.values()), slow)

    p = env.process(proc(env))
    env.run(until=p)
    values, slow = p.value
    assert values == ["fast"]
    # The losing guard timer was tombstoned, not left to pollute the heap.
    assert slow.cancelled
    assert env.queue_depth == 0
    env.run()
    assert env.now == 1.0


def test_anyof_keeps_timer_shared_with_another_waiter():
    env = Environment()
    resumed = []

    def racer(env, slow):
        fast = env.timeout(1.0, value="fast")
        yield env.any_of([fast, slow])

    def patient(env, slow):
        yield slow
        resumed.append(env.now)

    slow = env.timeout(50.0, value="slow")
    env.process(racer(env, slow))
    env.process(patient(env, slow))
    env.run()
    # The race resolved at t=1 but the timer had another observer: it must
    # still fire for the patient waiter.
    assert resumed == [50.0]


def test_allof_failure_cancels_orphaned_guard():
    env = Environment()
    bad = env.event()
    caught = []

    def proc(env):
        guard = env.timeout(500.0)
        try:
            yield env.all_of([bad, guard])
        except ValueError:
            caught.append(env.now)

    def firer(env):
        yield env.timeout(2.0)
        bad.fail(ValueError("child died"))

    env.process(proc(env))
    env.process(firer(env))
    env.run()
    assert caught == [2.0]
    # The guard timer lost its only observer when the condition failed.
    assert env.now == 2.0


def test_interrupt_tombstones_abandoned_timer():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            pass

    def killer(env, target):
        yield env.timeout(3.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert env.now == 3.0
    assert env.queue_depth == 0


def test_zero_delay_merges_with_heap_in_sequence_order():
    env = Environment()
    order = []

    def waiter(env, evt, tag):
        yield evt
        order.append((tag, env.now))

    evt = env.event()

    def first_timer(env):
        yield env.timeout(5.0)
        order.append(("timer1", env.now))
        evt.succeed()  # zero-delay: lands on the fast path at t=5

    def second_timer(env):
        yield env.timeout(5.0)
        order.append(("timer2", env.now))

    env.process(first_timer(env))
    env.process(second_timer(env))
    env.process(waiter(env, evt, "woken"))
    env.run()
    # Both timers were scheduled before the zero-delay resume, so sequence
    # order puts them first even though all three share t=5.
    assert order == [("timer1", 5.0), ("timer2", 5.0), ("woken", 5.0)]


def test_determinism_unaffected_by_cancellations():
    def build_and_run(with_cancel):
        env = Environment()
        trace = []

        def worker(env, name, period):
            while env.now < 30.0:
                guard = env.timeout(period * 10)
                tick = env.timeout(period)
                yield env.any_of([tick, guard])
                trace.append((round(env.now, 6), name))
                if with_cancel:
                    guard.cancel()  # explicit cancel on top of auto-release

        env.process(worker(env, "x", 3.0))
        env.process(worker(env, "y", 7.0))
        env.run(until=40.0)
        return trace

    assert build_and_run(True) == build_and_run(False)


def test_run_until_event_with_exhausted_queue_raises():
    env = Environment()
    never = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError, match="exhausted the queue"):
        env.run(until=never)


def test_process_repr():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    p = env.process(proc(env), name="named-proc")
    assert "named-proc" in repr(p)


# ---------------------------------------------------------------------------
# Stepper: a generator run on its events' callbacks, under Process's rules
# ---------------------------------------------------------------------------


def test_stepper_runs_to_its_first_wait_now_and_ends_in_the_last_dispatch():
    from repro.sim.process import Stepper

    env = Environment()
    log = []
    done = env.event()
    done.succeed("early")
    failed = env.event()

    def body():
        log.append(("start", env.now))
        value = yield env.timeout(1.0, "timer")
        log.append((value, env.now))
        log.append(((yield done), env.now))  # processed: re-armed
        try:
            yield failed.fail(RuntimeError("boom"))
        except RuntimeError as exc:  # a failed event is thrown in
            log.append((str(exc), env.now))
        try:
            yield "not an event"
        except TypeError:
            log.append(("bad yield", env.now))
        return "finished"

    stepper = Stepper(env, lambda value: log.append((value, env.now)))
    stepper.run(body())
    assert log == [("start", 0.0)]
    with pytest.raises(RuntimeError):
        stepper.run(body())  # one generator at a time
    env.run()
    assert log == [
        ("start", 0.0), ("timer", 1.0), ("early", 1.0), ("boom", 1.0),
        ("bad yield", 1.0), ("finished", 1.0),
    ]
    assert failed._defused
    stepper.close()
    assert stepper.then is None and stepper._wake is None


def test_stepper_lets_an_uncaught_exception_out():
    from repro.sim.process import Stepper

    env = Environment()

    def body():
        yield env.timeout(1.0)
        raise ValueError("uncaught")

    Stepper(env, lambda _value: None).run(body())
    with pytest.raises(ValueError):
        env.run()
