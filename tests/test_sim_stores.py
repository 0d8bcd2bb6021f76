"""Unit tests for Store (FIFO mailboxes)."""

import json
import random
from pathlib import Path

import pytest

from repro.sim import Environment, Store

#: Put/get completion orders of 40 seeded random schedules, recorded from
#: the pre-fast-path dispatch loop (every put queued a putter, every pass
#: rebuilt the getter queue) before ``Store`` went lean.  Regenerating the
#: file from the live ``Store`` would defeat it: it is the reference.
DISPATCH_ORDERS = json.loads(
    (Path(__file__).parent / "data" / "stores" / "dispatch_orders.json")
    .read_text()
)


def test_put_then_get_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["a", "b", "c"]


def test_get_blocks_until_item_arrives():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(7.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(7.0, "late")]


def test_len_tracks_items():
    env = Environment()
    store = Store(env)

    def proc(env):
        yield store.put(1)
        yield store.put(2)

    env.process(proc(env))
    env.run()
    assert len(store) == 2


def test_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    trace = []

    def producer(env):
        yield store.put("first")
        trace.append(("stored-first", env.now))
        yield store.put("second")
        trace.append(("stored-second", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        item = yield store.get()
        trace.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert trace == [
        ("stored-first", 0.0),
        ("got", "first", 5.0),
        ("stored-second", 5.0),
    ]


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_filtered_get_skips_non_matching():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in (1, 2, 3, 4):
            yield store.put(item)

    def consumer(env):
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [2]
    assert list(store.items) == [1, 3, 4]


def test_filtered_get_waits_for_match():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get(lambda x: x == "wanted")
        got.append((item, env.now))

    def producer(env):
        yield store.put("other")
        yield env.timeout(3.0)
        yield store.put("wanted")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("wanted", 3.0)]
    assert list(store.items) == ["other"]


def test_multiple_getters_fifo_service():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", "x"), ("second", "y")]


def test_clear_drops_and_returns_items():
    env = Environment()
    store = Store(env)

    def proc(env):
        yield store.put("a")
        yield store.put("b")

    env.process(proc(env))
    env.run()
    assert store.clear() == ["a", "b"]
    assert len(store) == 0


def test_interrupted_getter_does_not_swallow_items():
    """Regression: an interrupted process's pending get must leave the
    store's queue, or the next put vanishes into a processed event nobody
    reads."""
    from repro.errors import Interrupt

    env = Environment()
    store = Store(env)
    got = []

    def victim(env):
        try:
            yield store.get()
        except Interrupt:
            pass
        yield env.timeout(1000.0)

    def survivor(env):
        item = yield store.get()
        got.append(item)

    target = env.process(victim(env))
    env.process(survivor(env))

    def scenario(env):
        yield env.timeout(1.0)
        target.interrupt()
        yield env.timeout(1.0)
        yield store.put("precious")

    env.process(scenario(env))
    env.run(until=10.0)
    assert got == ["precious"]


def test_interrupted_putter_withdraws_item():
    from repro.errors import Interrupt

    env = Environment()
    store = Store(env, capacity=1)

    def filler(env):
        yield store.put("occupies")

    def victim(env):
        try:
            yield store.put("withdrawn")
        except Interrupt:
            pass
        yield env.timeout(1000.0)

    env.process(filler(env))
    target = env.process(victim(env))

    def scenario(env):
        yield env.timeout(1.0)
        target.interrupt()
        yield env.timeout(1.0)
        item = yield store.get()  # frees capacity
        assert item == "occupies"
        yield env.timeout(1.0)

    done = env.process(scenario(env))
    env.run(until=done)
    # The withdrawn put never landed even after capacity freed up.
    assert list(store.items) == []


def test_mixed_filtered_getters_keep_their_place():
    env = Environment()
    store = Store(env)
    served = []

    def waiter(tag, predicate=None):
        store.get(predicate).callbacks.append(
            lambda event: served.append((tag, event.value))
        )

    waiter("even", lambda x: x % 2 == 0)
    waiter("any-1")
    waiter("big", lambda x: x > 10)
    waiter("any-2")
    store.put(1)   # "even" and nothing else passes it over: any-1 takes it
    store.put(3)   # skips "even" and "big", which stay ahead of any-2
    store.put(12)  # both filters match; "even" queued first
    store.put(20)
    waiter("late")
    store.put(5)
    env.run()
    assert served == [
        ("any-1", 1), ("any-2", 3), ("even", 12), ("big", 20), ("late", 5),
    ]
    assert len(store) == 0


@pytest.mark.parametrize("capacity", [float("inf"), 3])
@pytest.mark.parametrize("seed", range(20))
def test_put_get_order_matches_reference_dispatch(seed, capacity):
    predicates = [
        None, lambda x: x % 2 == 0, lambda x: x % 3 == 0, lambda x: x > 50,
    ]
    rng = random.Random(seed)
    env = Environment()
    store = Store(env, capacity=capacity)
    log = []

    def note(kind, tag):
        return lambda event: log.append([kind, tag, event.value, env.now])

    def script(env):
        for step in range(120):
            roll = rng.random()
            if roll < 0.45:
                store.put(rng.randrange(100)).callbacks.append(
                    note("put", step)
                )
            elif roll < 0.9:
                store.get(rng.choice(predicates)).callbacks.append(
                    note("get", step)
                )
            elif roll < 0.95:
                store.put_front(rng.randrange(100))
            else:
                yield env.timeout(1.0)

    env.process(script(env))
    env.run()
    assert {
        "log": log,
        "items": list(store.items),
        "waiting_getters": len(store._getters),
        "queued_putters": len(store._putters or ()),
    } == DISPATCH_ORDERS[f"{seed}-{capacity}"]


def test_bounded_store_queues_and_withdraws_an_interrupted_putter():
    from repro.errors import Interrupt

    env = Environment()
    store = Store(env, capacity=1)
    store.put("occupies")

    def victim(env):
        try:
            yield store.put("withdrawn")
        except Interrupt:
            pass

    target = env.process(victim(env))
    env.run(until=1.0)
    assert [put.item for put in store._putters] == ["withdrawn"]
    target.interrupt()
    env.run(until=2.0)
    assert len(store._putters) == 0
    store.get()
    waiting = store.put("next")
    env.run()
    assert waiting.processed and list(store.items) == ["next"]


def test_unbounded_store_has_no_putter_queue_to_leak_into():
    env = Environment()
    store = Store(env)
    assert store._putters is None
    puts = [store.put(item) for item in range(3)]
    assert all(put.triggered for put in puts) and len(store) == 3
    # Withdrawing an already-accepted put finds no queue and changes nothing.
    puts[0].cancel()
    assert list(store.items) == [0, 1, 2]
    with pytest.raises(AttributeError):
        store.scratch = 1  # slotted: no per-instance dict either
