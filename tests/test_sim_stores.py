"""Unit tests for Store: an unbounded FIFO mailbox.

The contract is the one its five product users need (IM session inbox,
mailbox, phone inbox, IM client queue, MAB's alert inbox): ``put`` is a
plain call that hands the item to the oldest waiting getter or stores it,
``get`` is the only event, ``put_front`` returns a borrowed item to the
head, ``clear`` drops what is stored, and a getter that stops waiting
(interrupt, cancel) leaves the queue.
"""

import random

import pytest

from repro.errors import Interrupt
from repro.sim import Environment, Store


def test_put_then_get_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for item in ("a", "b", "c"):
        store.put(item)
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
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(7.0, "late")]


def test_len_tracks_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    store.get()
    assert len(store) == 1


def test_put_returns_none_and_schedules_nothing_without_a_waiter():
    """No waiter, no event: a put into an idle mailbox costs the kernel
    nothing; a put that wakes a getter schedules exactly that get."""
    env = Environment()
    store = Store(env)
    assert store.put("stored") is None
    assert env.queue_depth == 0
    assert store.get().value == "stored"
    env.run()
    waiting = store.get()
    assert not waiting.triggered and env.queue_depth == 0
    assert store.put("handed over") is None
    assert waiting.value == "handed over" and len(store) == 0
    assert env.queue_depth == 1


def test_multiple_getters_fifo_service():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1.0)
        store.put("x")
        store.put("y")
        store.put("z")

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", "x"), ("second", "y")]
    assert store.items == ["z"]


def test_put_front_goes_to_the_head_or_to_the_oldest_waiter():
    env = Environment()
    store = Store(env)
    store.put("second")
    store.put_front("first")
    assert store.items == ["first", "second"]
    assert store.clear() == ["first", "second"]
    waiters = [store.get(), store.get()]
    store.put_front("borrowed")
    assert waiters[0].value == "borrowed"
    assert not waiters[1].triggered and len(store) == 0


def test_clear_drops_and_returns_items():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    assert store.clear() == ["a", "b"]
    assert len(store) == 0
    # Crash injection empties the mailbox, not the reader's place in line.
    waiting = store.get()
    assert store.clear() == []
    store.put("after")
    assert waiting.value == "after"


def test_interrupted_getter_does_not_swallow_items():
    """Regression: an interrupted process's pending get must leave the
    store's queue, or the next put vanishes into a processed event nobody
    reads."""
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
        store.put("precious")

    env.process(scenario(env))
    env.run(until=10.0)
    assert got == ["precious"]


def test_cancelled_getter_leaves_the_queue():
    env = Environment()
    store = Store(env)
    abandoned, kept = store.get(), store.get()
    abandoned.cancel()
    abandoned.cancel()  # idempotent
    store.put("item")
    assert kept.value == "item" and not abandoned.triggered
    # Cancelling a get that was already served changes nothing.
    kept.cancel()
    assert kept.value == "item" and len(store) == 0


def test_unbounded_store_has_no_putter_queue_to_leak_into():
    env = Environment()
    store = Store(env)
    for item in range(1000):
        store.put(item)
    assert len(store) == 1000 and env.queue_depth == 0
    assert not hasattr(store, "_putters") and not hasattr(store, "capacity")
    with pytest.raises(TypeError):
        Store(env, 1)  # no capacity argument
    with pytest.raises(TypeError):
        store.get(lambda item: True)  # no filtered gets
    with pytest.raises(AttributeError):
        store.scratch = 1  # slotted: no per-instance dict either


@pytest.mark.parametrize("seed", range(20))
def test_put_get_order_matches_fifo_model(seed):
    """Seeded random put / get / put_front / cancel schedules against the
    obvious model: two lists, at most one of them non-empty."""
    rng = random.Random(seed)
    env = Environment()
    store = Store(env)
    log, expected = [], []
    model_items, model_waiting = [], []
    gets = {}

    def model_put(item, front):
        if model_waiting:
            expected.append([model_waiting.pop(0), item, env.now])
        elif front:
            model_items.insert(0, item)
        else:
            model_items.append(item)

    def script(env):
        for step in range(150):
            roll = rng.random()
            if roll < 0.4:
                item = rng.randrange(100)
                model_put(item, front=False)
                store.put(item)
            elif roll < 0.8:
                if model_items:
                    expected.append([step, model_items.pop(0), env.now])
                else:
                    model_waiting.append(step)
                gets[step] = store.get()
                gets[step].callbacks.append(
                    lambda event, step=step: log.append(
                        [step, event.value, env.now]
                    )
                )
            elif roll < 0.87:
                item = rng.randrange(100)
                model_put(item, front=True)
                store.put_front(item)
            elif roll < 0.92 and model_waiting:
                gets[model_waiting.pop(rng.randrange(len(model_waiting)))].cancel()
            else:
                yield env.timeout(1.0)

    env.process(script(env))
    env.run()
    assert log == expected
    assert store.items == model_items
    assert len(store._getters) == len(model_waiting)
