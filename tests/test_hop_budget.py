"""Hop budget: what one delivered alert may cost in processes and resumes.

A ``Process`` is for code that suspends on something that can take
simulated time or be interrupted (DESIGN §6d); a hop that only forwards a
message is a callback on the event.  This test counts, on the 20-user
golden farm, every ``Process`` spawned and every generator resume by the
generator's qualname — from outside, by wrapping ``Process.__init__`` and
handing it a generator proxy that counts ``send``/``throw`` — and pins the
alert path
exactly, so a forwarding process cannot creep back unnoticed.  Beside it,
the event budget: every non-timer event the run schedules, by class
(counted by wrapping both backends' ``schedule``), so an event nobody
waits on cannot creep back either.  The counts are a pure function of the
scenario: both scheduler backends are counted, and must agree.

Beside them, the replicated budget counts spawns, resumes and timers on a
replicated chaos run, so a lease monitor or heartbeat process cannot creep
back either, and the idle budget counts what a cold tenant leaves parked
and what an ended incarnation leaves queued.

The second part is the heap budget: what the same runs may leave behind
that only the cyclic collector can free — nothing on the delivery path.
The third is the residue budget: what every offered alert may leave
behind that is still alive — only the listed lean per-alert records.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.core.admission import AdmissionConfig, DeadLetter
from repro.core.alert import Alert
from repro.core.buddy import JournalEvent
from repro.core.pessimistic_log import LogEntry
from repro.core.router import BlockOutcome, DeliveryEngine, DeliveryOutcome
from repro.core.user_endpoint import Receipt
from repro.sim.events import Timeout
from repro.sim.process import Process
from repro.sim.scheduler import HeapScheduler
from repro.sim.wheel import WheelScheduler
from repro.testkit.generator import FaultScheduleGenerator, StormConfig
from repro.testkit.harness import ChaosRunConfig, run_chaos
from repro.testkit.oracle import DeliveryOracle, ObservedOutcome
from tests.golden_farm import N_USERS, run_golden_farm

#: Alerts the golden-farm driver emits: two rounds over every tenant plus
#: the unmapped, rejected, duplicated and crash-replayed ones.
EMITTED = 2 * N_USERS + 4
DELIVERED = 42

#: Spawns over the whole run.  Only ``AlertSource.deliver`` scales with
#: alerts; everything else is lifecycle (launches, the one crash/relaunch).
#: The idle duties that only wait on their own timer or mailbox — nightly
#: rejuvenation, stabilizer tasks, source maintenance, the user's phone,
#: mail and reconnect poll — are callbacks, not processes (DESIGN §6b).
EXPECTED_SPAWNS = {
    "AlertSource.deliver": EMITTED,
    "MonkeyThread._loop": 46,
    "MyAlertBuddy._main": 21,
    "SimbaEndpoint._email_loop": 23,
    "SimbaEndpoint._im_loop": 23,
    "UserEndpoint._im_loop": N_USERS,
    "run_golden_farm.<locals>.driver": 1,
}

#: Resumes of the processes an alert passes through (the monkey, the one
#: idle loop left, ticks with simulated time, not with alerts; it is
#: counted in the total below).
EXPECTED_ALERT_PATH_RESUMES = {
    "AlertSource.deliver": 2 * EMITTED,  # kick-off + the ack-vs-timeout race
    "SimbaEndpoint._im_loop": 199,
    "SimbaEndpoint._email_loop": 24,
    "MyAlertBuddy._main": 197,
    "UserEndpoint._im_loop": 106,
}
#: Every generator resume and every timer armed over the run.  The timers
#: did not move when the idle duties became callbacks: each chain arms the
#: same timers its process did.
TOTAL_RESUMES = 4002
GOLDEN_TIMERS = 5953

#: Non-timer events scheduled over the whole run, by class: ``Event`` is
#: process kick-offs, acks and transit hand-offs, ``StoreGet`` a mailbox
#: waking its reader, ``AnyOf`` a settled race, ``Process`` a finished
#: process waking whoever waits on it.  There is no row for a put — with
#: ``StorePut`` the run scheduled 220 more events, 5.24 per delivered alert.
EXPECTED_EVENTS = {"Event": 330, "StoreGet": 221, "AnyOf": 86, "Process": 49}
EVENTS_PER_DELIVERED = 16.33


def count_hops(run):
    """``(spawns, resumes, events, timers)`` of one ``run()``: spawns and
    resumes by qualname, non-timer events by class, and every timer armed.
    """
    spawns: Counter = Counter()
    resumes: Counter = Counter()
    events: Counter = Counter()
    timers = 0
    original_init = Process.__init__

    class CountedGenerator:
        """What ``Process`` takes for its generator, counting resumes."""

        def __init__(self, generator):
            self.generator = generator
            self.__name__ = generator.__name__
            self.qualname = generator.__qualname__

        def send(self, value):
            resumes[self.qualname] += 1
            return self.generator.send(value)

        def throw(self, *args):
            resumes[self.qualname] += 1
            return self.generator.throw(*args)

    def counting_init(self, env, generator, name=None):
        spawns[generator.__qualname__] += 1
        original_init(self, env, CountedGenerator(generator), name)

    def counting_schedule(schedule):
        def counted(self, event, delay=0.0):
            # Timers are counted where they are armed (and a pooled one
            # never comes through here); everything else is a hand-off.
            if event.__class__ is not Timeout:
                events[type(event).__name__] += 1
            schedule(self, event, delay)

        return counted

    def counting_timeout(timeout):
        def counted(self, delay, value=None):
            nonlocal timers
            timers += 1
            return timeout(self, delay, value)

        return counted

    # Patched before the world is built: an Environment binds its
    # backend's ``schedule`` and ``timeout`` at construction.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", counting_init)
        for backend in (HeapScheduler, WheelScheduler):
            patch.setattr(
                backend, "schedule", counting_schedule(backend.schedule)
            )
            patch.setattr(
                backend, "timeout", counting_timeout(backend.timeout)
            )
        run()
    return spawns, resumes, events, timers


def on_both_backends(run):
    """``count_hops(run)``, which both scheduler backends must agree on."""
    counts = []
    for backend in ("heap", "wheel"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SCHEDULER", backend)
            counts.append(count_hops(run))
    assert counts[0] == counts[1], "the backends disagree"
    return counts[1]


def run_counted_golden_farm():
    farm = run_golden_farm()
    assert farm.delivery_summary()["received"] == DELIVERED


@pytest.fixture(scope="module")
def hop_counts():
    return on_both_backends(run_counted_golden_farm)


def test_one_spawn_per_alert_and_no_forwarding_processes(hop_counts):
    spawns, _resumes, _events, _timers = hop_counts
    forwarding = [
        name for name in spawns if name.endswith(("_deliver", "_pump"))
    ]
    assert forwarding == []
    assert dict(spawns) == EXPECTED_SPAWNS


def test_alert_path_resumes_are_pinned(hop_counts):
    _spawns, resumes, _events, _timers = hop_counts
    measured = {name: resumes[name] for name in EXPECTED_ALERT_PATH_RESUMES}
    assert measured == EXPECTED_ALERT_PATH_RESUMES
    per_alert = sum(measured.values()) / DELIVERED
    assert per_alert < 15  # 35 before message transit left the processes
    assert sum(resumes.values()) == TOTAL_RESUMES


def test_idle_callbacks_arm_the_timers_their_processes_did(hop_counts):
    _spawns, _resumes, _events, timers = hop_counts
    assert timers == GOLDEN_TIMERS


def test_non_timer_events_are_pinned(hop_counts):
    _spawns, _resumes, events, _timers = hop_counts
    assert "StorePut" not in events  # a put is a call: no waiter, no event
    assert dict(events) == EXPECTED_EVENTS
    assert round(sum(events.values()) / DELIVERED, 2) == EVENTS_PER_DELIVERED


# ---------------------------------------------------------------------------
# Replicated budget: what a replicated farm's idle machinery may cost
# ---------------------------------------------------------------------------
#
# The hop budget's sibling for the warm-standby pairs (DESIGN §6b): lease
# checks are one sweep timer per farm tick and heartbeats a callback chain,
# so neither spawns a process.  The only replication process left on the
# idle path is the post-partition catch-up flush.  Counted on the 8-user
# replicated chaos run that the heap budget below also audits.

#: The 8-user replicated chaos run, with schedule seed 21's faults.
REPLICATED = ChaosRunConfig(
    seed=0, n_users=8, duration=600.0, alert_period=4.0, replication=True
)


def replicated_schedule():
    return FaultScheduleGenerator(
        21, [f"user{i}" for i in range(REPLICATED.n_users)],
        duration=REPLICATED.duration, start=REPLICATED.start,
        replication=True,
    ).generate()


def run_counted_replicated_chaos():
    report = run_chaos(replicated_schedule(), REPLICATED)
    assert report.oracle.ok and report.injected == 8


#: Spawns over the whole run.  Beside the alert path and the per-tenant
#: loops, replication spawns only what suspends: the catch-up flushes after
#: the link partitions and the fenced side's reconciliation.  An MDC probe
#: is answered by a callback on its request, not a client process.
EXPECTED_REPLICATED_SPAWNS = {
    "AlertSource.deliver": 363,
    "ChannelBase._outage_timer": 3,
    "DeliveryRig.round_robin.<locals>.workload": 1,
    "FailoverController._reconcile": 1,
    "FaultInjector._fire": 8,
    "MasterDaemonController._monitor": 9,
    "MonkeyThread._loop": 24,
    "MyAlertBuddy._main": 11,
    "PairSide._catch_up": 2,
    "RetryStage._requeue": 24,
    "SimbaEndpoint._email_loop": 12,
    "SimbaEndpoint._im_loop": 12,
    "UserEndpoint._im_loop": 16,
}
#: Every generator resume and every timer armed over the run.
REPLICATED_RESUMES = 8036
REPLICATED_TIMERS = 21043


@pytest.fixture(scope="module")
def replicated_counts():
    return on_both_backends(run_counted_replicated_chaos)


def test_replication_idle_path_spawns_no_process(replicated_counts):
    spawns, resumes, _events, timers = replicated_counts
    idle = [
        name for name in spawns
        if name.startswith("FailoverController._monitor")
        or (name.startswith("PairSide.") and "heartbeat" in name)
    ]
    assert idle == []
    assert dict(spawns) == EXPECTED_REPLICATED_SPAWNS
    assert sum(resumes.values()) == REPLICATED_RESUMES
    assert timers == REPLICATED_TIMERS


# ---------------------------------------------------------------------------
# Idle budget: what a cold tenant parks, and what an ended incarnation keeps
# ---------------------------------------------------------------------------
#
# A tenant that received its alert and went quiet should be state, not
# loops (DESIGN §6b): every idle duty that only waits on its own timer or
# mailbox is a callback.  What may still park a process per tenant is what
# suspends on something else — the MAB's main loop and its endpoint's
# receive loops, which hand stale work back, and the user's IM loop, which
# waits out a human reaction.  Counted on the inline E13 farm, whose
# profile turns the monkey threads off.

#: Processes a cold E13 tenant may leave parked, one of each per tenant.
COLD_TENANT_PARKED = (
    "MyAlertBuddy._main",
    "SimbaEndpoint._email_loop",
    "SimbaEndpoint._im_loop",
    "UserEndpoint._im_loop",
)
#: What each shard parks besides its tenants: the portal source
#: endpoint's two receive loops and two monkey threads.
SHARD_PARKED = {
    "MonkeyThread._loop": 2,
    "SimbaEndpoint._email_loop": 1,
    "SimbaEndpoint._im_loop": 1,
}


def cold_farm_census():
    """``(parked processes by qualname, tenants, shards)`` once the small
    inline E13 farm has delivered everything and gone idle."""
    from tests.test_sharded_farm import SMALL, small_farm

    spawned = []
    original_init = Process.__init__

    def recording_init(self, env, generator, name=None):
        spawned.append((generator.__qualname__, self))
        original_init(self, env, generator, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", recording_init)
        farm = small_farm(2, inline=True)
        with farm:
            farm.run(until=SMALL["duration"] + SMALL["drain"])
            tenants = sum(len(shard._worker.farm) for shard in farm._workers)
    parked = Counter(name for name, process in spawned if process.is_alive)
    return parked, tenants, farm.shards


def idle_budget_breaches(parked, tenants, shards):
    allowed = Counter({name: tenants for name in COLD_TENANT_PARKED})
    allowed.update({name: n * shards for name, n in SHARD_PARKED.items()})
    return sorted(
        f"{name}: {parked[name]} parked, {allowed[name]} allowed"
        for name in parked.keys() | allowed.keys()
        if parked[name] != allowed[name]
    )


def test_a_cold_tenant_parks_only_what_suspends():
    parked, tenants, shards = cold_farm_census()
    assert tenants > 0
    assert idle_budget_breaches(parked, tenants, shards) == []
    own = sum(parked.values()) - sum(SHARD_PARKED.values()) * shards
    assert own / tenants == len(COLD_TENANT_PARKED)  # 9 as idle loops


def test_a_tenant_with_a_reconnect_process_breaks_the_idle_budget(
    monkeypatch,
):
    from repro.core.user_endpoint import RECONNECT_INTERVAL, UserEndpoint

    def reconnect_loop(user):
        while True:
            yield user.env.timeout(RECONNECT_INTERVAL)

    start = UserEndpoint.start

    def start_with_a_loop(user):
        start(user)
        user.env.process(reconnect_loop(user), name=f"{user.name}-reconnect")

    monkeypatch.setattr(UserEndpoint, "start", start_with_a_loop)
    parked, tenants, shards = cold_farm_census()
    assert idle_budget_breaches(parked, tenants, shards) == [
        f"{reconnect_loop.__qualname__}: {tenants} parked, 0 allowed"
    ]


def live_timers_of(env, owners):
    """Queued, uncancelled timers whose callback is a method of one of
    ``owners`` (read off the heap backend's queue)."""
    return [
        event
        for _at, _seq, event in env.scheduler._queue
        if isinstance(event, Timeout) and not event._cancelled
        and any(
            getattr(callback, "__self__", None) is owner
            for callback in event.callbacks
            for owner in owners
        )
    ]


def test_an_ended_incarnation_leaves_no_timer_queued(monkeypatch):
    """The crashed incarnation's nightly rejuvenation (most of a day
    away) and its stabilizer ticks are cancelled when it ends; its
    successor's are live, which shows the scan sees them."""
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    farm = run_golden_farm()
    ended, current = farm.tenant_at(5).deployment.incarnations
    assert not ended.alive and current.alive
    env = farm.world.env
    live = live_timers_of(env, (current, current.stabilizer))
    assert len(live) == 3  # nightly + im-sanity + email-sanity
    assert live_timers_of(env, (ended, ended.stabilizer)) == []


# ---------------------------------------------------------------------------
# Heap budget: what a run may leave for the cyclic collector
# ---------------------------------------------------------------------------
#
# The sibling of the hop budget.  A finished ``Process`` holds nothing
# (DESIGN §6d), so the delivery path makes no cyclic garbage at all and a
# sharded farm may freeze its tenants out of the collector's working set
# (DESIGN §9, "Heap discipline").  What is still left to the collector is
# listed here, by kind, and nothing else may join it unnoticed.

#: Objects of one ``UserEndpoint._im_loop`` parked for good on the inbox of
#: a session the IM service has killed: the process, its generator and
#: cached ``send``, the ``_wake`` it left on the ``StoreGet``, and the dead
#: session's store — 10 objects on CPython 3.11, 12 where the session and
#: its ``__dict__`` are counted with them.  Waking the loop to let it end
#: would add a resume per logout, so it stays the collector's.
PARKED_LOOP_KINDS = {
    "Process", "generator", "builtin_function_or_method", "method",
    "StoreGet", "Store", "IMSession", "list", "dict",
}
PARKED_LOOP_OBJECTS = 12
#: Sessions killed under a listening user in the chaos run below.
CHAOS_PARKED_LOOPS = 8


def unreachable_after(run):
    """What only a collection can free after ``run()`` with the collector
    off, while its result is still alive: ``(count, objects)``.

    The scenario runs once beforehand so that lazy imports — module
    set-up is cyclic garbage of its own — are paid outside the census.
    """
    run()
    gc.collect()
    gc.disable()
    try:
        alive = run()  # noqa: F841 - held until the census is taken
        gc.set_debug(gc.DEBUG_SAVEALL)
        count = gc.collect()
        return count, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("backend", ["heap", "wheel"])
def test_golden_farm_leaves_nothing_for_the_collector(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", backend)
    count, garbage = unreachable_after(run_golden_farm)
    assert count == 0, Counter(type(o).__qualname__ for o in garbage)


def test_a_process_that_keeps_its_wake_breaks_the_heap_budget(monkeypatch):
    class ClingyProcess(Process):
        __slots__ = ()

        def succeed(self, value=None):
            # A generator that returned ends here, just after letting go.
            self._wake = self._resume
            return super().succeed(value)

    monkeypatch.setattr("repro.sim.kernel.Process", ClingyProcess)
    count, garbage = unreachable_after(run_golden_farm)
    leaked = [o for o in garbage if isinstance(o, ClingyProcess)]
    assert len(leaked) >= EMITTED  # one per alert, as before the fix
    assert count >= 2 * len(leaked)  # each with the bound method it kept


def test_replicated_chaos_leaves_only_the_listed_residue():
    class KeepingOracle(DeliveryOracle):
        """Holds the quiesced farm, so the census sees a live world."""

        def check(self, farm, **kwargs):
            self.farm = farm
            return super().check(farm, **kwargs)

    schedule = replicated_schedule()

    def run():
        oracle = KeepingOracle()
        report = run_chaos(schedule, REPLICATED, oracle=oracle)
        assert report.oracle.ok and report.injected == 8
        return oracle

    count, garbage = unreachable_after(run)
    kinds = Counter(type(o).__qualname__ for o in garbage)
    parked = Counter(
        o.__qualname__ for o in garbage if type(o).__name__ == "generator"
    )
    assert parked == {"UserEndpoint._im_loop": CHAOS_PARKED_LOOPS}
    assert set(kinds) <= PARKED_LOOP_KINDS, kinds
    assert count <= CHAOS_PARKED_LOOPS * PARKED_LOOP_OBJECTS, kinds


def test_a_stopped_inline_sharded_farm_gives_the_heap_back():
    from tests.test_sharded_farm import SMALL, small_farm

    assert gc.get_freeze_count() == 0
    farm = small_farm(2, inline=True)
    with farm:
        farm.run(until=SMALL["duration"] + SMALL["drain"])
        # Tenants materialized during an epoch are frozen at its end.
        assert gc.get_freeze_count() > 0
        tenants = [
            weakref.ref(tenant)
            for shard in farm._workers
            for tenant in shard._worker.farm
        ]
        assert tenants
    assert gc.get_freeze_count() == 0
    gc.collect()
    assert [ref() for ref in tenants] == [None] * len(tenants)


# ---------------------------------------------------------------------------
# Residue budget: what every offered alert may leave alive
# ---------------------------------------------------------------------------
#
# The third budget.  An alert that has finished still leaves records: its
# log entry, journal lines, receipts, the sender's delivery outcome, the
# oracle's observation.  Each is a slotted value with one owner and no
# empty containers, and no engine keeps a history of outcomes (DESIGN §6d).
# The census runs a storm at the e2e benchmark's tiny size and is taken
# inside the oracle's audit, while the whole world — sources included — is
# still alive: the run's peak.

#: The records an offered alert leaves alive (one or more of some of them).
PER_ALERT_RECORDS = (
    Alert, LogEntry, JournalEvent, Receipt, DeliveryOutcome, BlockOutcome,
    DeadLetter, ObservedOutcome,
)

#: ``farm_storm_admission`` at the benchmark's ``tiny`` size.
STORM = ChaosRunConfig(
    seed=0,
    n_users=8,
    duration=600.0,
    admission=AdmissionConfig.hardened(0),
    storm=StormConfig(
        n_sources=4, base_rate=0.2, burst_rate=6.0, n_bursts=1,
        burst_duration=90.0, duplicate_probability=0.2,
    ),
)
STORM_OFFERED = 538


def _defined_in_repro(cls) -> bool:
    module = cls.__dict__.get("__module__")
    return isinstance(module, str) and module.startswith("repro.")


def storm_residue():
    """``(offered, live instances by class, the breaches)`` of a storm run."""

    class CensusOracle(DeliveryOracle):
        def check(self, farm, offered=None, **kwargs):
            gc.collect()
            live = gc.get_objects()
            self.offered = sum(len(ids) for ids in offered.values())
            self.counts = Counter(type(o) for o in live)
            self.loose = {
                type(o) for o in live
                if isinstance(o, PER_ALERT_RECORDS) and hasattr(o, "__dict__")
            }
            self.engines = [o for o in live if isinstance(o, DeliveryEngine)]
            del live
            return super().check(farm, offered=offered, **kwargs)

    oracle = CensusOracle()
    assert run_chaos([], STORM, oracle=oracle).oracle.ok
    # A listed class without __slots__ — or a subclass of one swapped in.
    loose = {cls for cls in PER_ALERT_RECORDS if cls.__dictoffset__}
    breaches = sorted(
        f"{cls.__name__} instances carry a __dict__"
        for cls in loose | oracle.loose
    )
    breaches += sorted(
        f"{cls.__module__}.{cls.__qualname__}: {count} live for "
        f"{oracle.offered} offered alerts, not in PER_ALERT_RECORDS"
        for cls, count in oracle.counts.items()
        if count >= oracle.offered and _defined_in_repro(cls)
        and cls not in PER_ALERT_RECORDS
    )
    assert oracle.engines, "the census saw no delivery engine"
    if any(hasattr(engine, "history") for engine in oracle.engines):
        breaches.append("a DeliveryEngine keeps a history")
    return oracle.offered, oracle.counts, breaches


def test_an_alert_leaves_only_lean_records():
    offered, counts, breaches = storm_residue()
    assert offered == STORM_OFFERED
    assert breaches == []
    # Taken at the peak: every alert's log entry and source copy is live.
    assert counts[LogEntry] == offered and counts[Alert] >= offered


def test_an_unslotted_receipt_breaks_the_residue_budget(monkeypatch):
    class LooseReceipt(Receipt):
        """A receipt subclass without ``__slots__``: one dict each."""

    monkeypatch.setattr("repro.core.user_endpoint.Receipt", LooseReceipt)
    _offered, counts, breaches = storm_residue()
    assert counts[LooseReceipt] > 0
    assert breaches == ["LooseReceipt instances carry a __dict__"]
