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

The wire budget counts, on the same farm, the wire texts built and the
decodes that parse, so a hop that re-encodes or re-parses an alert cannot
creep back either.  Beside them, the replicated budget counts spawns,
resumes and timers on a replicated chaos run, so a lease monitor or
heartbeat process cannot creep back either, and the idle budget counts
what a cold tenant leaves parked, the objects it holds, and what an ended
incarnation leaves queued.

The second part is the heap budget: what the same runs may leave behind
that only the cyclic collector can free — nothing on the delivery path.
The third is the residue budget: what every offered alert may leave
behind that is still alive — only the listed lean per-alert records.
"""

import dataclasses
import gc
import hashlib
import weakref
from collections import Counter

import pytest

from repro.core import alert as alert_module
from repro.core.admission import AdmissionConfig, DeadLetter
from repro.core.alert import Alert
from repro.core.buddy import JournalEvent
from repro.core.pessimistic_log import DeliveryStatus, LogEntry
from repro.core.pipeline import RouteStage
from repro.core.router import (
    AckTable,
    BlockOutcome,
    DeliveryEngine,
    DeliveryOutcome,
    DeliveryRun,
)
from repro.core.user_endpoint import Receipt
from repro.net.channel import ChannelStats
from repro.experiments.sharded import build_e13_workload
from repro.sim.events import Timeout
from repro.sim.kernel import Cohort
from repro.sim.process import Process
from repro.sim.scheduler import HeapScheduler
from repro.sim.wheel import WheelScheduler
from repro.sources.base import AlertSource
from repro.testkit.generator import FaultScheduleGenerator, StormConfig
from repro.testkit.harness import ChaosRunConfig, run_chaos
from repro.testkit.oracle import DeliveryOracle, ObservedOutcome
from tests.golden_farm import N_USERS, run_golden_farm

#: Alerts the golden-farm driver emits: two rounds over every tenant plus
#: the unmapped, rejected, duplicated and crash-replayed ones.
EMITTED = 2 * N_USERS + 4
DELIVERED = 42

#: Spawns over the whole run: none scales with alerts, everything is
#: lifecycle (MAB launches, the one crash/relaunch).  A source delivery is a
#: ``DeliveryRun`` started from a zero-delay kick (44 ``AlertSource.deliver``
#: processes when it was a process), the endpoints' receive loops are
#: mailbox readers (23 + 23 ``SimbaEndpoint`` and 20 ``UserEndpoint`` loops
#: when they were processes), and the idle duties that only wait on their
#: own timer or mailbox — monkey scans, nightly rejuvenation, stabilizer
#: tasks, source maintenance, the user's phone, mail and reconnect poll —
#: are callbacks, not processes (DESIGN §6b).
EXPECTED_SPAWNS = {
    "MyAlertBuddy._main": 21,
    "run_golden_farm.<locals>.driver": 1,
}

#: Resumes of the processes an alert passes through; the total below adds
#: only the driver's.  The source side resumes nothing (2 per alert when a
#: delivery was a process: its kick-off and its ack-vs-timeout race), and
#: neither do the readers (329 when the three receive loops were
#: processes: 199 + 24 at MAB's and the source's endpoints, 106 at the
#: users').
EXPECTED_ALERT_PATH_RESUMES = {
    "MyAlertBuddy._main": 197,
}
#: Every generator resume and every timer armed over the run.  The periodic
#: duties tick in cohorts (``env.every``): the 20 tenants start together, so
#: each (interval, start instant) arms one timer per period, not one per
#: tenant — 4 002 resumes and 5 953 timers when every tenant had its own.
#: The reconnect poll sleeps while its user is present and logged in, so
#: its cohort arms no timer at all: 743 timers when it ticked regardless.
#: 572 resumes when the receive loops were processes.
TOTAL_RESUMES = 243
GOLDEN_TIMERS = 692

#: Non-timer events scheduled over the whole run, by class: ``Event`` is
#: process, reader and delivery kick-offs, acks, transit hand-offs and the
#: hop after a delivery's ack race is decided, ``StoreGet`` a mailbox
#: waking MAB's main loop or handing a busy reader its backlog, ``Process``
#: a finished process waking whoever waits on it.  An idle reader takes a
#: message in the put's own dispatch: 221 ``StoreGet`` hops and 13.24
#: events per delivered alert while the receive loops were processes.
#: There is no row for a put — with ``StorePut`` the run scheduled 220
#: more events — and none for an ``AnyOf``: the 86 races were ``AnyOf``
#: events before a delivery settled its own race, and the 44 ended source
#: deliveries were ``Process`` events (14.29 per delivered alert).  A
#: cohort is kicked once however many members join it.
EXPECTED_EVENTS = {"Event": 332, "StoreGet": 46, "Process": 2}
EVENTS_PER_DELIVERED = 9.05


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


def test_no_spawn_per_alert_and_no_forwarding_processes(hop_counts):
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


def test_idle_cohorts_arm_one_timer_per_period(hop_counts):
    _spawns, _resumes, _events, timers = hop_counts
    assert timers == GOLDEN_TIMERS


def test_non_timer_events_are_pinned(hop_counts):
    _spawns, _resumes, events, _timers = hop_counts
    assert "StorePut" not in events  # a put is a call: no waiter, no event
    assert "AnyOf" not in events  # a delivery settles its own ack race
    assert dict(events) == EXPECTED_EVENTS
    assert round(sum(events.values()) / DELIVERED, 2) == EVENTS_PER_DELIVERED


#: Every generator resume on the golden farm as ``(instant, qualname)``, in
#: order: its count and the head of its SHA-256.  The same as when both
#: sides of a delivery ran it as a generator and the receive loops were
#: processes (``(572, "b62f012c32700c75")``), less the source's and the
#: loops' own resumes, so no process moved relative to another.
GOLDEN_RESUME_ORDER = (243, "569ae7199972859e")


def resume_order(run):
    """``(resumes, digest)`` of the order in which ``run()`` resumes its
    processes, and the number of resumes that a :class:`DeliveryRun` woke
    outside the dispatch that decided its last block."""
    order = []
    late = 0
    deciding = False
    original_init = Process.__init__
    decided = DeliveryRun._decided

    class RecordedGenerator:
        def __init__(self, generator, env):
            self.generator, self.env = generator, env
            self.__name__ = generator.__name__
            self.qualname = generator.__qualname__

        def send(self, value):
            nonlocal late
            order.append(f"{self.env.now!r} {self.qualname}")
            if isinstance(value, DeliveryOutcome) and not deciding:
                late += 1
            return self.generator.send(value)

        def throw(self, *args):
            order.append(f"{self.env.now!r} {self.qualname}!")
            return self.generator.throw(*args)

    def recording_init(self, env, generator, name=None):
        original_init(self, env, RecordedGenerator(generator, env), name)

    def flagged(run, event):
        nonlocal deciding
        deciding = True
        try:
            decided(run, event)
        finally:
            deciding = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", recording_init)
        patch.setattr(DeliveryRun, "_decided", flagged)
        run()
    digest = hashlib.sha256("\n".join(order).encode()).hexdigest()[:16]
    return (len(order), digest), late


def test_a_waiter_resumes_in_the_dispatch_that_decided_its_race():
    order, late = resume_order(run_counted_golden_farm)
    assert late == 0
    assert order == GOLDEN_RESUME_ORDER


def test_a_run_that_wakes_its_waiter_a_hop_late_breaks_the_budget(
    monkeypatch,
):
    finish = DeliveryRun._finish

    def queued_finish(run, delivered):
        waiters, run.callbacks = run.callbacks, []
        finish(run, delivered)
        hop = run.env.event()
        hop.callbacks += [lambda _hop, wake=wake: wake(run) for wake in waiters]
        hop.succeed()

    monkeypatch.setattr(DeliveryRun, "_finish", queued_finish)
    _order, late = resume_order(run_counted_golden_farm)
    assert late > 0


# ---------------------------------------------------------------------------
# Wire budget: an alert is written once and read once
# ---------------------------------------------------------------------------
#
# The wire text never changes from hop to hop (DESIGN §5b): the source
# builds it, MAB logs and forwards the ``str`` it received, and every
# decode of a text built in this process is a memo lookup.  Counted from
# outside by wrapping the module's two builders: ``_render`` (a wire text
# built) and ``_parse`` (a cold parse).


def count_wire(monkeypatch):
    """``(wire texts built, cold parses)`` over one golden-farm run."""
    counts: Counter = Counter()
    for name in ("_render", "_parse"):

        def counted(arg, _original=getattr(alert_module, name), _name=name):
            counts[_name] += 1
            return _original(arg)

        monkeypatch.setattr(alert_module, name, counted)
    run_counted_golden_farm()
    return counts["_render"], counts["_parse"]


def wire_budget_breaches(built, parsed):
    breaches = []
    if built != EMITTED:
        breaches.append(f"{built} wire texts built for {EMITTED} alerts")
    if parsed:
        breaches.append(f"{parsed} decodes parsed a text built in-process")
    return breaches


def test_an_alert_is_written_once_and_read_once(monkeypatch):
    assert wire_budget_breaches(*count_wire(monkeypatch)) == []


def test_a_route_stage_that_re_encodes_breaks_the_wire_budget(monkeypatch):
    route = RouteStage.run

    def copying_run(self, ctx):
        # A per-trip copy of the alert, which has no wire text yet.
        ctx.incoming.alert = dataclasses.replace(ctx.alert)
        return (yield from route(self, ctx))

    monkeypatch.setattr(RouteStage, "run", copying_run)
    built, parsed = count_wire(monkeypatch)
    assert built > EMITTED and parsed == 0
    assert wire_budget_breaches(built, parsed) == [
        f"{built} wire texts built for {EMITTED} alerts"
    ]


def test_a_decode_that_bypasses_the_memo_breaks_the_wire_budget(monkeypatch):
    def parse_always(cls, text):
        alert = cls(*alert_module._parse(text))
        alert._wire = text
        return alert

    monkeypatch.setattr(Alert, "decode", classmethod(parse_always))
    built, parsed = count_wire(monkeypatch)
    assert built == EMITTED and parsed > 0
    assert wire_budget_breaches(built, parsed) == [
        f"{parsed} decodes parsed a text built in-process"
    ]


def test_a_replaced_alert_encodes_its_new_fields():
    alert = Alert("portal", "News", "old", "b", 1.0)
    text = alert.encode()
    changed = dataclasses.replace(alert, subject="new")
    assert Alert.decode(changed.encode()).subject == "new"
    assert alert.encode() is text


def test_the_parse_memo_stays_within_its_bound():
    size = alert_module.PARSE_MEMO_SIZE
    for index in range(10 * size):
        newest = Alert("portal", "News", f"s{index}", "b", 1.0)
        newest.encode()
        assert len(alert_module._parse_memo) <= size
    assert alert_module._parse_memo[newest.encode()][2] == newest.subject


# ---------------------------------------------------------------------------
# Replicated budget: what a replicated farm's idle machinery may cost
# ---------------------------------------------------------------------------
#
# The hop budget's sibling for the warm-standby pairs (DESIGN §6b): lease
# checks are one sweep timer per farm tick, armed only while some check
# might promote, and heartbeats a chain of steps that arms a timer only
# while its pair is not quiet, so neither spawns a process.  The only replication process left on the idle path is the
# post-partition catch-up flush.  Counted on the 8-user replicated chaos
# run that the heap budget below also audits.

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


#: Spawns over the whole run.  Beside the alert path and MAB's main
#: loops, replication spawns only what suspends: the catch-up flushes after
#: the link partitions and the fenced side's reconciliation.  An MDC probe
#: is answered by a callback on its request, not a client process.
EXPECTED_REPLICATED_SPAWNS = {
    "ChannelBase._outage_timer": 3,
    "DeliveryRig.round_robin.<locals>.workload": 1,
    "FailoverController._reconcile": 1,
    "FaultInjector._fire": 8,
    "MasterDaemonController._monitor": 9,
    "MyAlertBuddy._main": 11,
    "PairSide._catch_up": 2,
    "RetryStage._requeue": 24,
}
#: Every generator resume and every timer armed over the run; a reconnect
#: poll ticks only while its user is present without a session (7 158
#: timers when the polls ticked regardless), and a lease check only while
#: a check might promote (7 069 when the lease sweep ticked regardless).
#: 5 100 resumes when the 363 source deliveries were processes, 4 520 when
#: the 40 receive loops were.
REPLICATED_RESUMES = 2840
REPLICATED_TIMERS = 5456


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
# mailbox is a callback, and the endpoints' receive loops are mailbox
# readers (DESIGN §6d).  What may still park a process per tenant is what
# a §4.2.1 crash or hang must interrupt: the MAB's main loop.  Counted on
# the inline E13 farm, whose profile turns the monkey threads off.

#: Processes a cold E13 tenant may leave parked, one of each per tenant
#: (four while the MAB endpoint's two receive loops and the user's IM loop
#: were processes).
COLD_TENANT_PARKED = ("MyAlertBuddy._main",)
#: What each shard parks besides its tenants: nothing (the portal source
#: endpoint's two receive loops while they were processes).
SHARD_PARKED: dict = {}


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


def test_an_endpoint_with_receive_loop_processes_breaks_the_idle_budget():
    from tests.receive_loops import receive_loops

    with receive_loops(user=False):
        parked, tenants, shards = cold_farm_census()
    # Each MAB endpoint and each shard's portal endpoint parks two loops.
    assert idle_budget_breaches(parked, tenants, shards) == [
        f"{name}: {tenants + shards} parked, 0 allowed"
        for name in ("email_loop", "im_loop")
    ]


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


#: Tracked objects an idle cold E13 tenant may hold (built and launched, no
#: alert), counted in the collector's young generations.  What every tenant
#: of a profile holds alike is built once per farm, and a part that only
#: carries a hook is built by its first use (DESIGN §6b, "A cold tenant").
#: What is left: the tenant's own records, MAB's parked main loop, the
#: three armed readers, the reconnect poll's cohort membership, its two
#: RNG streams.  118 while the receive loops were processes (99 with
#: readers), and E13's never-running stabilizer joins no cohort (4 more).
COLD_TENANT_OBJECTS = 95


def idle_tenant_objects(tenants: int = 200) -> float:
    """Tracked objects per idle cold tenant on an inline E13 shard worker:
    what materializing ``tenants`` more adds to the heap once every loop
    has parked.  The worker's kernel is run directly, not by epochs, so
    the heap is never frozen: a frozen heap would read about 0."""
    from repro.core.shard import ShardSpec, ShardWorker
    from repro.experiments.sharded import (
        E13_PROFILE,
        E13_WORKLOAD,
        e13_world_config,
    )

    worker = ShardWorker(ShardSpec(
        shard=0, shards=1, seed=0, population=tenants,
        workload=E13_WORKLOAD, workload_kwargs={"active_permille": 0},
        world_config=e13_world_config(0), profile=E13_PROFILE,
    ))
    # The first tenant builds what the profile's tenants share.
    worker.tenant("warm")
    worker.world.run(until=1.0)
    gc.collect()
    before = len(gc.get_objects())
    for index in range(tenants):
        worker.tenant(f"user{index}")
    worker.world.run(until=2.0)
    gc.collect()
    return (len(gc.get_objects()) - before) / tenants


def test_an_idle_cold_tenant_holds_only_its_own_state():
    assert idle_tenant_objects() <= COLD_TENANT_OBJECTS


def test_a_per_tenant_copy_of_the_profile_config_breaks_the_object_budget(
    monkeypatch,
):
    from repro.core import farm

    config_for = farm._ProfileConfig.config_for

    def unshared(profile_config, user):
        return config_for(farm._ProfileConfig(profile_config.profile), user)

    monkeypatch.setattr(farm._ProfileConfig, "config_for", unshared)
    assert idle_tenant_objects() > COLD_TENANT_OBJECTS


def queued_timers(env):
    """Queued, uncancelled timers (read off the heap backend's queue)."""
    return [
        event
        for _at, _seq, event in env.scheduler._queue
        if isinstance(event, Timeout) and not event._cancelled
    ]


def live_timers_of(env, owner):
    """Queued timers whose callback is a method of ``owner``."""
    return [
        timer for timer in queued_timers(env)
        if any(
            getattr(callback, "__self__", None) is owner
            for callback in timer.callbacks
        )
    ]


def cohort_members_of(env, owner):
    """Members of queued cohorts whose tick is a method of ``owner``, bare
    or with arguments bound by ``functools.partial``."""
    return [
        member
        for timer in queued_timers(env) if isinstance(timer.value, Cohort)
        for member in timer.value
        if getattr(getattr(member.tick, "func", member.tick), "__self__", None)
        is owner
    ]


def test_an_ended_incarnation_leaves_no_timer_queued(monkeypatch):
    """The crashed incarnation's nightly rejuvenation (most of a day
    away) is cancelled and its stabilizer has left its cohort; its
    successor's are live, which shows the scan sees them."""
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    farm = run_golden_farm()
    ended, current = farm.tenant_at(5).deployment.incarnations
    assert not ended.alive and current.alive
    env = farm.world.env
    assert len(live_timers_of(env, current)) == 1  # the nightly timer
    # One member runs both sanity tasks, which share their interval.
    assert len(cohort_members_of(env, current.stabilizer)) == 1
    assert live_timers_of(env, ended) == []
    assert live_timers_of(env, ended.stabilizer) == []
    assert cohort_members_of(env, ended.stabilizer) == []


# ---------------------------------------------------------------------------
# Heap budget: what a run may leave for the cyclic collector
# ---------------------------------------------------------------------------
#
# The sibling of the hop budget.  A finished ``Process`` holds nothing
# (DESIGN §6d), so the delivery path makes no cyclic garbage at all and a
# sharded farm may freeze its tenants out of the collector's working set
# (DESIGN §9, "Heap discipline").  A reader lets go of its mailbox when
# its IM session ends, so a chaos run leaves the collector nothing either.


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


#: The golden farm's processes that return: its driver (and the stale IM
#: loop of the endpoint whose MAB crashes and is relaunched, while the
#: receive loops were processes).
ENDED_PROCESSES = ["golden-farm-driver"]


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
    # Every process that ends: no delivery is a process any more (one per
    # alert leaked, as before the fix, while source deliveries were).
    assert sorted(p.name for p in leaked) == ENDED_PROCESSES
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

    # While the user's IM window was a loop process, each of the 8 sessions
    # killed under a listening user parked its loop for good on the dead
    # inbox (up to 12 objects each); the reader lets go when its session
    # ends.
    count, garbage = unreachable_after(run)
    assert count == 0, Counter(type(o).__qualname__ for o in garbage)


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


def held_cold_farm(workload=None):
    """Run the small inline E13 farm and stop it, which gives the frozen
    heap back; return its shard workers, which hold the tenants."""
    from tests.test_sharded_farm import SMALL, small_farm

    overrides = {"workload": workload} if workload else {}
    farm = small_farm(2, inline=True, **overrides)
    with farm:
        farm.run(until=SMALL["duration"] + SMALL["drain"])
        workers = [shard._worker for shard in farm._workers]
    assert gc.get_freeze_count() == 0
    return workers


def test_shard_epochs_leave_nothing_for_the_collector():
    """Every epoch ends by freezing the heap (DESIGN §9): sound only while
    an epoch makes no cyclic garbage, since frozen garbage is never
    collected."""
    count, garbage = unreachable_after(held_cold_farm)
    assert count == 0, Counter(type(o).__qualname__ for o in garbage)


def cyclic_e13_workload(runtime, **kwargs):
    """The E13 workload, planting one reference cycle per tenant it
    materializes."""
    build_e13_workload(runtime, **kwargs)
    worker = runtime._worker
    materialize = worker.tenant

    def tenant(name):
        if name not in worker.farm.tenants:
            cycle = ["planted"]
            cycle.append(cycle)
        return materialize(name)

    worker.tenant = tenant


def test_a_cycle_per_tenant_breaks_the_shard_heap_budget():
    runs = []  # both runs stay held: neither leaves its own garbage

    def run():
        runs.append(held_cold_farm(f"{__name__}:cyclic_e13_workload"))
        return runs[-1]

    count, garbage = unreachable_after(run)
    planted = [o for o in garbage if type(o) is list and o[:1] == ["planted"]]
    tenants = sum(len(worker.farm) for worker in runs[-1])
    assert count == len(planted) == tenants > 0


# ---------------------------------------------------------------------------
# Residue budget: what every offered alert may leave alive
# ---------------------------------------------------------------------------
#
# The third budget.  An alert that has finished still leaves records: its
# log entry, journal lines, receipts, the oracle's observation.  Each is a
# slotted value with one owner and no empty containers.  A delivery's
# outcome belongs to its run and an alert to whoever emitted it, so
# neither an engine nor a source keeps a history of outcomes or alerts; an
# ack table keeps a byte per ack race, not an object; and a channel keeps
# exact latency aggregates, not one float per message (DESIGN §6d).  The
# census runs a storm at the e2e benchmark's tiny size and is taken inside
# the oracle's audit, while the whole world — sources included — is still
# alive: the run's peak.

#: The records an offered alert leaves alive (one or more of some of them).
PER_ALERT_RECORDS = (
    Alert, LogEntry, JournalEvent, Receipt, DeadLetter, ObservedOutcome,
    DeliveryStatus,
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
#: (peer, seq) keys the live ack tables classify at the census: one per ack
#: race a live IM session has had, kept until the key recurs (about 1.69
#: per offered alert; a resolved key is what tells a late duplicate ack
#: from an unsolicited one).  Each costs a byte of ``AckTable._state`` and
#: a reference to its peer's address, which the books hold anyway: the
#: bound is that the tables hold no object for them (907 dict entries,
#: each a key tuple, while the table was a dict).
STORM_ACKED = 907
#: Live ``Alert``s at the census: the log keeps each alert's wire text,
#: and a source keeps none of the alerts it emits.
STORM_ALERTS = 0


def _defined_in_repro(cls) -> bool:
    module = cls.__dict__.get("__module__")
    return isinstance(module, str) and module.startswith("repro.")


def ack_table_objects(table) -> int:
    """Objects ``table`` holds for the keys it has seen: whatever its
    containers other than the open waits (``_pending``) reference, less
    its peers' addresses."""
    held = set()
    for name, value in vars(table).items():
        if name != "_pending" and isinstance(value, (dict, list, set, tuple)):
            held.update(map(id, gc.get_referents(value)))
    return len(held - {id(peer) for peer in getattr(table, "_peers", ())})


def ack_table_breaches(tables) -> tuple[int, list[str]]:
    """``(keys, breaches)`` of ``(ack table, IM manager)`` pairs: a table
    holds no object per key and no spill, and its state array is no
    longer than its engine's IM session has seqs."""
    keys = objects = spilled = overlong = 0
    for table, manager in tables:
        state = getattr(table, "_state", b"")
        spill = getattr(table, "_spill", {})
        keys += len(state) - state.count(0) + len(spill)
        objects += ack_table_objects(table)
        spilled += len(spill)
        session = manager.client._session if manager is not None else None
        seqs = session._next_seq - 1 if session is not None else 0
        overlong += len(state) > seqs
    breaches = []
    if objects:
        breaches.append(
            f"the AckTables hold {objects} objects for {keys} keys, "
            "none allowed"
        )
    if spilled:
        breaches.append(f"the AckTable spills hold {spilled} keys")
    if overlong:
        breaches.append(
            f"{overlong} AckTable state arrays outgrow their IM session"
        )
    return keys, breaches


def storm_residue():
    """``(offered, live instances by class, ack-table keys, the
    breaches)`` of a storm run."""

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
            self.sources = [o for o in live if isinstance(o, AlertSource)]
            self.listing = {
                f"{type(o).__name__}.{name}"
                for o in live if isinstance(o, ChannelStats)
                for name in {f.name for f in dataclasses.fields(o)}
                | set(getattr(o, "__dict__", ()))
                if isinstance(getattr(o, name), list)
            }
            self.acked, self.ack_breaches = ack_table_breaches(
                (engine.acks, engine.managers.get("IM"))
                for engine in self.engines
            )
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
    assert oracle.sources, "the census saw no alert source"
    if any(hasattr(source, "outcomes") for source in oracle.sources):
        breaches.append("an AlertSource keeps its outcomes")
    if any(hasattr(source, "emitted") for source in oracle.sources):
        breaches.append("an AlertSource keeps what it emitted")
    breaches += sorted(f"{name} holds a list" for name in oracle.listing)
    breaches += oracle.ack_breaches
    return oracle.offered, oracle.counts, oracle.acked, breaches


def test_an_alert_leaves_only_lean_records():
    offered, counts, acked, breaches = storm_residue()
    assert offered == STORM_OFFERED
    assert acked == STORM_ACKED
    assert breaches == []
    # Taken at the peak: every alert's log entry is live, its Alert is not.
    assert counts[LogEntry] == offered
    assert counts[Alert] == STORM_ALERTS
    # ...and no finished delivery's outcome: it died with its run.
    assert counts[DeliveryOutcome] == counts[BlockOutcome] == 0


def test_a_table_that_keeps_resolved_events_breaks_the_ack_pin(monkeypatch):
    class HoardingAckTable(AckTable):
        """Also keeps every resolved ack event: one more entry per race."""

        def resolve(self, peer, seq):
            event = self._pending.get((peer, seq))
            resolved = super().resolve(peer, seq)
            if resolved:
                self.__dict__.setdefault("resolved", {})[peer, seq] = event
            return resolved

    monkeypatch.setattr("repro.core.router.AckTable", HoardingAckTable)
    _offered, _counts, acked, breaches = storm_residue()
    assert acked == STORM_ACKED
    # A key tuple and an event per resolved race.
    assert ack_objects(breaches) > acked


def ack_objects(breaches) -> int:
    """The object count of the one ack-table object breach."""
    (held,) = [b for b in breaches if b.startswith("the AckTables hold")]
    return int(held.split()[3])


def test_a_dict_per_key_ack_table_breaks_the_residue_budget(monkeypatch):
    from tests.test_ack_table_equivalence import DictAckTable

    monkeypatch.setattr("repro.core.router.AckTable", DictAckTable)
    _offered, _counts, _acked, breaches = storm_residue()
    assert len(breaches) == 1
    # A key tuple per key, and the shared True it maps to.
    assert ack_objects(breaches) > STORM_ACKED


def test_a_source_that_keeps_what_it_emitted_breaks_the_residue_budget(
    monkeypatch,
):
    make_alert = AlertSource.make_alert

    def hoarding_make_alert(self, *args, **kwargs):
        alert = make_alert(self, *args, **kwargs)
        self.__dict__.setdefault("emitted", []).append(alert)
        return alert

    monkeypatch.setattr(AlertSource, "make_alert", hoarding_make_alert)
    offered, counts, _acked, breaches = storm_residue()
    assert counts[Alert] >= offered
    assert breaches == ["an AlertSource keeps what it emitted"]


def test_a_source_that_keeps_its_outcomes_breaks_the_residue_budget(
    monkeypatch,
):
    start = AlertSource._start

    def hoarding_start(self, kick):
        kept = self.__dict__.setdefault("outcomes", [])
        kick._value.callbacks.append(lambda run: kept.append(run._value))
        start(self, kick)

    monkeypatch.setattr(AlertSource, "_start", hoarding_start)
    offered, counts, _acked, breaches = storm_residue()
    assert counts[DeliveryOutcome] >= offered
    assert "an AlertSource keeps its outcomes" in breaches
    for cls in (DeliveryOutcome, BlockOutcome):
        assert (
            f"{cls.__module__}.{cls.__qualname__}: {counts[cls]} live for "
            f"{offered} offered alerts, not in PER_ALERT_RECORDS"
        ) in breaches


def test_a_channel_that_keeps_its_latencies_breaks_the_residue_budget(
    monkeypatch,
):
    record = ChannelStats.record_delivery

    def listing_record(self, latency):
        self.__dict__.setdefault("latencies", []).append(latency)
        record(self, latency)

    monkeypatch.setattr(ChannelStats, "record_delivery", listing_record)
    _offered, _counts, _acked, breaches = storm_residue()
    assert breaches == ["ChannelStats.latencies holds a list"]


def test_an_unslotted_receipt_breaks_the_residue_budget(monkeypatch):
    class LooseReceipt(Receipt):
        """A receipt subclass without ``__slots__``: one dict each."""

    monkeypatch.setattr("repro.core.user_endpoint.Receipt", LooseReceipt)
    _offered, counts, _acked, breaches = storm_residue()
    assert counts[LooseReceipt] > 0
    assert breaches == ["LooseReceipt instances carry a __dict__"]
