"""Warm-standby replication: log shipping, lease failover, epoch fencing.

Exercises :mod:`repro.core.replication` through a real farm: a tenant's
deployment becomes the primary of a pair, the standby mirrors its
pessimistic log over the host link, and the failover controller promotes
on lease expiry.  The fencing regression here is the one the tentpole is
accountable for: a resurrected old primary must discover its epoch is
stale and reconcile instead of acking or routing.
"""

import math
import random
from unittest import mock

import pytest

from repro.core.endpoint import IncomingAlert
from repro.core.farm import FarmProfile
from repro.core.replication import (
    DEFAULT_LEASE_CHECK_INTERVAL,
    DEFAULT_LEASE_TIMEOUT,
    FailoverController,
    FencingService,
    PairSide,
    ReplicaRole,
    ReplicatedPair,
    build_pair,
)
from repro.errors import ConfigurationError
from repro.net.adversary import AdversaryModel
from repro.net.channel import LatencyModel
from repro.net.message import ChannelType
from repro.sim.clock import MINUTE
from repro.sim.kernel import Membership
from repro.testkit.harness import EMAIL_FAST
from repro.testkit.oracle import DeliveryOracle
from repro.world import SimbaWorld, WorldConfig


def make_replicated_farm(seed=0, n_users=1, replicate=True, **pair_kwargs):
    oracle = DeliveryOracle()
    world = SimbaWorld(
        WorldConfig(
            seed=seed, email_latency=EMAIL_FAST, email_loss=0.0, sms_loss=0.0
        )
    )
    farm = world.create_farm(
        shards=2,
        profile=FarmProfile(categories=("News",), accept_sources=("portal",)),
    )
    tenants = farm.add_users(n_users)
    for tenant in tenants:
        tenant.deployment.config.pipeline_observer = oracle.observer_for(
            tenant.name
        )
    if not replicate:
        return world, farm, tenants, world.create_source("portal"), oracle
    farm.enable_replication(**pair_kwargs)
    farm.start_watchdogs(check_interval=60.0)
    source = world.create_source("portal")
    return world, farm, tenants, source, oracle


def start_workload(world, source, tenants, n, period=15.0, prefix="r"):
    """Round-robin n alerts; returns offered ids per tenant (filled live)."""
    offered = {t.name: set() for t in tenants}

    def workload(env):
        for index in range(n):
            tenant = tenants[index % len(tenants)]
            alert, _ = source.emit_to(
                tenant.book, "News", f"{prefix}-{index}", "body"
            )
            offered[tenant.name].add(alert.alert_id)
            yield env.timeout(period)

    world.env.process(workload(world.env), name="repl-test-workload")
    return offered


class TestLogShipping:
    def test_appends_and_marks_mirrored_to_standby(self):
        world, farm, tenants, source, oracle = make_replicated_farm()
        tenant = tenants[0]
        pair = tenant.pair
        offered = start_workload(world, source, tenants, n=5)
        world.env.run(until=10 * MINUTE)

        assert pair.audit.shipped > 0
        standby_log = pair.b.deployment.log
        for alert_id in offered[tenant.name]:
            assert standby_log.has_seen(alert_id)
            entry = standby_log.entry_for_alert(alert_id)
            assert entry.processed, "processed mark did not ship"
        # No failover happened: the creation promotion is the only one.
        assert len(pair.audit.promotions) == 1
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()
        assert report.checked.get("pairs") == 1

    def test_link_outage_queues_then_heartbeat_catches_up(self):
        # Lease long enough that the 200 s partition does NOT promote —
        # this test isolates the ship-queue/catch-up path.  (A partition
        # longer than the default lease legitimately promotes; that path
        # is TestFailover's business.)
        world, farm, tenants, source, oracle = make_replicated_farm(
            seed=3, lease_timeout=10 * MINUTE
        )
        tenant = tenants[0]
        pair = tenant.pair
        offered = start_workload(world, source, tenants, n=12, period=15.0)
        world.env.run(until=30.0)
        pair.link.outage(200.0)
        world.env.run(until=150.0)

        # Mid-outage: availability wins — the primary keeps acking and
        # delivering, the ship debt queues.
        assert pair.a.unshipped or pair.audit.unshipped_queued > 0
        standby_log = pair.b.deployment.log
        assert any(
            not standby_log.has_seen(alert_id)
            for alert_id in offered[tenant.name]
        )

        world.env.run(until=15 * MINUTE)
        # Post-outage: the heartbeat loop repaid the debt — no failover
        # happened, the mirror is whole again.
        assert len(pair.audit.promotions) == 1
        assert pair.a.unshipped == []
        for alert_id in offered[tenant.name]:
            assert standby_log.has_seen(alert_id)
        assert tenant.user.unique_alerts_received() >= offered[tenant.name]
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()


class TestFailover:
    def test_primary_crash_promotes_standby_within_lease(self):
        world, farm, tenants, source, oracle = make_replicated_farm(seed=5)
        tenant = tenants[0]
        pair = tenant.pair
        offered = start_workload(world, source, tenants, n=20, period=15.0)
        world.env.run(until=60.0)
        assert pair.a.host.power_failure(4 * MINUTE) is True
        world.env.run(until=20 * MINUTE)

        promotions = pair.audit.promotions
        assert len(promotions) == 2, "expected exactly one failover"
        promo = promotions[-1]
        assert promo.side == "b"
        # Lease (20 s default) + check interval (2 s) + slack: the whole
        # point is beating outage + reboot by an order of magnitude.
        assert 60.0 < promo.at < 60.0 + 35.0
        assert pair.active is pair.b
        # Nothing offered during the outage was lost.
        assert tenant.user.unique_alerts_received() >= offered[tenant.name]
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()

    def test_resurrected_old_primary_is_fenced_and_reconciles(self):
        """The fencing regression: the old primary comes back mid-epoch-2
        and must not ack or route anything — it reconciles and rejoins."""
        world, farm, tenants, source, oracle = make_replicated_farm(seed=7)
        tenant = tenants[0]
        pair = tenant.pair
        offered = start_workload(world, source, tenants, n=30, period=15.0)
        world.env.run(until=60.0)
        pair.a.host.power_failure(2 * MINUTE)
        world.env.run(until=25 * MINUTE)

        assert len(pair.audit.promotions) == 2
        promoted_at = pair.audit.promotions[-1].at
        # Resurrection gate fired: the side noticed it was fenced...
        fenced = [a for a in pair.audit.actions if a.kind == "fenced"]
        assert any(a.epoch == 1 for a in fenced)
        # ...and reconciliation completed: rejoined as a ready standby.
        assert [r.side for r in pair.audit.reconciliations] == ["a"]
        assert pair.a.role is ReplicaRole.STANDBY
        assert pair.a.ready
        # The invariant itself: no ack/route initiated under the fenced
        # epoch strictly after the promotion of the new one.
        for action in pair.audit.actions:
            if action.kind in ("ack", "route") and action.epoch == 1:
                assert action.at <= promoted_at
        assert tenant.user.unique_alerts_received() >= offered[tenant.name]
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()

        # Belt and braces: probe the guards directly — the stale side
        # refuses and forwards to the active one.
        alert, _ = source.emit_to(tenant.book, "News", "probe", "body")
        incoming = IncomingAlert(
            alert=alert,
            via=ChannelType.IM,
            sender="probe",
            received_at=world.env.now,
        )
        forwarded_before = len(pair.audit.forwarded)
        assert pair.a.ack_guard(incoming) is False
        assert pair.a.route_guard(incoming) is False
        assert len(pair.audit.forwarded) == forwarded_before + 2

    def test_a_fenced_side_keeps_its_delivery_status_through_reconcile(self):
        """Reconciliation re-seeds the fenced side with a fresh log built
        from the active side's records.  Delivery status is not a record,
        so the fresh log is handed the old one's: what the side settled
        before its outage stays settled."""
        world, farm, tenants, source, oracle = make_replicated_farm(seed=7)
        pair = tenants[0].pair
        start_workload(world, source, tenants, n=30, period=15.0)
        world.env.run(until=60.0)
        before = pair.a.deployment.log
        settled = {a for a, status in before.status.items() if status.routed}
        assert settled
        pair.a.host.power_failure(2 * MINUTE)
        world.env.run(until=25 * MINUTE)
        assert [r.side for r in pair.audit.reconciliations] == ["a"]
        after = pair.a.deployment.log
        assert after is not before
        assert settled <= {
            a for a, status in after.status.items() if status.routed
        }

    def test_standby_reboot_does_not_trigger_churn_promotion(self):
        """A standby coming back from an outage holds a stale lease clock;
        booting must restart the lease timer, not promote over a healthy
        primary."""
        world, farm, tenants, source, oracle = make_replicated_farm(seed=9)
        tenant = tenants[0]
        pair = tenant.pair
        offered = start_workload(world, source, tenants, n=10, period=15.0)
        world.env.run(until=50.0)
        pair.b.host.power_failure(60.0)
        world.env.run(until=15 * MINUTE)

        assert len(pair.audit.promotions) == 1, "spurious promotion"
        assert pair.active is pair.a
        assert pair.a.role is ReplicaRole.PRIMARY
        assert tenant.user.unique_alerts_received() >= offered[tenant.name]
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()


def record_promotions(monkeypatch):
    """Every promotion as ``(pair id, time)``, in the order it happened."""
    promoted = []
    promote = FailoverController.promote

    def recording(controller, standby):
        promoted.append((controller.pair.pair_id, controller.env.now))
        promote(controller, standby)

    monkeypatch.setattr(FailoverController, "promote", recording)
    return promoted


class TestLeaseSweep:
    """One lease-check timer per (interval, start instant), not per pair."""

    def test_leases_expiring_on_one_tick_promote_in_build_order(
        self, monkeypatch
    ):
        promoted = record_promotions(monkeypatch)
        world, farm, tenants, source, oracle = make_replicated_farm(
            seed=11, n_users=4
        )
        world.env.run(until=60.0)
        for tenant in tenants:
            assert tenant.pair.a.host.power_failure(4 * MINUTE) is True
        world.env.run(until=3 * MINUTE)

        # The four leases lapse together, so one sweep tick promotes all
        # four — in the order the pairs were built.
        assert [pair for pair, _ in promoted] == [t.name for t in tenants]
        assert len({at for _, at in promoted}) == 1

    def test_a_later_pair_keeps_its_own_check_phase(self, monkeypatch):
        promoted = record_promotions(monkeypatch)
        world, farm, tenants, source, oracle = make_replicated_farm(
            seed=13, n_users=2, replicate=False
        )
        fencing = FencingService()
        early, late = tenants
        early.pair = build_pair(world, early.deployment, fencing=fencing)
        world.env.run(until=0.7)
        late.pair = build_pair(world, late.deployment, fencing=fencing)
        farm.start_watchdogs(check_interval=60.0)
        world.env.run(until=60.0)
        early.pair.a.host.power_failure(4 * MINUTE)
        late.pair.a.host.power_failure(4 * MINUTE)
        world.env.run(until=3 * MINUTE)

        # Each pair's checks tick every 2 s from its own start, so the
        # late pair promotes on the 0.7 + 2k grid, not with the early one.
        at = dict(promoted)
        assert at[early.name] == 76.0
        assert at[late.name] == 76.7


class TestHeartbeatCatchUp:
    def test_catch_up_ships_the_queue_in_log_order(self, monkeypatch):
        shipped = []
        apply_on_peer = PairSide._apply_on_peer

        def recording(side, record):
            shipped.append((side.label, side.env.now, dict(record)))
            apply_on_peer(side, record)

        monkeypatch.setattr(PairSide, "_apply_on_peer", recording)
        world, farm, tenants, source, oracle = make_replicated_farm(
            seed=3, lease_timeout=10 * MINUTE
        )
        pair = tenants[0].pair
        world.env.run(until=30.0)
        # Every alert is acked, routed and marked while the link is down.
        pair.link.outage(200.0)
        offered = start_workload(world, source, tenants, n=5, period=20.0)
        world.env.run(until=229.0)
        queued = [dict(r) for r in pair.a.unshipped + pair.a.pending_marks]
        assert len(queued) == 10, "five appends and five processed marks"
        shipped.clear()
        world.env.run(until=5 * MINUTE)

        # Nothing new was logged after the heal: the first heartbeat to land
        # shipped the whole queue, in the order it was logged.
        assert [record for _, _, record in shipped] == queued
        assert {side for side, _, _ in shipped} == {"a"}
        assert 230.0 < shipped[0][1] < 240.0
        assert pair.a.unshipped == [] and len(pair.audit.promotions) == 1
        report = oracle.check(
            farm, offered=offered, source_endpoints=[source.endpoint]
        )
        assert report.ok, report.summary()


class TestFencingService:
    def test_epochs_monotonic_and_per_pair(self):
        fencing = FencingService()
        assert fencing.current("u1") == 0
        assert fencing.advance("u1") == 1
        assert fencing.advance("u1") == 2
        assert fencing.current("u1") == 2
        assert fencing.current("u2") == 0
        assert fencing.advance("u2") == 1



class TestPairSettings:
    """A period of zero would spin the kernel at one instant."""

    @pytest.mark.parametrize(
        "field",
        ["heartbeat_interval", "lease_timeout", "check_interval",
         "retry_interval"],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_a_period_that_is_not_positive_is_refused(self, field, value):
        world, farm, tenants, source, oracle = make_replicated_farm(
            replicate=False
        )
        host = tenants[0].deployment.host
        watchers = list(host._watchers)
        with pytest.raises(ConfigurationError, match=field):
            build_pair(world, tenants[0].deployment, **{field: value})
        # Refused before anything is built: no half-made pair watches the
        # primary's host.
        assert host._watchers == watchers

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_a_controller_refuses_a_check_interval_that_is_not_positive(
        self, value
    ):
        world, farm, tenants, source, oracle = make_replicated_farm()
        pair = tenants[0].pair
        with pytest.raises(ConfigurationError, match="check_interval"):
            FailoverController(world.env, pair, check_interval=value)


# ---------------------------------------------------------------------------
# Lazily settled heartbeats against the timer chain they replace
# ---------------------------------------------------------------------------


class ReferenceBeats:
    """The reference heartbeat: a timer per step, kicked by one zero-delay
    event.  A beat's send arms its landing through a callback transfer
    (the link's ``depart`` and ``lost_in_flight`` halves, one timer); the
    landing arms the next send, or spawns the catch-up flush."""

    def __init__(self, log):
        self.log = log

    def start(self, side):
        kick = side.env.event()
        kick.callbacks.append(lambda _kick: self._arm_beat(side))
        kick.succeed()

    def _arm_beat(self, side):
        if side.role is ReplicaRole.PRIMARY:
            side.env.timeout(side.pair.heartbeat_interval).callbacks.append(
                lambda _timer: self._beat(side)
            )

    def _beat(self, side):
        if side.role is not ReplicaRole.PRIMARY:
            return
        if side.fenced_now():
            side.notice_fenced()
            return
        link = side.pair.link
        if not side.host.up or not link.usable(toward=side.peer.host):
            self._arm_beat(side)
            return
        departed = link.depart(None, side.peer.host, None)
        if departed is None:
            self._beat_landed(side, False)
            return
        sent_at = side.env.now
        side.env.timeout(departed[0]).callbacks.append(
            lambda _timer: self._landed(side, sent_at)
        )

    def _landed(self, side, sent_at):
        link = side.pair.link
        if link.lost_in_flight(side.peer.host):
            self._beat_landed(side, False)
            return
        link.stats.record_delivery(side.env.now - sent_at)
        self._beat_landed(side, True)

    def _beat_landed(self, side, ok):
        if ok:
            side.peer.last_heartbeat = side.env.now
            if side.unshipped or side.pending_marks:
                side.unshipped.extend(side.pending_marks)
                side.pending_marks.clear()
                self.log["catch_up"].append((side.env.now, side.label))
                side.env.process(self._catch_up(side))
                return
        self._arm_beat(side)

    def _catch_up(self, side):
        while side._flushing:
            yield side.env.timeout(0.01)
        yield from side.flush_unshipped()
        self._arm_beat(side)


def pair_plan(seed):
    """Faults, promotions and bare transfers (a handoff's or a snapshot's)
    at random instants over twelve minutes, and ``build_pair`` settings."""
    rng = random.Random(seed)
    adversary = AdversaryModel(
        reorder_probability=0.3, duplicate_probability=0.3,
        corrupt_probability=0.2,
    )
    kinds = ("primary_down", "standby_down", "reboot", "link_down",
             "adversary", "promote", "transfer", "transfer")
    plan = [
        (rng.uniform(1.0, 720.0), rng.choice(kinds), rng.uniform(3.0, 90.0))
        for _ in range(rng.randint(4, 10))
    ]
    loss = 0.05 if seed % 6 == 5 else 0.0
    return sorted(plan), adversary, {"link_loss": loss}


def quiet_holds_no_timer(pair):
    """A timer is armed only when a beat could do more than land.  Quiet
    is one chain with a step pending, of an unfenced primary, both hosts
    up, an available link with no loss and no adversary, and empty ship
    queues; its chain has no wake timer.  Any other pair has one armed
    for every pending step."""
    chains = pair.keepalives
    link = pair.link
    if len(chains) == 1:
        chain = chains[0]
        side = chain.side
        quiet = (
            chain.at is not None
            and side.role is ReplicaRole.PRIMARY and not side.fenced_now()
            and side.host.up and side.peer.host.up
            and link.available and link.loss_probability == 0
            and not link.adversary.enabled
            and not side.unshipped and not side.pending_marks
        )
        if quiet:
            return chain.timer is None
    return all(c.timer is not None for c in chains if c.at is not None)


def read_on_the_lease_grid(pair, log):
    """Read both lease clocks at every instant of the pair's lease-check
    grid, whether its sweep sleeps or not.  A timer chain of its own, not
    a member of the sweep's cohort, which it would keep armed; started
    where the controller joined, it sums the instants as the cohort
    does."""
    env = pair.env
    interval = pair.controller.check_interval

    def read(_timer):
        pair.settle()
        log["lease"].append((env.now, pair.a.last_heartbeat,
                             pair.b.last_heartbeat))
        log["invariant"].append(quiet_holds_no_timer(pair))
        log["asleep"].append(pair.controller.sweep.asleep)
        env.timeout(interval).callbacks.append(read)

    env.timeout(interval).callbacks.append(read)


def run_pair_plan(seed, reference, plan=pair_plan, patches=()):
    """Drive one replicated tenant through ``plan(seed)``; return what the
    heartbeat chain and the lease sweep can touch.  ``reference`` beats
    by one timer per step; ``patches`` are more ``mock.patch`` objects."""
    faults_plan, adversary, pair_kwargs = plan(seed)
    log = {"lease": [], "fenced": [], "catch_up": [], "invariant": [],
           "asleep": []}
    notice_fenced = PairSide.notice_fenced
    catch_up = PairSide._catch_up

    def recording_notice(side):
        log["fenced"].append((side.env.now, side.label, side.role.value))
        notice_fenced(side)

    def recording_catch_up(side, chain):
        log["catch_up"].append((side.env.now, side.label))
        return catch_up(side, chain)

    patches = [
        mock.patch.object(PairSide, "notice_fenced", recording_notice),
        mock.patch.object(PairSide, "_catch_up", recording_catch_up),
        *patches,
    ]
    if reference:
        beats = ReferenceBeats(log)
        patches.append(
            mock.patch.object(PairSide, "start_heartbeats",
                              lambda side: beats.start(side))
        )
    for patch in patches:
        patch.start()
    try:
        world, farm, tenants, source, oracle = make_replicated_farm(
            seed=seed, **pair_kwargs
        )
        pair = tenants[0].pair
        read_on_the_lease_grid(pair, log)
        # Alerts stop after five minutes, so later boots find the pair
        # quiet.
        start_workload(world, source, tenants, n=16, period=19.0)

        def faults(env):
            for at, kind, duration in faults_plan:
                yield env.timeout(max(0.0, at - env.now))
                standby = pair.active.peer
                if kind == "primary_down":
                    pair.active.host.power_failure(duration)
                elif kind == "standby_down":
                    standby.host.power_failure(duration)
                elif kind == "reboot":
                    pair.active.host.reboot()
                elif kind == "link_down":
                    pair.link.outage(duration)
                elif kind == "adversary":
                    pair.link.adversary_pulse(adversary, duration)
                elif kind == "transfer":
                    env.process(pair.link.transfer(toward=standby.host))
                elif (standby.role is ReplicaRole.STANDBY and standby.ready
                      and standby.host.up):
                    pair.controller.promote(standby)

        world.env.process(faults(world.env))
        world.env.run(until=13 * MINUTE)
        pair.settle()
    finally:
        for patch in reversed(patches):
            patch.stop()
    link = pair.link
    return {
        **log,
        "stats": link.stats,
        "adversary": link.adversary_stats,
        "rng": link.rng.bit_generator.state,
        "promotions": pair.audit.promotions,
        "actions": [(a.epoch, a.kind, a.at) for a in pair.audit.actions],
    }


@pytest.mark.parametrize("seed", range(30))
def test_lazy_heartbeats_match_the_timer_chain(seed):
    """Settling a quiet pair's beats late, and waking it by timer when it
    is not quiet, leaves every lease reading, link counter, RNG draw,
    catch-up and fencing notice where one timer per step put it."""
    got = run_pair_plan(seed, reference=False)
    want = run_pair_plan(seed, reference=True)
    assert all(got.pop("invariant"))
    for side in (got, want):
        side.pop("asleep")
    want.pop("invariant")
    assert got["lease"] == want["lease"]
    assert got["catch_up"] == want["catch_up"]
    assert got["fenced"] == want["fenced"]
    assert got == want


# ---------------------------------------------------------------------------
# The sleeping lease sweep against a sweep that never sleeps
# ---------------------------------------------------------------------------

#: A lease a slow beat cannot ride out: a beat is sent 5 s after the last
#: landed and lands up to 3 s later, later than 0.5 s about one time in
#: three, so the lease lapses between landings now and then.
TIGHT_LEASE = {
    "lease_timeout": 5.5,
    "link_latency": LatencyModel(median=0.3, sigma=1.0, low=0.005, high=3.0),
}
#: A slow link under the default lease: the first beat sent after a
#: partition lands a second or two past the lapse.
SLOW_LINK = {
    "link_latency": LatencyModel(median=1.5, sigma=0.5, low=0.005, high=3.0),
}


def lease_plan(seed):
    """``pair_plan``'s faults plus link partitions shorter than the lease
    that heal near its lapse (the last landing is up to a beat before the
    partition), after the alerts, when nothing queues behind them.  Of every three seeds one runs the tight lease and one the
    slow link, none with a lossy link; every odd seed puts each fault's
    start and end on the lease grid, where a wake, a sleep or a heal ties
    with a check."""
    plan, adversary, pair_kwargs = pair_plan(seed)
    pair_kwargs.update((SLOW_LINK, TIGHT_LEASE, {})[seed % 3])
    lease = pair_kwargs.get("lease_timeout", DEFAULT_LEASE_TIMEOUT)
    rng = random.Random(f"lease-{seed}")
    plan += [
        (rng.uniform(320.0, 720.0), "link_down",
         max(1.0, lease - rng.uniform(0.0, 6.0)))
        for _ in range(rng.randint(4, 6))
    ]
    if seed % 2:
        grid = DEFAULT_LEASE_CHECK_INTERVAL
        plan = [
            (grid * round(at / grid), kind, grid * max(1, round(span / grid)))
            for at, kind, span in plan
        ]
    return sorted(plan), adversary, pair_kwargs


def is_lease_check(member):
    return isinstance(getattr(member.tick, "__self__", None),
                      FailoverController)


def never_sleeps():
    """The reference: every lease check ticks, as before sweeps slept."""
    sleep = Membership.sleep

    def ticking(member):
        if not is_lease_check(member):
            sleep(member)

    return mock.patch.object(Membership, "sleep", ticking)


def no_wake_on_power_off():
    """Tooth: a lease check is not woken while a host of its pair is off."""
    wake = Membership.wake

    def wake_unless_dark(member):
        if is_lease_check(member) and not all(
            side.host.up for side in member.tick.__self__.pair.sides()
        ):
            return
        wake(member)

    return mock.patch.object(Membership, "wake", wake_unless_dark)


def sleeps_past_a_slow_beat():
    """Tooth: sleeps though heartbeat + high latency + a check ≥ lease."""
    holds = ReplicatedPair._lease_holds

    def ignoring_the_margin(pair, steady):
        pair.controller.sweep_can_sleep = True
        return holds(pair, steady)

    return mock.patch.object(ReplicatedPair, "_lease_holds",
                             ignoring_the_margin)


def sleeps_on_a_lapsing_lease():
    """Tooth: reads the lease clock of a steady pair as just renewed."""
    holds = ReplicatedPair._lease_holds

    def blind(pair, steady):
        if steady is None:
            return holds(pair, steady)
        standby = pair.active.peer
        kept = standby.last_heartbeat
        standby.last_heartbeat = math.inf
        try:
            return holds(pair, steady)
        finally:
            standby.last_heartbeat = kept

    return mock.patch.object(ReplicatedPair, "_lease_holds", blind)


def run_lease_plan(seed, *patches):
    return run_pair_plan(seed, reference=False, plan=lease_plan,
                         patches=patches)


@pytest.mark.parametrize("seed", range(30))
def test_the_sleeping_lease_sweep_matches_the_ticking_one(seed):
    """A lease check skipped while the sweep sleeps, or at the wake
    instant, or reordered at the first check after a wake, cannot
    promote: promotions, fencing notices, lease readings, link counters,
    RNG draws and catch-ups are where a sweep that never sleeps put them."""
    got = run_lease_plan(seed)
    want = run_lease_plan(seed, never_sleeps())
    assert all(got.pop("invariant"))
    want.pop("invariant")
    # It sleeps, but never under the tight lease, and the reference never.
    assert any(got.pop("asleep")) == (seed % 3 != 1)
    assert not any(want.pop("asleep"))
    assert got["promotions"] == want["promotions"]
    assert got["fenced"] == want["fenced"]
    assert got["lease"] == want["lease"]
    assert got == want


@pytest.mark.parametrize(
    "tooth",
    [no_wake_on_power_off, sleeps_past_a_slow_beat, sleeps_on_a_lapsing_lease],
)
def test_a_sweep_that_sleeps_wrongly_breaks_the_property(tooth):
    for seed in range(30):
        got = run_lease_plan(seed, tooth())
        want = run_lease_plan(seed, never_sleeps())
        for side in (got, want):
            del side["asleep"], side["invariant"]
        if got != want:
            return
    pytest.fail(f"{tooth.__name__} matched the ticking sweep on 30 seeds")
