"""Warm-standby replication: log shipping, lease failover, epoch fencing.

Exercises :mod:`repro.core.replication` through a real farm: a tenant's
deployment becomes the primary of a pair, the standby mirrors its
pessimistic log over the host link, and the failover controller promotes
on lease expiry.  The fencing regression here is the one the tentpole is
accountable for: a resurrected old primary must discover its epoch is
stale and reconcile instead of acking or routing.
"""

from repro.core.endpoint import IncomingAlert
from repro.core.farm import FarmProfile
from repro.core.replication import (
    FailoverController,
    FencingService,
    PairSide,
    ReplicaRole,
    build_pair,
)
from repro.net.message import ChannelType
from repro.sim.clock import MINUTE
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

