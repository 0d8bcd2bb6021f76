"""Capstone integration: a day in the life of one SIMBA user.

All five §2 source types run concurrently against one MyAlertBuddy under an
MDC, while the user commutes (presence changes), a fault fires, and the
nightly rejuvenation rolls past 23:30.  One test, the whole Figure-1 →
Figure-2 architecture.
"""

import pytest

from repro.aladdin import AladdinHome
from repro.aladdin.sss import SoftStateStore
from repro.net import ChannelType, LatencyModel
from repro.sim import DAY, HOUR, MINUTE
from repro.sources.desktop import DesktopAssistant
from repro.sources.portal import LegacyEmailAlertService
from repro.sources.proxy import AlertProxy, ProxyRule
from repro.sources.webserver import SimulatedWebSite
from repro.sources.webstore import CommunityStore
from repro.wish import (
    FloorPlan,
    LocationTrigger,
    PathLossModel,
    Region,
    WISHAlertService,
    WISHClient,
    WISHServer,
)
from repro.world import SimbaWorld, WorldConfig
from tests.recorders import record_alerts, record_runs

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
EMAIL_FAST = LatencyModel(median=20.0, sigma=0.5, low=2.0, high=600.0)


@pytest.fixture(scope="module")
def full_day():
    world = SimbaWorld(
        WorldConfig(
            seed=20, im_latency=IM_FIXED, email_latency=EMAIL_FAST,
            email_loss=0.0, sms_loss=0.0,
        )
    )
    alice = world.create_user("alice", present=False)  # asleep at t=0
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)
    buddy.subscribe("Investment", alice, "normal",
                    keywords=["Stocks", "Financial news"])
    buddy.subscribe("Home Emergency", alice, "critical",
                    keywords=["Sensor ON"])
    buddy.subscribe("Home Routine", alice, "digest",
                    keywords=["Sensor OFF", "Security Armed",
                              "Security Disarmed", "Sensor Broken"])
    buddy.subscribe("Friends", alice, "digest",
                    keywords=["family-circle update"])
    buddy.subscribe("Whereabouts", alice, "normal",
                    keywords=["Location enter_building",
                              "Location leave_building",
                              "Location move_region"])
    buddy.subscribe("Work Urgent", alice, "critical",
                    keywords=["Important email", "Reminder"])
    mdc = world.start_mdc(buddy)

    for source_name in ("yahoo", "proxy", "family-circle", "aladdin",
                        "wish", "assistant", "oldportal"):
        pass  # classifier acceptance below, per concrete source

    # 1. Portal (SIMBA-integrated).
    portal = world.create_source("yahoo")
    portal.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("yahoo")

    # 2. Legacy email-only service with subject keywords.
    from repro.core import ExtractionRule

    legacy = LegacyEmailAlertService(world.env, "oldportal", world.email)
    legacy.add_target(buddy.email_address)
    buddy.config.classifier.accept_source(
        "oldportal",
        ExtractionRule(source="oldportal", field="subject",
                       prefix="[", suffix="]"),
    )

    # 3. Information alert proxy over a news page.
    proxy = AlertProxy(world.env, "proxy",
                       world.create_source_endpoint("proxy"))
    proxy.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("proxy")
    site = SimulatedWebSite(world.env, "wsj.com")
    site.publish("/markets", "<q>open 10500</q>")
    proxy.add_rule(ProxyRule(site, "/markets", 60.0, "<q>", "</q>",
                             "Financial news"))
    proxy.start()

    # 4. Community web store.
    community = CommunityStore(world.env, "family-circle",
                               world.create_source_endpoint("community"))
    community.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("family-circle")
    community.add_member("grandma")
    community.create_album("grandma", "Holiday")

    # 5. Aladdin home.
    home = AladdinHome(world.env, world.rngs,
                       world.create_source_endpoint("aladdin"))
    home.gateway.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("aladdin")
    water = home.add_sensor("Basement Water", critical=True,
                            refresh_period=60.0)

    # 6. WISH tracking of her kid's laptop at school.
    plan = FloorPlan("school")
    plan.add_region(Region("classrooms", 0, 0, 30, 30))
    plan.add_ap("ap1", (15, 15))
    radio = PathLossModel(shadowing_sigma_db=2.0)
    sss = SoftStateStore(world.env, "wish-sss")
    server = WISHServer(world.env, plan, radio, sss,
                        rng=world.rngs.stream("wish-server"))
    kid = WISHClient(world.env, "kid", plan, radio, server,
                     rng=world.rngs.stream("wish-kid"), position=None)
    wish = WISHAlertService(world.env, "wish",
                            world.create_source_endpoint("wish"), server)
    buddy.config.classifier.accept_source("wish")
    wish.authorize("kid", "alice")
    wish.request_tracking("alice", "kid", {LocationTrigger.ENTER_BUILDING},
                          buddy.source_facing_book())
    kid.start()

    # 7. Desktop assistant at the office.
    assistant = DesktopAssistant(world.env, "assistant",
                                 world.create_source_endpoint("assistant"),
                                 idle_threshold=15 * MINUTE)
    assistant.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("assistant")

    runs = {
        name: record_runs(source)
        for name, source in (
            ("portal", portal), ("proxy", proxy), ("community", community),
            ("home", home.gateway), ("wish", wish), ("assistant", assistant),
        )
    }
    alerts = {
        name: record_alerts(source)
        for name, source in (
            ("portal", portal), ("legacy", legacy), ("proxy", proxy),
            ("community", community), ("home", home.gateway), ("wish", wish),
            ("assistant", assistant),
        )
    }

    # ---- the day's script ----
    def script(env):
        # 07:00 she wakes up, comes online at home.
        yield env.timeout(7 * HOUR - env.now)
        alice.set_present(True)
        # 08:00 the kid arrives at school (enters the building).
        yield env.timeout(HOUR)
        kid.set_position((15.0, 15.0))
        # 08:30 commute: offline.
        yield env.timeout(30 * MINUTE)
        alice.set_present(False)
        # 09:00 at the office desk.
        yield env.timeout(30 * MINUTE)
        alice.set_present(True)
        assistant.record_activity()
        # 09:30 market opens: portal + legacy + page change.
        yield env.timeout(30 * MINUTE)
        portal.emit("Stocks", "MSFT up 3%", "earnings")
        legacy.publish("Financial news", "Fed statement", "details")
        site.publish("/markets", "<q>rally 10900</q>")
        # 11:00 grandma posts a photo.
        yield env.timeout(90 * MINUTE)
        community.add_photo("grandma", "Holiday", "beach.jpg")
        # 12:30 she leaves for lunch; an urgent mail pops while away.
        yield env.timeout(90 * MINUTE)
        alice.set_present(False)
        yield env.timeout(20 * MINUTE)
        assistant.reminder_popped("budget review at 14:00")
        # 13:30 back at desk.
        yield env.timeout(50 * MINUTE)
        alice.set_present(True)
        assistant.record_activity()
        # 15:00 a fault: the IM client hangs; sanity checks must fix it.
        yield env.timeout(90 * MINUTE)
        buddy.endpoint.im_client.hang()
        # 17:45 home; 18:00 the basement floods (critical!).
        yield env.timeout(3 * HOUR)
        water.trip()
        # 22:00 she goes to sleep (offline); nightly rejuvenation at 23:30.
        yield env.timeout(4 * HOUR)
        alice.set_present(False)

    world.env.process(script(world.env))
    world.run(until=DAY + 2 * HOUR)
    return world, alice, buddy, mdc, {
        "portal": portal, "legacy": legacy, "proxy": proxy,
        "community": community, "home": home, "wish": wish,
        "assistant": assistant,
    }, runs, alerts


class TestFullDay:
    def test_every_source_type_delivered(self, full_day):
        world, alice, buddy, mdc, sources, _runs, alerts = full_day
        routed = {
            event.detail for event in buddy.journal.events
            if event.kind == "routed"
        }
        assert routed  # something was routed
        received_ids = alice.unique_alerts_received()
        # One alert from each of the seven producers reached alice.
        for name, emitted in alerts.items():
            assert emitted, f"{name} emitted nothing"
            assert any(a.alert_id in received_ids for a in emitted), (
                f"no alert from {name} reached the user"
            )

    def test_critical_flood_alert_timely(self, full_day):
        world, alice, buddy, mdc, sources, _runs, alerts = full_day
        flood = next(a for a in alerts["home"] if a.keyword == "Sensor ON")
        (receipt,) = [
            r for r in alice.receipts
            if r.alert_id == flood.alert_id and not r.duplicate
        ]
        assert receipt.channel is ChannelType.IM
        assert receipt.latency < 10.0

    def test_hang_repaired_by_sanity_checks(self, full_day):
        world, alice, buddy, mdc, sources, _runs, _alerts = full_day
        assert buddy.endpoint.im_manager.stats.restarts >= 1
        assert world.im.presence.is_online(buddy.im_address)

    def test_nightly_rejuvenation_happened(self, full_day):
        world, alice, buddy, mdc, sources, _runs, _alerts = full_day
        from repro.core.rejuvenation import RejuvenationKind

        kinds = [r.kind for r in buddy.journal.rejuvenations]
        assert RejuvenationKind.NIGHTLY in kinds

    def test_no_acknowledged_alert_lost(self, full_day):
        world, alice, buddy, mdc, sources, runs, _alerts = full_day
        # Every SIMBA source delivered, and every delivery ended.
        assert all(runs.values()), [n for n, r in runs.items() if not r]
        outcomes = [run.value for started in runs.values() for run in started]
        acked = {
            outcome.correlation for outcome in outcomes
            if outcome.delivered and outcome.delivered_via == 0
        }
        assert acked, "no alert was acknowledged over IM"
        # Every IM-acknowledged alert either reached alice or was
        # deliberately routed to a digest (email) that may still be unread
        # — but none may be *unknown* to the journal.
        journal_ids = {
            e.alert_id for e in buddy.journal.events if e.alert_id
        }
        assert acked <= journal_ids

    def test_recovery_report_renders(self, full_day):
        from repro.metrics import recovery_report

        world, alice, buddy, mdc, sources, _runs, _alerts = full_day
        report = recovery_report(buddy, mdc=mdc, user=alice)
        assert "IM simple re-logons" in report
        assert "alerts routed" in report
