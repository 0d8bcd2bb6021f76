"""Unit tests for the alert sources: proxy, portal, webstore, desktop."""

import pytest

from repro.core import AlertSeverity
from repro.errors import ConfigurationError
from repro.net import ChannelType, LatencyModel
from repro.sim import MINUTE
from repro.sources import ProxyRule, SimulatedWebSite
from repro.sources.portal import LegacyEmailAlertService
from repro.sources.proxy import AlertProxy
from repro.sources.webserver import PageNotFound
from repro.sources.webstore import NotAMember
from repro.world import SimbaWorld, WorldConfig
from tests.recorders import record_alerts

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
EMAIL_FIXED = LatencyModel(median=30.0, sigma=0.0, low=0.0, high=100.0)


def make_world(seed=2):
    return SimbaWorld(
        WorldConfig(
            seed=seed,
            im_latency=IM_FIXED,
            email_latency=EMAIL_FIXED,
            email_loss=0.0,
            sms_loss=0.0,
        )
    )


def rigged_world(subscribe_keywords, category="News", mode="normal", seed=2):
    world = make_world(seed=seed)
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe(category, user, mode, keywords=subscribe_keywords)
    deployment.launch()
    return world, user, deployment


class TestSimulatedWebSite:
    def test_publish_fetch(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/florida", "Gore 2,907,351 | Bush 2,907,888")
        assert "Bush" in site.fetch("/florida")
        assert site.fetches == 1

    def test_missing_page(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "cnn.com")
        with pytest.raises(PageNotFound):
            site.fetch("/nope")

    def test_change_log_only_on_difference(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/p", "a")
        site.publish("/p", "a")
        site.publish("/p", "b")
        assert len(site.changes) == 2

    def test_scheduled_updates(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "cnn.com")
        site.schedule_updates("/p", [(10.0, "first"), (20.0, "second")])
        world.run(until=15.0)
        assert site.fetch("/p") == "first"
        world.run(until=25.0)
        assert site.fetch("/p") == "second"


class TestAlertProxy:
    def _proxy(self, world, deployment):
        proxy = AlertProxy(
            world.env, "proxy", world.create_source_endpoint("proxy")
        )
        proxy.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("proxy")
        return proxy

    def test_rule_validation(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "x")
        with pytest.raises(ConfigurationError):
            ProxyRule(site, "/p", 0.0, "a", "b", "kw")
        with pytest.raises(ConfigurationError):
            ProxyRule(site, "/p", 10.0, "", "b", "kw")

    def test_block_extraction(self):
        world = make_world()
        site = SimulatedWebSite(world.env, "x")
        rule = ProxyRule(site, "/p", 10.0, "<votes>", "</votes>", "Election")
        assert rule.extract("junk<votes> 123 </votes>junk") == "123"
        from repro.errors import SimbaError

        with pytest.raises(SimbaError):
            rule.extract("no markers here")

    def test_change_detection_emits_alert(self):
        world, user, deployment = rigged_world(["Election"])
        proxy = self._proxy(world, deployment)
        emitted = record_alerts(proxy)
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/florida", "<votes>100</votes>")
        proxy.add_rule(
            ProxyRule(site, "/florida", 10.0, "<votes>", "</votes>", "Election")
        )
        proxy.start()
        site.schedule_updates("/florida", [(25.0, "<votes>150</votes>")])
        world.run(until=2 * MINUTE)
        assert len(emitted) == 1
        assert emitted[0].keyword == "Election"
        assert emitted[0].body == "150"
        assert len(user.receipts) == 1

    def test_first_poll_is_baseline_no_alert(self):
        world, user, deployment = rigged_world(["Election"])
        proxy = self._proxy(world, deployment)
        emitted = record_alerts(proxy)
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/p", "<v>1</v>")
        proxy.add_rule(ProxyRule(site, "/p", 5.0, "<v>", "</v>", "Election"))
        proxy.start()
        world.run(until=MINUTE)
        assert emitted == []

    def test_unchanged_content_never_alerts(self):
        world, user, deployment = rigged_world(["Election"])
        proxy = self._proxy(world, deployment)
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/p", "<v>same</v>")
        rule = proxy.add_rule(ProxyRule(site, "/p", 5.0, "<v>", "</v>", "Election"))
        proxy.start()
        world.run(until=5 * MINUTE)
        assert rule.polls >= 50
        assert rule.changes_detected == 0

    def test_extraction_failures_counted_not_fatal(self):
        world, user, deployment = rigged_world(["Election"])
        proxy = self._proxy(world, deployment)
        emitted = record_alerts(proxy)
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/p", "markers gone")
        rule = proxy.add_rule(ProxyRule(site, "/p", 5.0, "<v>", "</v>", "Election"))
        proxy.start()
        world.run(until=MINUTE)
        assert rule.extraction_failures > 0
        assert emitted == []

    def test_stop_halts_polling(self):
        world, user, deployment = rigged_world(["Election"])
        proxy = self._proxy(world, deployment)
        site = SimulatedWebSite(world.env, "cnn.com")
        site.publish("/p", "<v>1</v>")
        rule = proxy.add_rule(ProxyRule(site, "/p", 5.0, "<v>", "</v>", "Election"))
        proxy.start()
        world.run(until=30.0)
        proxy.stop()
        polls = rule.polls
        world.run(until=2 * MINUTE)
        assert rule.polls == polls


class TestLegacyEmailService:
    def test_email_only_alert_classified_by_subject_rule(self):
        from repro.core import ExtractionRule

        world, user, deployment = rigged_world(["Stocks"], category="Investment")
        legacy = LegacyEmailAlertService(world.env, "oldportal", world.email)
        legacy.add_target(deployment.email_address)
        deployment.config.classifier.accept_source(
            "oldportal",
            ExtractionRule(source="oldportal", field="subject",
                           prefix="[", suffix="]"),
        )
        legacy.publish("Stocks", "MSFT up", "details")
        world.run(until=3 * MINUTE)
        # Arrived at MAB by email (30 s), routed to user by IM.
        assert len(user.receipts) == 1
        assert user.receipts[0].channel is ChannelType.IM
        assert deployment.journal.count("routed") == 1


class TestCommunityStore:
    def _store(self, world, deployment):
        from repro.sources.webstore import CommunityStore

        store = CommunityStore(
            world.env, "family-circle", world.create_source_endpoint("community")
        )
        store.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("family-circle")
        return store

    def test_membership_enforced(self):
        world, user, deployment = rigged_world(["family-circle update"])
        store = self._store(world, deployment)
        with pytest.raises(NotAMember):
            store.create_album("stranger", "Holiday")

    def test_photo_add_alerts_subscribers(self):
        world, user, deployment = rigged_world(["family-circle update"])
        store = self._store(world, deployment)
        store.add_member("grandma")
        store.create_album("grandma", "Holiday")
        url = store.add_photo("grandma", "Holiday", "beach.jpg")
        assert url == "http://family-circle/albums/Holiday/beach.jpg"
        world.run(until=MINUTE)
        assert len(user.receipts) == 1
        assert store.list_album("grandma", "Holiday") == ["beach.jpg"]

    def test_photo_to_missing_album_rejected(self):
        from repro.errors import SimbaError

        world, user, deployment = rigged_world(["family-circle update"])
        store = self._store(world, deployment)
        store.add_member("grandma")
        with pytest.raises(SimbaError):
            store.add_photo("grandma", "Nope", "x.jpg")

    def test_calendar_update_alerts(self):
        world, user, deployment = rigged_world(["family-circle update"])
        store = self._store(world, deployment)
        store.add_member("grandma")
        store.update_calendar("grandma", "Reunion on Saturday")
        world.run(until=MINUTE)
        assert len(store.changes) == 1
        assert len(user.receipts) == 1


class TestDesktopAssistant:
    def _assistant(self, world, deployment, threshold=600.0):
        from repro.sources.desktop import DesktopAssistant

        assistant = DesktopAssistant(
            world.env,
            "desktop",
            world.create_source_endpoint("desktop"),
            idle_threshold=threshold,
        )
        assistant.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("desktop")
        return assistant

    def test_active_user_suppresses_alerts(self):
        world, user, deployment = rigged_world(
            ["Important email", "Reminder"], category="Work"
        )
        assistant = self._assistant(world, deployment)
        assistant.record_activity()
        assert assistant.email_arrived("budget due", importance="high") is None
        assert len(assistant.suppressed) == 1

    def test_idle_user_gets_high_importance_email_forwarded(self):
        world, user, deployment = rigged_world(
            ["Important email", "Reminder"], category="Work"
        )
        assistant = self._assistant(world, deployment, threshold=300.0)
        world.run(until=400.0)  # idle since t=0
        alert = assistant.email_arrived("budget due", importance="high")
        assert alert is not None
        assert alert.severity is AlertSeverity.IMPORTANT
        world.run(until=500.0)
        assert len(user.receipts) == 1

    def test_normal_importance_never_forwards(self):
        world, user, deployment = rigged_world(["Important email"], "Work")
        assistant = self._assistant(world, deployment, threshold=1.0)
        world.run(until=100.0)
        assert assistant.email_arrived("newsletter", importance="normal") is None
        assert assistant.suppressed == []

    def test_reminder_forwarded_when_idle(self):
        world, user, deployment = rigged_world(
            ["Important email", "Reminder"], category="Work"
        )
        assistant = self._assistant(world, deployment, threshold=60.0)
        world.run(until=120.0)
        alert = assistant.reminder_popped("1:1 with manager")
        assert alert is not None
        assert alert.keyword == "Reminder"

    def test_processed_elsewhere_suppresses(self):
        world, user, deployment = rigged_world(["Important email"], "Work")
        assistant = self._assistant(world, deployment, threshold=60.0)
        world.run(until=120.0)
        assistant.mark_processed_elsewhere()
        assert assistant.email_arrived("x", importance="high") is None

    def test_activity_resets_idle_clock(self):
        world, user, deployment = rigged_world(["Important email"], "Work")
        assistant = self._assistant(world, deployment, threshold=60.0)
        world.run(until=120.0)
        assistant.record_activity()
        assert assistant.idle_time == 0.0
        assert not assistant.active


class TestCommunityProxyIntegration:
    def test_proxy_polls_mirrored_community_site(self):
        # §2.2 as the paper actually ran it: the alert proxy polls the
        # community page and alerts on changes.
        world, user, deployment = rigged_world(["Community"], "Friends")
        from repro.sources.webstore import CommunityStore

        store = CommunityStore(
            world.env, "family-circle",
            world.create_source_endpoint("community"),
        )
        store.add_member("grandma")
        store.create_album("grandma", "Holiday")
        site = SimulatedWebSite(world.env, "communities.example")
        store.mirror_to_site(site, "/family-circle")

        proxy = AlertProxy(
            world.env, "proxy", world.create_source_endpoint("proxy")
        )
        proxy.add_target(deployment.source_facing_book())
        emitted = record_alerts(proxy)
        deployment.config.classifier.accept_source("proxy")
        proxy.add_rule(
            ProxyRule(site, "/family-circle", 15.0, "<albums>", "</albums>",
                      "Community")
        )
        proxy.start()

        def scenario(env):
            yield env.timeout(60.0)  # give the proxy its baseline poll
            store.add_photo("grandma", "Holiday", "beach.jpg")

        world.env.process(scenario(world.env))
        world.run(until=5 * MINUTE)
        assert len(emitted) == 1
        assert "beach.jpg" in emitted[0].body
        assert len(user.receipts) == 1


class TestAlertSourceBase:
    def test_emit_and_wait_returns_outcomes(self):
        world, user, deployment = rigged_world(["News"])
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")

        def scenario(env):
            alert, processes = source.emit("News", "subject", "body")
            results = yield env.all_of(processes)
            outcomes = list(results.values())
            assert alert.keyword == "News"
            assert len(outcomes) == 1
            assert outcomes[0].delivered
            assert outcomes == [run.value for run in processes]
            # The outcome belongs to its run: the source keeps none.
            assert not hasattr(source, "outcomes")

        done = world.env.process(scenario(world.env))
        world.run(until=done)

    def test_delivery_and_fallback_ratios(self):
        world, user, deployment = rigged_world(["News"])
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")
        _, first = source.emit("News", "s1", "b")
        world.run(until=MINUTE)
        world.im.outage(10 * MINUTE)
        _, second = source.emit("News", "s2", "b")
        world.run(until=20 * MINUTE)
        outcomes = [run.value for run in first + second]
        assert all(o.delivered for o in outcomes)
        # The second one went by email, the mode's backup block.
        assert [o.delivered_via for o in outcomes] == [0, 1]

    def test_multiple_targets_fan_out(self):
        world, user, deployment = rigged_world(["News"])
        bob = world.create_user("bob", present=True)
        deployment_bob = world.create_buddy(bob)
        deployment_bob.register_user_endpoint(bob)
        deployment_bob.subscribe("News", bob, "normal", keywords=["News"])
        deployment_bob.config.classifier.accept_source("portal")
        deployment_bob.launch()
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        source.add_target(deployment_bob.source_facing_book())
        deployment.config.classifier.accept_source("portal")
        _alert, processes = source.emit("News", "s", "b")
        assert len(processes) == 2
        world.run(until=2 * MINUTE)
        assert len(user.receipts) == 1
        assert len(bob.receipts) == 1


class TestSenderNameClassification:
    def test_yahoo_style_keyword_in_sender_name(self):
        # §4.2: "the keywords in alerts from Yahoo! and Alerts.com appear
        # as part of the email sender name".
        from repro.core import ExtractionRule

        world, user, deployment = rigged_world(["Stocks"], category="Investment")
        legacy = LegacyEmailAlertService(
            world.env, "yahoo", world.email, keyword_in_sender=True
        )
        legacy.add_target(deployment.email_address)
        deployment.config.classifier.accept_source(
            "yahoo",
            ExtractionRule(source="yahoo", field="sender",
                           prefix="(", suffix=")"),
        )
        alert = legacy.publish("Stocks", "MSFT hits 52-week high", "details")
        assert alert.keyword_field == "sender"
        world.run(until=3 * MINUTE)
        assert len(user.receipts) == 1
        assert deployment.journal.count("routed") == 1

    def test_sender_rule_rejects_mismatched_sender(self):
        from repro.core import ExtractionRule

        world, user, deployment = rigged_world(["Stocks"], category="Investment")
        legacy = LegacyEmailAlertService(
            world.env, "yahoo", world.email, keyword_in_sender=False
        )  # keyword goes to subject, but MAB expects it in the sender
        legacy.add_target(deployment.email_address)
        deployment.config.classifier.accept_source(
            "yahoo",
            ExtractionRule(source="yahoo", field="sender",
                           prefix="(", suffix=")"),
        )
        legacy.publish("Stocks", "MSFT", "details")
        world.run(until=3 * MINUTE)
        assert user.receipts == []
        assert deployment.journal.count("rejected") == 1
