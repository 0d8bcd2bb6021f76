"""End-to-end integration tests: source → MyAlertBuddy → user.

Uses fixed (sigma=0) channel latencies so every assertion is deterministic:
IM one-way 0.4 s, email 30 s, SMS 20 s, pessimistic-log write 0.5 s.
"""

import pytest

from repro.core import AlertSeverity, TimeWindow
from repro.core.rejuvenation import RejuvenationKind
from repro.net import ChannelType, LatencyModel
from repro.sim import HOUR, MINUTE
from repro.world import SimbaWorld, WorldConfig

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
EMAIL_FIXED = LatencyModel(median=30.0, sigma=0.0, low=0.0, high=100.0)
SMS_FIXED = LatencyModel(median=20.0, sigma=0.0, low=0.0, high=100.0)


def make_world(seed=1, **overrides):
    config = WorldConfig(
        seed=seed,
        im_latency=IM_FIXED,
        email_latency=EMAIL_FIXED,
        email_loss=0.0,
        sms_latency=SMS_FIXED,
        sms_loss=0.0,
        **overrides,
    )
    return SimbaWorld(config)


def standard_rig(seed=1, present=True, with_mdc=False, **overrides):
    """World + user + configured buddy + one portal-style source."""
    world = make_world(seed=seed, **overrides)
    user = world.create_user("alice", present=present)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe(
        "Investment", user, "normal",
        keywords=["Stocks", "Financial news", "Earnings reports"],
    )
    deployment.subscribe("Home Safety", user, "critical", keywords=["Sensor ON"])
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    mdc = None
    if with_mdc:
        mdc = world.start_mdc(deployment)
    else:
        deployment.launch()
    return world, user, deployment, source, mdc


class TestHappyPath:
    def test_alert_reaches_user_via_im(self):
        world, user, deployment, source, _ = standard_rig()
        source.emit("Stocks", "MSFT up 3%", "details")
        world.run(until=60.0)
        receipts = user.receipts
        assert len(receipts) == 1
        assert receipts[0].channel is ChannelType.IM
        assert not receipts[0].duplicate
        # source→MAB IM 0.4 + log 0.5 + processing/routing ~0.8 + IM 0.4.
        assert 1.5 < receipts[0].latency < 5.0

    def test_source_got_ack_from_mab(self):
        world, user, deployment, source, _ = standard_rig()
        _, (run,) = source.emit("Stocks", "MSFT", "x")
        world.run(until=60.0)
        outcome = run.value
        assert outcome.delivered
        assert outcome.delivered_via == 0  # IM block, no email fallback
        # Ack RTT = 0.4 + 0.5 (log) + 0.4 ≈ 1.3.
        assert outcome.blocks[0].elapsed == pytest.approx(1.3, abs=0.05)

    def test_journal_and_log_updated(self):
        world, user, deployment, source, _ = standard_rig()
        alert, _ = source.emit("Stocks", "MSFT", "x")
        world.run(until=60.0)
        assert deployment.journal.count("routed") == 1
        assert deployment.log.status[alert.alert_id].state == "routed"
        entry = deployment.log.entry_for_alert(alert.alert_id)
        assert entry is not None and entry.processed

    def test_unaccepted_source_rejected(self):
        world, user, deployment, source, _ = standard_rig()
        rogue = world.create_source("spammer")
        rogue.add_target(deployment.source_facing_book())
        rogue.emit("Stocks", "BUY NOW", "spam")
        world.run(until=60.0)
        assert user.receipts == []
        assert deployment.journal.count("rejected") == 1

    def test_unmapped_keyword_dropped(self):
        world, user, deployment, source, _ = standard_rig()
        source.emit("Gardening", "tulips", "x")
        world.run(until=60.0)
        assert user.receipts == []
        assert deployment.journal.count("unmapped") == 1

    def test_alert_sharing_multiple_subscribers(self):
        world, user, deployment, source, _ = standard_rig()
        bob = world.create_user("bob", present=True)
        deployment.register_user_endpoint(bob)
        deployment.config.subscriptions.subscribe("Investment", "bob", "normal")
        source.emit("Stocks", "MSFT", "x")
        world.run(until=60.0)
        assert len(user.receipts) == 1
        assert len(bob.receipts) == 1


class TestFallbacks:
    def test_user_away_falls_back_to_email(self):
        world, user, deployment, source, _ = standard_rig(present=False)
        source.emit("Stocks", "MSFT", "x")
        world.run(until=120.0)
        assert len(user.receipts) == 1
        assert user.receipts[0].channel is ChannelType.EMAIL

    def test_critical_mode_falls_back_to_sms_and_email(self):
        world, user, deployment, source, _ = standard_rig(present=False)
        source.emit("Sensor ON", "Basement water", "!!!", AlertSeverity.CRITICAL)
        world.run(until=120.0)
        channels = sorted(r.channel.value for r in user.receipts)
        assert channels == ["EM", "SMS"]

    def test_im_outage_source_falls_back_to_email_to_mab(self):
        world, user, deployment, source, _ = standard_rig()
        world.run(until=5.0)
        world.im.outage(10 * MINUTE)
        _, (run,) = source.emit("Stocks", "MSFT", "x")
        world.run(until=5 * MINUTE)
        assert run.value.delivered_via == 1  # email block to MAB
        # MAB got it by email (30 s) and the user's IM is also down, so the
        # user also gets it by email eventually.
        assert len(user.receipts) == 1
        assert user.receipts[0].channel is ChannelType.EMAIL

    def test_sanity_check_relogs_in_after_outage_ends(self):
        world, user, deployment, source, _ = standard_rig()
        world.run(until=5.0)
        world.im.outage(5 * MINUTE)
        world.run(until=20 * MINUTE)
        # The minutely IM sanity check re-logged MAB in after the outage.
        assert world.im.presence.is_online(deployment.im_address)
        assert deployment.endpoint.im_manager.stats.relogons >= 1
        # And alerts flow by IM again.
        source.emit("Stocks", "MSFT", "x")
        world.run(until=25 * MINUTE)
        assert user.receipts[-1].channel is ChannelType.IM

    def test_disabled_sms_address_falls_back(self):
        # §3.3: cell phone dead → disable SMS at MAB; critical block 2 then
        # delivers by email only.
        world, user, deployment, source, _ = standard_rig(present=False)
        deployment.config.subscriptions.address_book("alice").set_enabled(
            "SMS", False
        )
        source.emit("Sensor ON", "Basement water", "!")
        world.run(until=120.0)
        channels = [r.channel for r in user.receipts]
        assert channels == [ChannelType.EMAIL]
        assert world.sms.stats.submitted == 0


class TestFiltering:
    def test_disabled_category_suppressed(self):
        world, user, deployment, source, _ = standard_rig()
        deployment.config.filters.disable_category("Investment")
        source.emit("Stocks", "MSFT", "x")
        world.run(until=60.0)
        assert user.receipts == []
        assert deployment.journal.count("filtered") == 1

    def test_delivery_window_blocks_night_alerts(self):
        world, user, deployment, source, _ = standard_rig()
        deployment.config.filters.set_delivery_window(
            "Investment", TimeWindow(9 * HOUR, 17 * HOUR)
        )
        source.emit("Stocks", "midnight news", "x")  # t=0 is midnight
        world.run(until=60.0)
        assert user.receipts == []
        assert deployment.journal.count("filtered") == 1

    def test_dynamic_mode_switch(self):
        # §3.3: temporarily switch Investment delivery from digest to IM.
        world, user, deployment, source, _ = standard_rig()
        subs = deployment.config.subscriptions
        subs.unsubscribe("Investment", "alice")
        subs.subscribe("Investment", "alice", "digest")
        source.emit("Stocks", "slow news", "x")
        world.run(until=60.0)
        assert user.receipts[0].channel is ChannelType.EMAIL
        subs.unsubscribe("Investment", "alice")
        subs.subscribe("Investment", "alice", "normal")
        source.emit("Stocks", "fast news", "x")
        world.run(until=120.0)
        assert user.receipts[-1].channel is ChannelType.IM


class TestCrashRecovery:
    def test_crash_after_ack_alert_recovered_from_log(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def scenario(env):
            source.emit("Stocks", "MSFT", "x")
            # Crash right after the pessimistic log write + ack (t≈1),
            # before MAB finishes routing (t≈2.5).
            yield env.timeout(1.1)
            deployment.current.crash()

        world.env.process(scenario(world.env))
        world.run(until=15 * MINUTE)
        # MDC restarted MAB; recovery replayed the logged alert.
        assert len(mdc.restarts) >= 1
        assert deployment.journal.count("recovery_replay") == 1
        assert len(user.unique_alerts_received()) == 1

    def test_crash_after_send_before_mark_causes_flagged_duplicate(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)
        alert_holder = {}

        def scenario(env):
            alert, _ = source.emit("Stocks", "MSFT", "x")
            alert_holder["alert"] = alert
            # Wait until the user received it but before MAB marks the log
            # entry processed... mark happens right after routing; instead,
            # delete the processed mark to emulate the race, then crash.
            yield env.timeout(30.0)
            entry = deployment.log.entry_for_alert(alert.alert_id)
            entry.processed = False
            del deployment.log.status[alert.alert_id]
            deployment.current.crash()

        world.env.process(scenario(world.env))
        world.run(until=20 * MINUTE)
        receipts = user.receipts_for(alert_holder["alert"].alert_id)
        assert len(receipts) == 2
        assert [r.duplicate for r in receipts] == [False, True]
        assert user.duplicates_discarded() == 1

    def test_hang_detected_by_probe_and_restarted(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def scenario(env):
            yield env.timeout(30.0)
            deployment.current.hang()

        world.env.process(scenario(world.env))
        world.run(until=20 * MINUTE)
        from repro.core.watchdog import RestartReason

        assert any(
            r.reason is RestartReason.PROBE_TIMEOUT for r in mdc.restarts
        )
        # Alerts flow again after the restart.
        source.emit("Stocks", "after recovery", "x")
        world.run(until=25 * MINUTE)
        assert len(user.receipts) == 1

    def test_repeated_crashes_trigger_reboot(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def crasher(env):
            # Crash the buddy every minute, faster than the 10-minute
            # stability window: after >3 failed restarts the MDC reboots.
            for _ in range(12):
                yield env.timeout(MINUTE)
                current = deployment.current
                if current is not None and current.alive:
                    current.crash()

        world.env.process(crasher(world.env))
        world.run(until=2 * HOUR)
        assert world.host.reboots >= 1
        assert mdc.reboots_requested >= 1
        # After the reboot the stack came back: MAB is routing again.
        source.emit("Stocks", "post-reboot", "x")
        world.run(until=2 * HOUR + 5 * MINUTE)
        assert len(user.receipts) == 1


class TestRejuvenation:
    def test_nightly_rejuvenation_at_2330(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)
        world.run(until=24 * HOUR)
        kinds = [r.kind for r in deployment.journal.rejuvenations]
        assert RejuvenationKind.NIGHTLY in kinds
        nightly = next(
            r for r in deployment.journal.rejuvenations
            if r.kind is RejuvenationKind.NIGHTLY
        )
        assert nightly.at == pytest.approx(23.5 * HOUR, abs=1.0)
        # MDC restarted it; alerts still flow on day 2.
        source.emit("Stocks", "day two", "x")
        world.run(until=24 * HOUR + 10 * MINUTE)
        assert len(user.receipts) == 1

    def test_remote_keyword_rejuvenation_via_im(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def admin(env):
            yield env.timeout(60.0)
            session = world.im.login("alice@im-admin")
            session.send(deployment.im_address, "SIMBA-REJUVENATE please")

        world.im.register_account("alice@im-admin")
        world.env.process(admin(world.env))
        world.run(until=30 * MINUTE)
        kinds = [r.kind for r in deployment.journal.rejuvenations]
        assert RejuvenationKind.REMOTE in kinds

    def test_memory_leak_triggers_rejuvenation(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def leaker(env):
            yield env.timeout(60.0)
            deployment.current.leak_memory(500.0)

        world.env.process(leaker(world.env))
        world.run(until=30 * MINUTE)
        kinds = [r.kind for r in deployment.journal.rejuvenations]
        assert RejuvenationKind.EXCEPTION in kinds


class TestPowerAndDialogs:
    def test_power_outage_without_ups_comes_back_after_boot(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def outage(env):
            yield env.timeout(5 * MINUTE)
            world.host.power_failure(10 * MINUTE)

        world.env.process(outage(world.env))
        world.run(until=HOUR)
        assert len(world.host.power_events) == 1
        assert world.host.up
        # Alerts delivered after recovery.
        source.emit("Stocks", "after power", "x")
        world.run(until=HOUR + 5 * MINUTE)
        assert len(user.receipts) == 1

    def test_power_outage_with_ups_is_a_nonevent(self):
        world, user, deployment, source, mdc = standard_rig(
            with_mdc=True, host_has_ups=True
        )

        def outage(env):
            yield env.timeout(5 * MINUTE)
            assert world.host.power_failure(10 * MINUTE) is False

        world.env.process(outage(world.env))
        source.emit("Stocks", "during outage?", "x")
        world.run(until=30 * MINUTE)
        assert world.host.power_events[0].survived_on_ups
        assert len(user.receipts) == 1

    def test_unknown_system_dialog_blocks_until_rule_registered(self):
        world, user, deployment, source, mdc = standard_rig(with_mdc=True)

        def scenario(env):
            yield env.timeout(60.0)
            # A dialog from "other parts of the system", unknown caption.
            world.host.screen.pop_dialog(
                "Strange driver warning", ("Ignore",), owner=None
            )
            yield env.timeout(10 * MINUTE)
            # Nothing could click it; IM sends from MAB are blocked.
            assert world.host.screen.open_dialogs()
            # Operator applies the paper's fix: register the pair.
            deployment.endpoint.im_manager.register_dialog_rule(
                "Strange driver warning", "Ignore"
            )

        world.env.process(scenario(world.env))
        world.run(until=30 * MINUTE)
        assert world.host.screen.open_dialogs() == []
        source.emit("Stocks", "after dialog fixed", "x")
        world.run(until=40 * MINUTE)
        assert len(user.receipts) == 1
