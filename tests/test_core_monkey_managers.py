"""Unit tests for the monkey thread and the Communication Managers."""

import pytest

from repro.clients import EmailClient, IMClient, Screen
from repro.core import EmailManager, IMManager, MonkeyThread, SMSManager
from repro.core.monkey import SYSTEM_GENERIC_RULES
from repro.errors import ChannelError, StalePointerError
from repro.net import EmailService, IMService, LatencyModel, SMSGateway
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.3, sigma=0.0, low=0.0, high=10.0)


@pytest.fixture()
def rig():
    env = Environment()
    rngs = RngRegistry(seed=5)
    screen = Screen(env)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(env, rngs.stream("email"), latency=FAST, loss_probability=0)
    sms = SMSGateway(env, rngs.stream("sms"), latency=FAST, loss_probability=0)
    im.register_account("mab@im")
    im.register_account("peer@im")
    return env, screen, im, email, sms


class TestMonkeyThread:
    def test_clicks_known_caption(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen, client_rules={"Oops": "OK"})
        screen.pop_dialog("Oops", ("OK", "Cancel"))
        assert monkey.scan_once() == 1
        assert screen.open_dialogs() == []
        assert monkey.clicks[0].caption == "Oops"

    def test_unknown_caption_left_on_screen(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen)
        screen.pop_dialog("Never seen before", ("OK",))
        assert monkey.scan_once() == 0
        assert len(screen.open_dialogs()) == 1
        assert "Never seen before" in monkey.unknown_captions

    def test_system_generic_rules_present(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen)
        screen.pop_dialog("Low disk space", ("OK",))
        assert monkey.scan_once() == 1

    def test_registered_rule_fixes_unknown_dialog(self, rig):
        # The paper's fix for the two unrecovered failures.
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen)
        screen.pop_dialog("Weird new dialog", ("Continue",))
        assert monkey.scan_once() == 0
        monkey.register_rule("Weird new dialog", "Continue")
        assert monkey.scan_once() == 1

    def test_rule_with_wrong_button_is_useless(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen, client_rules={"Q": "Yes"})
        screen.pop_dialog("Q", ("No", "Maybe"))
        assert monkey.scan_once() == 0
        assert "Q" in monkey.unknown_captions

    def test_periodic_scanning_loop(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen, interval=20.0)
        monkey.start()

        def scenario(env):
            yield env.timeout(5.0)
            screen.pop_dialog("Low disk space", ("OK",))
            yield env.timeout(30.0)

        done = env.process(scenario(env))
        env.run(until=done)
        # Popped at t=5, first scan after that is t=20.
        assert monkey.clicks[0].at == 20.0

    def test_stop_halts_scanning(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen, interval=20.0)
        monkey.start()
        monkey.stop()
        screen.pop_dialog("Low disk space", ("OK",))
        env.run(until=100.0)
        assert monkey.clicks == []

    @pytest.mark.xfail(
        strict=True,
        reason="stop() then start() inside one scan interval leaves the old "
        "scan-cohort membership next to the new one: its tick re-reads "
        "_running as True (DESIGN §11).  The fix moves dialog-click times, "
        "so it needs digest re-pins.",
    )
    def test_quick_stop_start_does_not_multiply_scanners(self, rig):
        env, screen, im, email, sms = rig
        monkey = MonkeyThread(env, screen, interval=20.0)
        scans = []
        scan_once = monkey.scan_once
        monkey.scan_once = lambda: scans.append(env.now) or scan_once()
        monkey.start()
        env.run(until=5.0)
        for _ in range(3):  # three quick MAB restarts
            monkey.stop()
            monkey.start()
        env.run(until=100.0)
        # One scanner scans once per interval; today four memberships do.
        assert len(scans) == len(set(scans))
        assert len([at for at in scans if 80.0 <= at < 100.0]) == 1

    def test_invalid_params(self, rig):
        env, screen, im, email, sms = rig
        with pytest.raises(ValueError):
            MonkeyThread(env, screen, interval=0.0)
        monkey = MonkeyThread(env, screen)
        with pytest.raises(ValueError):
            monkey.register_rule("", "OK")


class TestIMManager:
    def _manager(self, rig):
        env, screen, im, email, sms = rig
        client = IMClient(env, screen, im, "mab@im")
        manager = IMManager(env, client)
        manager.ensure_started()
        return env, im, client, manager

    def test_ensure_started_logs_on(self, rig):
        env, im, client, manager = self._manager(rig)
        assert im.presence.is_online("mab@im")
        assert manager.sanity_check().healthy

    def test_sanity_relogon_after_forced_logout(self, rig):
        env, im, client, manager = self._manager(rig)
        im.force_logout("mab@im")
        report = manager.sanity_check()
        assert report.healthy
        assert "re-logon" in report.repairs
        assert manager.stats.relogons == 1
        assert im.presence.is_online("mab@im")

    def test_sanity_restarts_hung_client(self, rig):
        env, im, client, manager = self._manager(rig)
        client.hang()
        report = manager.sanity_check()
        assert "restart" in report.repairs
        assert manager.stats.restarts == 1
        assert not client.hung
        assert im.presence.is_online("mab@im")

    def test_sanity_restarts_dead_client(self, rig):
        env, im, client, manager = self._manager(rig)
        client.terminate()
        report = manager.sanity_check()
        assert "restart" in report.repairs
        assert im.presence.is_online("mab@im")

    def test_sanity_reports_dialog_blocked_without_restart(self, rig):
        env, im, client, manager = self._manager(rig)
        client.pop_dialog("Connection lost", ("OK",))
        report = manager.sanity_check()
        assert report.dialog_blocked
        assert not report.healthy
        assert manager.stats.restarts == 0
        # The monkey knows this caption; after its click the next check is OK.
        assert manager.monkey.scan_once() == 1
        assert manager.sanity_check().healthy

    def test_sanity_reports_service_down(self, rig):
        env, im, client, manager = self._manager(rig)
        im.set_available(False)
        report = manager.sanity_check()
        assert report.service_down
        assert not report.healthy
        # After the outage, a later sanity pass restores login.
        im.set_available(True)
        report = manager.sanity_check()
        assert report.healthy
        assert im.presence.is_online("mab@im")

    def test_restart_during_outage_does_not_crash(self, rig):
        env, im, client, manager = self._manager(rig)
        im.set_available(False)
        manager.restart()
        assert client.running
        assert not im.presence.is_online("mab@im")

    def test_submit_roundtrip(self, rig):
        env, im, client, manager = self._manager(rig)
        im.login("peer@im")
        message = manager.submit("peer@im", "s", "hello", correlation="c1")
        assert message.seq == 1
        assert manager.stats.submissions == 1
        env.run()

    def test_submit_failure_counted(self, rig):
        env, im, client, manager = self._manager(rig)
        with pytest.raises(ChannelError):
            manager.submit("peer@im", "s", "offline recipient")
        assert manager.stats.submission_failures == 1

    def test_handle_property_requires_start(self, rig):
        env, screen, im, email, sms = rig
        manager = IMManager(env, IMClient(env, screen, im, "mab@im"))
        with pytest.raises(StalePointerError):
            _ = manager.handle

    def test_shutdown_orderly(self, rig):
        env, im, client, manager = self._manager(rig)
        manager.shutdown()
        assert not client.running
        assert not im.presence.is_online("mab@im")

    def test_ensure_started_attaches_to_running_client(self, rig):
        # A fresh MAB incarnation attaching to a client left running by the
        # previous incarnation must refresh pointers via restart.
        env, im, client, manager = self._manager(rig)
        manager2 = IMManager(env, client)
        manager2.ensure_started()
        assert manager2.stats.restarts == 1
        assert im.presence.is_online("mab@im")


class TestEmailManager:
    def _manager(self, rig):
        env, screen, im, email, sms = rig
        client = EmailClient(env, screen, email, "mab@mail")
        manager = EmailManager(env, client)
        manager.ensure_started()
        return env, email, client, manager

    def test_healthy_check(self, rig):
        env, email, client, manager = self._manager(rig)
        assert manager.sanity_check().healthy

    def test_hang_restart(self, rig):
        env, email, client, manager = self._manager(rig)
        client.hang()
        report = manager.sanity_check()
        assert "restart" in report.repairs
        assert manager.sanity_check().healthy

    def test_service_down_reported(self, rig):
        env, email, client, manager = self._manager(rig)
        email.set_available(False)
        report = manager.sanity_check()
        assert report.service_down

    def test_dialog_blocked(self, rig):
        env, email, client, manager = self._manager(rig)
        client.pop_dialog("Mail delivery problem", ("OK",))
        report = manager.sanity_check()
        assert report.dialog_blocked
        assert manager.monkey.scan_once() == 1

    def test_submit(self, rig):
        env, email, client, manager = self._manager(rig)
        manager.submit("user@mail", "subject", "body", importance="high")
        env.run()
        assert email.mailbox("user@mail").unread_count == 1


class TestSMSManager:
    def test_submit_folds_subject_into_body(self, rig):
        env, screen, im, email, sms = rig
        manager = SMSManager(env, sms)
        message = manager.submit("+1", "ALERT", "water rising")
        assert message.body == "ALERT: water rising"
        env.run()

    def test_sanity_reflects_gateway(self, rig):
        env, screen, im, email, sms = rig
        manager = SMSManager(env, sms)
        assert manager.sanity_check().healthy
        sms.set_available(False)
        assert manager.sanity_check().service_down

    def test_submit_failure_counted(self, rig):
        env, screen, im, email, sms = rig
        manager = SMSManager(env, sms)
        sms.set_available(False)
        with pytest.raises(ChannelError):
            manager.submit("+1", "", "x")
        assert manager.stats.submission_failures == 1


class TestMonkeyUnmatchedDialogs:
    def _make(self, **kwargs):
        from repro.clients.screen import Screen
        from repro.sim.kernel import Environment

        env = Environment()
        screen = Screen(env)
        return env, screen, MonkeyThread(env, screen, **kwargs)

    def test_unknown_caption_left_on_screen_and_recorded(self):
        env, screen, monkey = self._make()
        screen.pop_dialog("Previously unknown box", buttons=("Abort",))
        assert monkey.scan_once() == 0
        assert monkey.unknown_captions == {"Previously unknown box"}
        assert len(screen.open_dialogs()) == 1
        assert monkey.clicks == []

    def test_registered_rule_with_stale_button_is_useless(self):
        """A caption-button pair whose button no longer exists on the
        dialog must be treated as unknown, not crash the click."""
        env, screen, monkey = self._make()
        monkey.register_rule("Session expired", "Reconnect")
        screen.pop_dialog("Session expired", buttons=("Close",))
        assert monkey.scan_once() == 0
        assert "Session expired" in monkey.unknown_captions
        assert len(screen.open_dialogs()) == 1

    def test_registering_the_rule_recovers_the_dialog(self):
        env, screen, monkey = self._make()
        screen.pop_dialog("New box", buttons=("OK",))
        monkey.scan_once()
        monkey.register_rule("New box", "OK")
        assert monkey.scan_once() == 1
        assert screen.open_dialogs() == []
        # unknown_captions is forensic history: it keeps the sighting.
        assert "New box" in monkey.unknown_captions

    def test_system_generic_rules_still_click(self):
        env, screen, monkey = self._make()
        caption, button = next(iter(SYSTEM_GENERIC_RULES.items()))
        screen.pop_dialog(caption, buttons=(button, "Cancel"))
        screen.pop_dialog("Mystery", buttons=("OK",))
        assert monkey.scan_once() == 1
        assert [c.caption for c in monkey.clicks] == [caption]
        assert monkey.unknown_captions == {"Mystery"}

    def test_register_rule_validates(self):
        _env, _screen, monkey = self._make()
        with pytest.raises(ValueError):
            monkey.register_rule("", "OK")
        with pytest.raises(ValueError):
            monkey.register_rule("Caption", "")

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            self._make(interval=0.0)


def test_monkey_rules_snapshot_is_a_copy():
    env = Environment()
    monkey = MonkeyThread(env, Screen(env))
    rules = monkey.rules()
    rules["Injected"] = "OK"
    assert "Injected" not in monkey.rules()


def test_sms_manager_noop_lifecycle():
    env = Environment()
    gateway = SMSGateway(env, RngRegistry(seed=1).stream("sms"), latency=FAST)
    manager = SMSManager(env, gateway)
    manager.ensure_started()  # must not raise
    manager.shutdown()        # must not raise
    assert manager.sanity_check().healthy


def _farm(profile=None, users=2):
    from repro.world import SimbaWorld, WorldConfig

    farm = SimbaWorld(WorldConfig(seed=3)).create_farm(profile=profile)
    farm.add_users(users)
    farm.launch_all()
    farm.world.run(until=60.0)
    return farm


def test_a_tenant_with_its_monkeys_off_builds_none():
    from repro.experiments.sharded import E13_PROFILE

    for tenant in _farm(E13_PROFILE):
        endpoint = tenant.deployment.endpoint
        endpoint.stop()  # stops only the monkeys that exist
        for manager in (endpoint.im_manager, endpoint.email_manager):
            assert manager._monkey is None


def test_a_registered_rule_stays_with_its_own_tenant():
    first, second = (tenant.deployment.endpoint.im_manager
                     for tenant in _farm())
    first.register_dialog_rule("Plugin crashed", "Close")
    assert first.monkey.rules()["Plugin crashed"] == "Close"
    assert "Plugin crashed" not in second.monkey.rules()
    assert second.monkey.rules() == {**SYSTEM_GENERIC_RULES,
                                     **IMManager.CLIENT_DIALOG_RULES}
