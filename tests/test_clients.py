"""Unit tests for simulated client software and automation semantics."""

import pytest

from repro.clients import EmailClient, IMClient, Screen
from repro.errors import (
    ClientHungError,
    DialogBlockedError,
    NotLoggedInError,
    StalePointerError,
)
from repro.net import EmailService, IMService, LatencyModel
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.2, sigma=0.0, low=0.0, high=10.0)


@pytest.fixture()
def rig():
    env = Environment()
    rngs = RngRegistry(seed=11)
    screen = Screen(env)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(env, rngs.stream("email"), latency=FAST, loss_probability=0.0)
    for addr in ("mab@im", "src@im"):
        im.register_account(addr)
    return env, screen, im, email


class TestLifecycleAndPointers:
    def test_start_returns_valid_handle(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        handle = client.start()
        assert handle.valid()
        assert client.running
        assert client.starts == 1

    def test_double_start_rejected(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        client.start()
        with pytest.raises(RuntimeError):
            client.start()

    def test_restart_invalidates_old_handle(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        old = client.start()
        client.terminate()
        new = client.start()
        assert not old.valid()
        assert new.valid()
        with pytest.raises(StalePointerError):
            client.is_logged_on(old)
        assert client.is_logged_on(new) is False

    def test_terminate_idempotent(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        client.start()
        client.terminate()
        client.terminate()
        assert client.terminations == 1

    def test_handle_for_other_client_rejected(self, rig):
        env, screen, im, email = rig
        a = IMClient(env, screen, im, "mab@im", name="a")
        b = IMClient(env, screen, im, "src@im", name="b")
        ha = a.start()
        b.start()
        with pytest.raises(StalePointerError):
            b.is_logged_on(ha)

    def test_hung_client_raises_on_calls(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        handle = client.start()
        assert client.hang() is True
        with pytest.raises(ClientHungError):
            client.is_logged_on(handle)

    def test_hang_applies_only_when_running(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        assert client.hang() is False
        client.start()
        assert client.hang() is True
        assert client.hang() is False  # already hung

    def test_kill_and_restart_clears_hang(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        client.start()
        client.hang()
        client.terminate()
        handle = client.start()
        assert client.is_logged_on(handle) is False  # no exception


class TestDialogBlocking:
    def test_own_dialog_blocks_client(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        handle = client.start()
        client.pop_dialog("Connection lost", ("OK",))
        with pytest.raises(DialogBlockedError):
            client.is_logged_on(handle)

    def test_system_dialog_blocks_every_client(self, rig):
        env, screen, im, email = rig
        client = EmailClient(env, screen, email, "mab@mail")
        handle = client.start()
        screen.pop_dialog("Low disk space", ("OK",), owner=None)
        with pytest.raises(DialogBlockedError):
            client.unread_count(handle)

    def test_other_clients_dialog_does_not_block(self, rig):
        env, screen, im, email = rig
        a = IMClient(env, screen, im, "mab@im", name="a")
        b = EmailClient(env, screen, email, "mab@mail", name="b")
        ha = a.start()
        hb = b.start()
        a.pop_dialog("IM error", ("OK",))
        assert b.unread_count(hb) == 0
        with pytest.raises(DialogBlockedError):
            a.is_logged_on(ha)

    def test_clicking_dialog_unblocks(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        handle = client.start()
        dialog = client.pop_dialog("Oops", ("OK", "Cancel"))
        screen.click(dialog, "OK")
        assert client.is_logged_on(handle) is False
        assert dialog.dismissed_by == "OK"

    def test_terminate_clears_owned_dialogs_keeps_system_ones(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "mab@im")
        client.start()
        client.pop_dialog("IM crash report", ("Close",))
        screen.pop_dialog("Windows update", ("Restart Now", "Later"), owner=None)
        client.terminate()
        captions = [d.caption for d in screen.open_dialogs()]
        assert captions == ["Windows update"]

    def test_dialog_click_validation(self, rig):
        env, screen, im, email = rig
        dialog = screen.pop_dialog("Q", ("Yes", "No"))
        with pytest.raises(ValueError):
            screen.click(dialog, "Maybe")
        screen.click(dialog, "No")
        with pytest.raises(RuntimeError):
            dialog.click("Yes", env.now)

    def test_dialog_requires_buttons(self, rig):
        env, screen, im, email = rig
        with pytest.raises(ValueError):
            screen.pop_dialog("Broken", ())


class TestIMClientBehaviour:
    def test_logon_send_receive_roundtrip(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im", name="mab-client")
        src = IMClient(env, screen, im, "src@im", name="src-client")
        h_mab = mab.start()
        h_src = src.start()
        mab.logon(h_mab)
        src.logon(h_src)
        got = []

        def scenario(env):
            src.send_instant_message(h_src, "mab@im", "flood!", correlation="a1")
            msg = yield mab.next_message(h_mab)
            got.append((msg.body, msg.correlation, env.now))

        done = env.process(scenario(env))
        env.run(until=done)
        assert got == [("flood!", "a1", 0.2)]

    def test_send_without_logon_raises(self, rig):
        env, screen, im, email = rig
        client = IMClient(env, screen, im, "src@im")
        handle = client.start()
        with pytest.raises(NotLoggedInError):
            client.send_instant_message(handle, "mab@im", "x")

    def test_buddy_status(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        h = mab.start()
        mab.logon(h)
        assert mab.buddy_status(h, "src@im") is False
        im.login("src@im")
        assert mab.buddy_status(h, "src@im") is True

    def test_forced_logout_detected_and_relogon_works(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        h = mab.start()
        mab.logon(h)
        im.force_logout("mab@im")
        assert mab.is_logged_on(h) is False
        mab.logon(h)  # simple re-logon attempt works (9 cases in the paper)
        assert mab.is_logged_on(h) is True

    def test_hang_swallows_incoming_messages(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        src = IMClient(env, screen, im, "src@im")
        h_mab, h_src = mab.start(), src.start()
        mab.logon(h_mab)
        src.logon(h_src)

        def scenario(env):
            mab.hang()
            src.send_instant_message(h_src, "mab@im", "into the void")
            yield env.timeout(5.0)

        done = env.process(scenario(env))
        env.run(until=done)
        assert im.stats.delivered == 1  # the network delivered it...
        assert mab.pending_incoming == 0  # ...but the frozen UI ate it

    def test_terminate_drops_session_and_presence(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        h = mab.start()
        mab.logon(h)
        assert im.presence.is_online("mab@im")
        mab.terminate()
        assert not im.presence.is_online("mab@im")

    def test_logoff(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        h = mab.start()
        mab.logon(h)
        mab.logoff(h)
        assert mab.is_logged_on(h) is False
        assert not im.presence.is_online("mab@im")

    def test_can_launch_session_reflects_service_state(self, rig):
        env, screen, im, email = rig
        mab = IMClient(env, screen, im, "mab@im")
        h = mab.start()
        mab.logon(h)
        assert mab.can_launch_session(h) is True
        im.set_available(False)
        assert mab.can_launch_session(h) is False


class TestEmailClientBehaviour:
    def test_send_and_fetch(self, rig):
        env, screen, im, email = rig
        client = EmailClient(env, screen, email, "mab@mail")
        h = client.start()
        got = []

        def scenario(env):
            client.send_mail(h, "user@mail", "hello", "body")
            yield env.timeout(1.0)
            other = EmailClient(env, screen, email, "user@mail", name="user-client")
            oh = other.start()
            msg = yield other.fetch_next(oh)
            got.append(msg.subject)

        done = env.process(scenario(env))
        env.run(until=done)
        assert got == ["hello"]

    def test_mailbox_survives_client_restart(self, rig):
        env, screen, im, email = rig
        client = EmailClient(env, screen, email, "mab@mail")
        h = client.start()

        def scenario(env):
            email.send("src@mail", "mab@mail", "s", "b")
            yield env.timeout(1.0)
            client.terminate()
            h2 = client.start()
            assert client.unread_count(h2) == 1

        done = env.process(scenario(env))
        env.run(until=done)

    def test_unread_backlog_probe(self, rig):
        env, screen, im, email = rig
        client = EmailClient(env, screen, email, "mab@mail")
        h = client.start()

        def scenario(env):
            for i in range(3):
                email.send("src@mail", "mab@mail", f"s{i}", "b")
            yield env.timeout(1.0)
            assert client.unread_count(h) == 3
            assert [m.subject for m in client.peek_unread(h)] == ["s0", "s1", "s2"]

        done = env.process(scenario(env))
        env.run(until=done)

    def test_server_reachable_probe(self, rig):
        env, screen, im, email = rig
        client = EmailClient(env, screen, email, "mab@mail")
        h = client.start()
        assert client.server_reachable(h) is True
        email.set_available(False)
        assert client.server_reachable(h) is False


def test_automation_handle_repr_shows_staleness():
    env = Environment()
    im = IMService(env, RngRegistry(seed=1).stream("im"), latency=FAST)
    im.register_account("a@im")
    client = IMClient(env, Screen(env), im, "a@im")
    handle = client.start()
    assert "valid" in repr(handle)
    client.terminate()
    assert "STALE" in repr(handle)
