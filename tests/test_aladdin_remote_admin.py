"""Tests for email-based remote home automation and the desktop mailbox
watcher."""

import pytest

from repro.aladdin.remote_admin import RemoteHomeAdmin
from repro.aladdin.sss import SoftStateStore
from repro.net import EmailService, LatencyModel
from repro.sim import Environment, MINUTE, RngRegistry
from tests.recorders import record_alerts

FAST = LatencyModel(median=2.0, sigma=0.0, low=0.0, high=10.0)


class Rig:
    def __init__(self):
        self.env = Environment()
        rngs = RngRegistry(seed=6)
        self.email = EmailService(self.env, rngs.stream("email"),
                                  latency=FAST, loss_probability=0.0)
        self.store = SoftStateStore(self.env, "gateway")
        self.store.define_type("security")
        self.store.define_type("sensor")
        self.store.create("security.armed", "security", True, 3600.0, 10**6)
        self.store.create("Basement Water", "sensor", "OFF", 3600.0, 10**6)
        self.admin = RemoteHomeAdmin(
            self.env, self.email, self.store, "home@mail", secret="s3cret"
        )
        self.admin.start()

    def command(self, body, sender="owner@mail"):
        self.email.send(sender, "home@mail", "cmd", body)

    def replies(self, to="owner@mail"):
        return self.email.mailbox(to).peek_unread()


class TestRemoteAdmin:
    def test_disarm_via_email(self):
        rig = Rig()
        rig.command("s3cret\nDISARM")
        rig.env.run(until=MINUTE)
        assert rig.store.read("security.armed") is False
        (reply,) = rig.replies()
        assert "disarmed" in reply.body

    def test_arm_via_email(self):
        rig = Rig()
        rig.store.write("security.armed", False)
        rig.command("s3cret\nARM")
        rig.env.run(until=MINUTE)
        assert rig.store.read("security.armed") is True

    def test_query_variable(self):
        rig = Rig()
        rig.command("s3cret\nQUERY Basement Water")
        rig.env.run(until=MINUTE)
        (reply,) = rig.replies()
        assert "Basement Water = 'OFF'" in reply.body

    def test_query_unknown_variable(self):
        rig = Rig()
        rig.command("s3cret\nQUERY ghost")
        rig.env.run(until=MINUTE)
        (reply,) = rig.replies()
        assert "no such variable" in reply.body

    def test_status_lists_everything(self):
        rig = Rig()
        rig.command("s3cret\nSTATUS")
        rig.env.run(until=MINUTE)
        (reply,) = rig.replies()
        assert "security.armed" in reply.body
        assert "Basement Water" in reply.body

    def test_wrong_secret_rejected(self):
        rig = Rig()
        rig.command("wrong\nDISARM", sender="attacker@mail")
        rig.env.run(until=MINUTE)
        assert rig.store.read("security.armed") is True
        record = rig.admin.commands[0]
        assert not record.accepted
        (reply,) = rig.replies(to="attacker@mail")
        assert "authentication failed" in reply.body

    def test_unknown_command(self):
        rig = Rig()
        rig.command("s3cret\nEXPLODE")
        rig.env.run(until=MINUTE)
        record = rig.admin.commands[0]
        assert not record.accepted

    def test_multiple_commands_one_mail(self):
        rig = Rig()
        rig.command("s3cret\nDISARM\nSTATUS")
        rig.env.run(until=MINUTE)
        assert len(rig.admin.commands) == 2
        assert len(rig.replies()) == 2

    def test_stop_halts_processing(self):
        rig = Rig()
        rig.admin.stop()
        rig.command("s3cret\nDISARM")
        rig.env.run(until=MINUTE)
        assert rig.store.read("security.armed") is True


class TestDesktopMailboxWatcher:
    def test_high_importance_unread_forwarded_when_away(self):
        from repro.world import SimbaWorld, WorldConfig
        from repro.sources.desktop import DesktopAssistant

        world = SimbaWorld(
            WorldConfig(seed=6, email_latency=FAST, email_loss=0.0)
        )
        user = world.create_user("alice", present=True)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("Work", user, "normal",
                             keywords=["Important email"])
        deployment.launch()
        assistant = DesktopAssistant(
            world.env, "desktop", world.create_source_endpoint("desktop"),
            idle_threshold=5 * MINUTE,
        )
        assistant.add_target(deployment.source_facing_book())
        emitted = record_alerts(assistant)
        deployment.config.classifier.accept_source("desktop")
        assistant.watch_mailbox(world.email, "alice-desktop@mail",
                                interval=MINUTE)

        # Mail arrives while the user is at the desk: not forwarded.
        world.email.send("boss@mail", "alice-desktop@mail", "now!", "b",
                         importance="high")
        assistant.record_activity()
        world.run(until=2 * MINUTE)
        assert emitted == []

        # User walks away; after the idle threshold the watcher forwards
        # the STILL-unread high-importance mail, exactly once.
        world.run(until=20 * MINUTE)
        assert len(emitted) == 1
        world.run(until=40 * MINUTE)
        assert len(emitted) == 1  # no duplicates
        assert len(user.receipts) == 1

    def test_normal_importance_never_watched(self):
        from repro.world import SimbaWorld, WorldConfig
        from repro.sources.desktop import DesktopAssistant

        world = SimbaWorld(
            WorldConfig(seed=6, email_latency=FAST, email_loss=0.0)
        )
        assistant = DesktopAssistant(
            world.env, "desktop", world.create_source_endpoint("desktop"),
            idle_threshold=1.0,
        )
        emitted = record_alerts(assistant)
        assistant.watch_mailbox(world.email, "x@mail", interval=30.0)
        world.email.send("a@mail", "x@mail", "fyi", "b", importance="normal")
        world.run(until=10 * MINUTE)
        assert emitted == []
