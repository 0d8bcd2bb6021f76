"""Unit tests for the SimbaEndpoint runtime (receive loops, ack protocol,
pre-ack hooks, restart semantics)."""

import pytest

from repro.clients import Screen
from repro.core import Alert, SimbaEndpoint
from repro.core.endpoint import (
    ACK_PREFIX,
    IncomingAlert,
    make_ack_body,
    parse_ack_body,
)
from repro.net import (
    ChannelType,
    EmailService,
    IMService,
    LatencyModel,
    SMSGateway,
)
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.3, sigma=0.0, low=0.0, high=10.0)


class Rig:
    def __init__(self, seed=0, auto_ack=True, maintenance=None):
        self.env = Environment()
        rngs = RngRegistry(seed=seed)
        self.im = IMService(self.env, rngs.stream("im"), latency=FAST)
        self.email = EmailService(
            self.env, rngs.stream("email"), latency=FAST, loss_probability=0.0
        )
        self.sms = SMSGateway(
            self.env, rngs.stream("sms"), latency=FAST, loss_probability=0.0
        )
        self.screen = Screen(self.env)
        self.endpoint = SimbaEndpoint(
            self.env, "node", self.screen, self.im, self.email, self.sms,
            "node@im", "node@mail", auto_ack=auto_ack,
            maintenance_interval=maintenance,
        )

    def alert(self, alert_id=None):
        kwargs = {"alert_id": alert_id} if alert_id else {}
        return Alert(source="s", keyword="k", subject="subj", body="b",
                     created_at=self.env.now, **kwargs)

    def peer_session(self, address="peer@im"):
        self.im.register_account(address)
        return self.im.login(address)


class TestAckProtocol:
    def test_make_and_parse(self):
        assert parse_ack_body(make_ack_body(7)) == 7
        assert parse_ack_body(f"{ACK_PREFIX} ") is None
        assert parse_ack_body("") is None

    def test_incoming_im_alert_is_acked_and_queued(self):
        rig = Rig(auto_ack=True)
        rig.endpoint.start()
        peer = rig.peer_session()
        alert = rig.alert()
        got = []

        def consumer(env):
            incoming = yield rig.endpoint.alert_inbox.get()
            got.append(incoming)

        rig.env.process(consumer(rig.env))
        peer.send("node@im", alert.encode(), correlation=alert.alert_id)
        rig.env.run(until=30.0)
        assert len(got) == 1
        assert got[0].via is ChannelType.IM
        assert got[0].alert.alert_id == alert.alert_id
        # The peer received the ack referencing the original seq (1).
        ack = peer.inbox.items[0]
        assert parse_ack_body(ack.body) == 1

    def test_auto_ack_disabled(self):
        rig = Rig(auto_ack=False)
        rig.endpoint.start()
        peer = rig.peer_session()
        peer.send("node@im", rig.alert().encode())
        rig.env.run(until=30.0)
        assert len(peer.inbox) == 0
        assert len(rig.endpoint.alert_inbox) == 1

    def test_pre_ack_hook_runs_before_ack(self):
        rig = Rig(auto_ack=True)
        order = []

        def hook(incoming: IncomingAlert):
            order.append(("hook", rig.env.now))
            yield rig.env.timeout(1.0)  # a slow durable write

        rig.endpoint.pre_ack_hook = hook
        rig.endpoint.start()
        peer = rig.peer_session()
        peer.send("node@im", rig.alert().encode())
        rig.env.run(until=30.0)
        assert order and order[0][0] == "hook"
        # Ack was delivered to the peer strictly after the 1 s hook.
        ack = peer.inbox.items[0]
        assert ack.created_at >= order[0][1] + 1.0

    def test_email_alert_reaches_inbox_without_ack(self):
        rig = Rig()
        rig.endpoint.start()
        alert = rig.alert()
        rig.email.send("s@mail", "node@mail", alert.subject, alert.encode())
        got = []

        def consumer(env):
            incoming = yield rig.endpoint.alert_inbox.get()
            got.append(incoming)

        rig.env.process(consumer(rig.env))
        rig.env.run(until=30.0)
        assert got[0].via is ChannelType.EMAIL
        assert got[0].seq is None

    def test_non_alert_messages_go_to_command_handler(self):
        rig = Rig()
        commands = []
        rig.endpoint.command_handler = commands.append
        rig.endpoint.start()
        peer = rig.peer_session()
        peer.send("node@im", "SIMBA-REJUVENATE")
        rig.email.send("a@mail", "node@mail", "hello", "just a mail")
        rig.env.run(until=30.0)
        assert len(commands) == 2
        assert len(rig.endpoint.alert_inbox) == 0

    def test_garbled_alert_payload_dropped(self):
        rig = Rig()
        rig.endpoint.start()
        peer = rig.peer_session()
        peer.send("node@im", "SIMBA-ALERT/1\nid=x\n\nbroken")  # missing fields
        rig.env.run(until=30.0)
        assert len(rig.endpoint.alert_inbox) == 0

    def test_unparsable_alert_payload_is_counted(self):
        rig = Rig()
        rig.endpoint.start()
        rig.email.send("s@mail", "node@mail", "alert",
                       "SIMBA-ALERT/1\nid=x\nsource=portal\n\nbody")
        rig.env.run(until=30.0)
        assert rig.endpoint.corrupt_discarded == 1
        assert len(rig.endpoint.alert_inbox) == 0

    def test_ack_resolution_via_engine(self):
        """An outgoing ack-block delivery resolves from the receive loop."""
        rig = Rig(auto_ack=False)
        rig.endpoint.start()
        peer = rig.peer_session()

        def acker(env):
            message = yield peer.receive()
            yield env.timeout(0.5)
            peer.send(message.sender, make_ack_body(message.seq))

        rig.env.process(acker(rig.env))

        from repro.core import AddressBook, UserAddress
        from repro.core.delivery_modes import im_ack_then_email

        book = AddressBook(owner="peer")
        book.add(UserAddress("IM", ChannelType.IM, "peer@im"))
        book.add(UserAddress("Email", ChannelType.EMAIL, "peer@mail"))
        mode = im_ack_then_email()
        outcome = rig.env.run(
            until=rig.endpoint.deliver_alert(rig.alert(), mode, book)
        )
        assert outcome.delivered and outcome.delivered_via == 0
        # RTT: 0.3 out + 0.5 think + 0.3 back.
        assert outcome.blocks[0].elapsed == pytest.approx(1.1, abs=0.01)


class TestEndpointLifecycle:
    def test_start_idempotent(self):
        rig = Rig()
        rig.endpoint.start()
        generation = rig.endpoint._generation
        rig.endpoint.start()
        assert rig.endpoint._generation == generation

    def test_stop_and_restart_does_not_lose_queued_messages(self):
        rig = Rig(auto_ack=False)
        rig.endpoint.start()
        peer = rig.peer_session()

        def scenario(env):
            yield env.timeout(1.0)
            rig.endpoint.stop()
            # Message arrives while stopped: it stays in the client queue
            # until a new generation (or is consumed+returned by the stale
            # loop).
            peer.send("node@im", rig.alert().encode())
            yield env.timeout(5.0)
            rig.endpoint.start()
            yield env.timeout(5.0)

        done = rig.env.process(scenario(rig.env))
        rig.env.run(until=done)
        rig.env.run(until=30.0)
        assert len(rig.endpoint.alert_inbox) == 1

    def test_maintenance_loop_relogs_in(self):
        rig = Rig(maintenance=30.0)
        rig.endpoint.start()
        rig.env.run(until=1.0)
        rig.im.force_logout("node@im")
        rig.env.run(until=2 * 60.0)
        assert rig.im.presence.is_online("node@im")
        assert rig.endpoint.im_manager.stats.relogons >= 1

    def test_stop_with_shutdown_terminates_clients(self):
        rig = Rig()
        rig.endpoint.start()
        rig.env.run(until=1.0)
        rig.endpoint.stop(shutdown_clients=True)
        assert not rig.endpoint.im_client.running
        assert not rig.endpoint.email_client.running
        assert not rig.im.presence.is_online("node@im")
