"""Edge-case tests for channel plumbing: stats, listeners, presence."""

import math

import pytest

from repro.net import (
    ChannelType,
    EmailService,
    IMService,
    LatencyModel,
    PresenceService,
    SMSGateway,
)
from repro.net.channel import ChannelStats
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=1.0, sigma=0.0, low=0.0, high=10.0)


class TestChannelStats:
    def test_empty_stats_are_nan(self):
        stats = ChannelStats()
        assert math.isnan(stats.delivery_ratio)

    def test_record_delivery(self):
        stats = ChannelStats()
        stats.submitted = 4
        stats.record_delivery(2.0)
        stats.record_delivery(4.0)
        assert stats.delivered == 2
        assert (stats.latency_total, stats.latency_max) == (6.0, 4.0)
        assert stats.delivery_ratio == 0.5


class TestAvailability:
    def test_outage_is_down_for_its_duration(self):
        env = Environment()
        service = IMService(env, RngRegistry(seed=1).stream("im"),
                            latency=FAST)
        service.outage(60.0)
        env.run(until=59.0)
        assert not service.available
        env.run(until=120.0)
        assert service.available


class TestPresenceService:
    def test_watchers_fire_on_transitions_only(self):
        presence = PresenceService()
        seen = []
        presence.watch(lambda addr, online: seen.append((addr, online)))
        presence.set_online("a@im", True)
        presence.set_online("a@im", True)  # no transition
        presence.set_online("a@im", False)
        assert seen == [("a@im", True), ("a@im", False)]


class TestSMSDetails:
    def test_phone_objects_are_cached(self):
        env = Environment()
        gateway = SMSGateway(env, RngRegistry(seed=1).stream("s"),
                             latency=FAST, loss_probability=0.0)
        assert gateway.phone("+1") is gateway.phone("+1")

    def test_message_channel_type(self):
        env = Environment()
        gateway = SMSGateway(env, RngRegistry(seed=1).stream("s"),
                             latency=FAST, loss_probability=0.0)
        message = gateway.send("a", "+1", "hi")
        assert message.channel is ChannelType.SMS
        env.run()

    def test_delivery_in_flight_when_phone_goes_unreachable(self):
        env = Environment()
        gateway = SMSGateway(env, RngRegistry(seed=1).stream("s"),
                             latency=FAST, loss_probability=0.0)
        gateway.send("a", "+1", "doomed")

        def kill_coverage(env):
            yield env.timeout(0.5)  # before the 1 s delivery
            gateway.set_reachable("+1", False)

        env.process(kill_coverage(env))
        env.run()
        assert gateway.stats.lost == 1


class TestEmailDetails:
    def test_mailboxes_cached(self):
        env = Environment()
        service = EmailService(env, RngRegistry(seed=1).stream("e"),
                               latency=FAST, loss_probability=0.0)
        assert service.mailbox("x@mail") is service.mailbox("x@mail")

    def test_put_back_restores_unread_order(self):
        env = Environment()
        service = EmailService(env, RngRegistry(seed=1).stream("e"),
                               latency=FAST, loss_probability=0.0)
        service.send("a", "x@mail", "first", "1")
        service.send("a", "x@mail", "second", "2")
        env.run()
        box = service.mailbox("x@mail")
        got = []

        def reader(env):
            message = yield box.receive()
            got.append(message)

        env.process(reader(env))
        env.run()
        box.put_back(got[0])
        assert [m.subject for m in box.peek_unread()] == ["first", "second"]
        assert box.read == []
