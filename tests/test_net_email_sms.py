"""Unit tests for the email and SMS substrates."""

import pytest

from repro.errors import ChannelUnavailable, ConfigurationError
from repro.net import ChannelType, EmailService, LatencyModel, SMSGateway
from repro.sim import Environment, RngRegistry

FIXED = LatencyModel(median=10.0, sigma=0.0, low=0.0, high=1e6)


def make_email(loss=0.0):
    env = Environment()
    rng = RngRegistry(seed=2).stream("email")
    return env, EmailService(env, rng, latency=FIXED, loss_probability=loss)


def make_sms(loss=0.0):
    env = Environment()
    rng = RngRegistry(seed=2).stream("sms")
    return env, SMSGateway(env, rng, latency=FIXED, loss_probability=loss)


class TestEmail:
    def test_delivery_lands_in_mailbox_after_latency(self):
        env, service = make_email()
        service.send("src@mail", "mab@mail", "subj", "body")
        env.run()
        box = service.mailbox("mab@mail")
        assert box.unread_count == 1
        assert box.peek_unread()[0].subject == "subj"
        assert service.stats.latency_total == service.stats.latency_max == 10.0

    def test_receive_marks_read(self):
        env, service = make_email()
        service.send("src@mail", "mab@mail", "subj", "body")
        got = []

        def reader(env):
            msg = yield service.mailbox("mab@mail").receive()
            got.append(msg)

        env.process(reader(env))
        env.run()
        box = service.mailbox("mab@mail")
        assert [m.body for m in got] == ["body"]
        assert box.unread_count == 0
        assert [m.body for m in box.read] == ["body"]

    def test_mailbox_exists_without_recipient_online(self):
        env, service = make_email()
        # No "login" concept: sending to a never-seen address just works.
        service.send("a@mail", "fresh@mail", "s", "b")
        env.run()
        assert service.mailbox("fresh@mail").unread_count == 1

    def test_down_relay_rejects_submission(self):
        env, service = make_email()
        service.set_available(False)
        with pytest.raises(ChannelUnavailable):
            service.send("a@mail", "b@mail", "s", "b")
        assert service.stats.rejected == 1

    def test_loss(self):
        env, service = make_email(loss=1.0)
        service.send("a@mail", "b@mail", "s", "b")
        env.run()
        assert service.stats.lost == 1
        assert service.mailbox("b@mail").unread_count == 0

    def test_importance_header(self):
        env, service = make_email()
        msg = service.send("a@mail", "b@mail", "s", "b", importance="high")
        assert msg.headers["importance"] == "high"
        assert msg.channel is ChannelType.EMAIL
        env.run()

    def test_long_tail_latency_distribution(self):
        env = Environment()
        rng = RngRegistry(seed=9).stream("email")
        service = EmailService(env, rng)  # default long-tailed model
        arrivals = []  # everything is sent at t=0: arrival time is latency
        service.mailbox("b@mail").hook = lambda _: arrivals.append(env.now)
        for i in range(300):
            service.send("a@mail", "b@mail", "s", f"b{i}")
        env.run()
        lats = sorted(arrivals)
        stats = service.stats
        assert stats.delivered == len(lats)
        assert stats.latency_max == lats[-1]
        assert stats.latency_total == pytest.approx(sum(lats))
        assert lats[0] >= 2.0
        # Median in the tens of seconds, p95 at least minutes: "seconds to days".
        median = lats[len(lats) // 2]
        assert 5.0 < median < 120.0
        assert lats[int(len(lats) * 0.95)] > 120.0


class TestSMS:
    def test_delivery_to_phone(self):
        env, gateway = make_sms()
        gateway.send("mab", "+14255550100", "alert!")
        env.run()
        phone = gateway.phone("+14255550100")
        assert len(phone.inbox) == 1

    def test_truncation_to_160_chars(self):
        env, gateway = make_sms()
        msg = gateway.send("mab", "+1", "x" * 500)
        assert len(msg.body) == 160
        env.run()

    def test_unreachable_phone_silently_drops(self):
        env, gateway = make_sms()
        gateway.set_reachable("+1", False)
        gateway.send("mab", "+1", "lost")
        env.run()
        assert gateway.stats.lost == 1
        assert len(gateway.phone("+1").inbox) == 0

    def test_gateway_accepts_submission_even_for_unreachable_phone(self):
        # The sender cannot observe unreachability — the core reason blanket
        # SMS redundancy gives no guarantee (§2.3).
        env, gateway = make_sms()
        gateway.set_reachable("+1", False)
        msg = gateway.send("mab", "+1", "lost")
        assert msg is not None
        assert gateway.stats.submitted == 1
        env.run()

    def test_reachable_again_resumes_delivery(self):
        env, gateway = make_sms()
        gateway.set_reachable("+1", False)
        gateway.set_reachable("+1", True)
        gateway.send("mab", "+1", "ok")
        env.run()
        assert len(gateway.phone("+1").inbox) == 1

    def test_down_gateway_rejects(self):
        env, gateway = make_sms()
        gateway.set_available(False)
        with pytest.raises(ChannelUnavailable):
            gateway.send("mab", "+1", "x")

    def test_loss(self):
        env, gateway = make_sms(loss=1.0)
        gateway.send("mab", "+1", "x")
        env.run()
        assert gateway.stats.lost == 1


class TestLatencyModel:
    def test_invalid_models_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(median=0.0, sigma=1.0, low=0.0, high=1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(median=1.0, sigma=-1.0, low=0.0, high=1.0)
        with pytest.raises(ConfigurationError):
            LatencyModel(median=1.0, sigma=1.0, low=5.0, high=1.0)

    def test_zero_sigma_is_deterministic_clipped(self):
        rng = RngRegistry(seed=0).stream("x")
        model = LatencyModel(median=100.0, sigma=0.0, low=0.0, high=50.0)
        assert model.draw(rng) == 50.0

    def test_channel_type_from_tag(self):
        assert ChannelType.from_tag("IM") is ChannelType.IM
        assert ChannelType.from_tag("EM") is ChannelType.EMAIL
        assert ChannelType.from_tag("SMS") is ChannelType.SMS
        with pytest.raises(ValueError):
            ChannelType.from_tag("FAX")
