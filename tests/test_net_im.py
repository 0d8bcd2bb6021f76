"""Unit tests for the IM service substrate."""

import pytest

from repro.errors import (
    AddressUnknownError,
    ChannelUnavailable,
    DeliveryFailure,
    ConfigurationError,
)
from repro.net import ChannelType, IMService, LatencyModel
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)


def make_service(loss=0.0, latency=FAST, seed=1):
    env = Environment()
    rng = RngRegistry(seed=seed).stream("im")
    service = IMService(env, rng, latency=latency, loss_probability=loss)
    return env, service


def test_login_requires_account():
    env, service = make_service()
    with pytest.raises(AddressUnknownError):
        service.login("nobody@im")


def test_login_sets_presence():
    env, service = make_service()
    service.register_account("mab@im")
    assert not service.presence.is_online("mab@im")
    service.login("mab@im")
    assert service.presence.is_online("mab@im")


def test_logout_clears_presence_and_session():
    env, service = make_service()
    service.register_account("mab@im")
    session = service.login("mab@im")
    session.logout()
    assert not service.presence.is_online("mab@im")
    assert not session.active
    assert service.session_for("mab@im") is None


def test_second_login_invalidates_first_session():
    env, service = make_service()
    service.register_account("mab@im")
    first = service.login("mab@im")
    second = service.login("mab@im")
    assert not first.active
    assert second.active
    assert service.session_for("mab@im") is second


def test_send_delivers_to_online_recipient():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    receiver = service.login("mab@im")
    got = []

    def listen(env):
        msg = yield receiver.receive()
        got.append((msg.body, env.now))

    env.process(listen(env))

    def talk(env):
        sender.send("mab@im", "Basement Water Sensor ON")
        yield env.timeout(0)

    env.process(talk(env))
    env.run()
    assert got == [("Basement Water Sensor ON", 0.4)]


def test_send_to_offline_recipient_fails():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    with pytest.raises(DeliveryFailure):
        sender.send("mab@im", "hello")
    assert service.stats.rejected == 1


def test_send_from_dead_session_fails():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    first = service.login("src@im")
    service.login("src@im")  # invalidates first
    service.login("mab@im")
    with pytest.raises(ChannelUnavailable):
        first.send("mab@im", "hello")


def test_sequence_numbers_monotonic_per_session():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    service.login("mab@im")
    seqs = [sender.send("mab@im", f"m{i}").seq for i in range(3)]
    assert seqs == [1, 2, 3]
    env.run()


def test_message_metadata():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    service.login("mab@im")
    msg = sender.send("mab@im", "body", subject="subj", correlation="alert-1")
    assert msg.channel is ChannelType.IM
    assert msg.sender == "src@im"
    assert msg.recipient == "mab@im"
    assert msg.correlation == "alert-1"
    env.run()


def test_recipient_logout_mid_flight_loses_message():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    receiver = service.login("mab@im")

    def scenario(env):
        sender.send("mab@im", "doomed")
        yield env.timeout(0.1)  # latency is 0.4 — log out before delivery
        receiver.logout()

    env.process(scenario(env))
    env.run()
    assert service.stats.lost == 1
    assert service.stats.delivered == 0


def test_outage_force_logs_out_everyone_and_rejects_sends():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    service.login("mab@im")

    def scenario(env):
        yield env.timeout(1.0)
        service.outage(60.0)
        assert not service.presence.is_online("mab@im")
        assert not sender.active
        with pytest.raises(ChannelUnavailable):
            service.login("src@im")
        yield env.timeout(61.0)
        # Service recovered: login works again.
        session = service.login("src@im")
        assert session.active

    done = env.process(scenario(env))
    env.run(until=done)


def test_overlapping_outages_extend():
    env, service = make_service()

    def scenario(env):
        service.outage(10.0)
        yield env.timeout(5.0)
        service.outage(20.0)  # extends to t=25
        yield env.timeout(10.0)  # t=15: still down
        assert not service.available
        yield env.timeout(11.0)  # t=26: back up
        assert service.available

    done = env.process(scenario(env))
    env.run(until=done)


def test_shorter_overlapping_outage_does_not_shrink():
    env, service = make_service()

    def scenario(env):
        service.outage(100.0)
        yield env.timeout(1.0)
        service.outage(5.0)  # must not end the outage at t=6
        yield env.timeout(10.0)  # t=11
        assert not service.available
        yield env.timeout(95.0)  # t=106
        assert service.available

    done = env.process(scenario(env))
    env.run(until=done)


def test_outage_duration_must_be_positive():
    env, service = make_service()
    with pytest.raises(ConfigurationError):
        service.outage(0.0)


def test_loss_probability_drops_messages():
    env, service = make_service(loss=1.0)
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    service.login("mab@im")
    sender.send("mab@im", "gone")
    env.run()
    assert service.stats.lost == 1
    assert service.stats.delivered == 0


def test_force_logout_fault_hook():
    env, service = make_service()
    service.register_account("mab@im")
    session = service.login("mab@im")
    assert service.force_logout("mab@im") is True
    assert not session.active
    assert service.force_logout("mab@im") is False


def test_stats_track_latency():
    env, service = make_service()
    for addr in ("src@im", "mab@im"):
        service.register_account(addr)
    sender = service.login("src@im")
    receiver = service.login("mab@im")

    def drain(env):
        while True:
            yield receiver.receive()

    env.process(drain(env))

    def talk(env):
        for i in range(10):
            sender.send("mab@im", f"m{i}")
            yield env.timeout(1.0)

    env.process(talk(env))
    env.run(until=30.0)
    assert service.stats.delivered == 10
    assert service.stats.latency_total == pytest.approx(4.0)
    assert service.stats.latency_max == pytest.approx(0.4)
    assert service.stats.delivery_ratio == 1.0


def test_im_message_repr_and_session_repr():
    env = Environment()
    im = IMService(env, RngRegistry(seed=1).stream("im"), latency=FAST)
    im.register_account("a@im")
    session = im.login("a@im")
    assert "a@im" in repr(session)
    session.logout()
    assert "dead" in repr(session)
