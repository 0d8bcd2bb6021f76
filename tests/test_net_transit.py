"""Transit semantics of ``ChannelBase.transit``, one suite over IM/email/SMS.

Every substrate hands its messages to the same callback-driven transit:
effects and latency drawn at submission, one timer, and at arrival the loss
draw, the substrate's ``arrive`` and the accounting.  These tests pin what a
message in flight may and may not do, whichever substrate carries it, plus
the arrival hooks that replaced the pump and reader processes: the IM
client's, and the user's phone and mailbox.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.clients import IMClient, Screen
from repro.core import Alert
from repro.core.user_endpoint import UserEndpoint
from repro.net import EmailService, IMService, LatencyModel, SMSGateway
from repro.net.adversary import AdversaryModel, AdversaryStats, draw_effects
from repro.net.message import ChannelType
from repro.obs import TraceSink
from repro.sim import Environment, RngRegistry
from repro.sim.process import Process

TRANSIT = 1.0
FAST = LatencyModel(median=TRANSIT, sigma=0.0, low=0.0, high=10.0)
SUBSTRATES = ("im", "email", "sms")


@dataclass
class Rig:
    env: Environment
    channel: object
    #: Submit one message to the recipient (body, correlation) -> message.
    send: Callable
    #: The recipient-side store the substrate's ``arrive`` puts into.
    inbox: Callable


def make_rig(kind, latency=FAST, loss=0.0, seed=3) -> Rig:
    env = Environment()
    rng = RngRegistry(seed=seed).stream(kind)
    if kind == "im":
        channel = IMService(env, rng, latency=latency, loss_probability=loss)
        for address in ("src@im", "dst@im"):
            channel.register_account(address)
        sender = channel.login("src@im")
        channel.login("dst@im")
        return Rig(
            env, channel,
            lambda body="x", correlation=None: sender.send(
                "dst@im", body, correlation=correlation
            ),
            lambda: list(channel.session_for("dst@im").inbox.items),
        )
    if kind == "email":
        channel = EmailService(env, rng, latency=latency, loss_probability=loss)
        return Rig(
            env, channel,
            lambda body="x", correlation=None: channel.send(
                "src@mail", "dst@mail", "s", body, correlation=correlation
            ),
            lambda: channel.mailbox("dst@mail").peek_unread(),
        )
    channel = SMSGateway(env, rng, latency=latency, loss_probability=loss)
    return Rig(
        env, channel,
        lambda body="x", correlation=None: channel.send(
            "src", "+1", body, correlation=correlation
        ),
        lambda: list(channel.phone("+1").inbox.items),
    )


def assert_books_balance(channel):
    stats = channel.stats
    assert stats.submitted == stats.delivered + stats.lost


# ----------------------------------------------------------------------
# In flight
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_delivery_costs_one_timer_and_no_process(kind, monkeypatch):
    rig = make_rig(kind)
    spawned = []
    original_init = Process.__init__

    def counting_init(self, env, generator, name=None):
        spawned.append(name)
        original_init(self, env, generator, name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = rig.env.queue_depth
    rig.send()
    assert rig.env.queue_depth == before + 1
    rig.env.run()
    assert spawned == []
    assert [m.body for m in rig.inbox()] == ["x"]
    assert rig.channel.stats.latencies == [TRANSIT]
    assert_books_balance(rig.channel)


IN_FLIGHT_LOSSES = {
    "im-recipient-logs-out": (
        "im", lambda rig: rig.channel.session_for("dst@im").logout()
    ),
    "im-force-logout": ("im", lambda rig: rig.channel.force_logout("dst@im")),
    "im-service-outage": ("im", lambda rig: rig.channel.outage(30.0)),
    "sms-phone-unreachable": (
        "sms", lambda rig: rig.channel.set_reachable("+1", False)
    ),
}


@pytest.mark.parametrize("case", sorted(IN_FLIGHT_LOSSES))
@pytest.mark.parametrize("duplicates", [False, True])
def test_failure_while_in_flight_charges_lost_exactly_once(case, duplicates):
    kind, strike = IN_FLIGHT_LOSSES[case]
    rig = make_rig(kind)
    if duplicates:
        rig.channel.set_adversary(
            AdversaryModel(duplicate_probability=1.0, duplicate_max=4)
        )
    rig.send()
    rig.env.run(until=TRANSIT / 2)
    strike(rig)
    rig.env.run(until=60.0)
    stats = rig.channel.stats
    assert (stats.submitted, stats.delivered, stats.lost) == (1, 0, 1)
    assert rig.channel.adversary_stats.duplicates_delivered == 0
    assert kind != "sms" or rig.inbox() == []
    if kind == "im":
        # Nothing surfaces after the recipient comes back either.
        rig.env.run(until=120.0)
        assert list(rig.channel.login("dst@im").inbox.items) == []


@pytest.mark.parametrize("kind", ["email", "sms"])
def test_store_and_forward_keeps_what_it_accepted_across_an_outage(kind):
    rig = make_rig(kind)
    rig.send()
    rig.env.run(until=TRANSIT / 2)
    rig.channel.outage(30.0)
    rig.env.run(until=60.0)
    assert len(rig.inbox()) == 1
    assert rig.channel.stats.lost == 0
    assert_books_balance(rig.channel)


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_loss_draw_happens_at_arrival_and_charges_lost(kind):
    rig = make_rig(kind, loss=1.0)
    rig.send()
    assert rig.channel.stats.lost == 0  # still in flight
    rig.env.run()
    assert rig.inbox() == []
    assert rig.channel.stats.lost == 1
    assert_books_balance(rig.channel)


# ----------------------------------------------------------------------
# Adversary
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_duplicates_ride_the_adversary_counters_only(kind):
    rig = make_rig(kind)
    rig.channel.set_adversary(
        AdversaryModel(duplicate_probability=1.0, duplicate_max=4)
    )
    for _ in range(10):
        rig.send()
    rig.env.run()
    stats, adversary = rig.channel.stats, rig.channel.adversary_stats
    assert (stats.submitted, stats.delivered, stats.lost) == (10, 10, 0)
    assert adversary.duplicates_injected >= 10
    assert adversary.duplicates_delivered == adversary.duplicates_injected
    assert len(rig.inbox()) == 10 + adversary.duplicates_injected
    assert len(stats.latencies) == 10


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_lost_duplicates_are_not_charged_to_the_primary_stream(kind):
    rig = make_rig(kind, loss=1.0)
    rig.channel.set_adversary(
        AdversaryModel(duplicate_probability=1.0, duplicate_max=4)
    )
    rig.send()
    rig.env.run()
    assert rig.channel.adversary_stats.duplicates_injected >= 1
    assert rig.channel.adversary_stats.duplicates_delivered == 0
    assert rig.channel.stats.lost == 1
    assert_books_balance(rig.channel)


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_draw_order_is_parents_of_the_instant_then_their_copies(kind):
    """The RNG stream is spent in the order the old delivery processes
    spent it, so adversarial seeds keep their meaning: a send draws its
    effects then its latency; its copies draw one hop later, behind every
    other send of the same instant."""
    model = AdversaryModel(
        reorder_probability=0.5, reorder_horizon=3.0,
        duplicate_probability=1.0, duplicate_max=4, corrupt_probability=0.5,
    )
    latency = LatencyModel(median=1.0, sigma=0.8, low=0.01, high=50.0)
    rig = make_rig(kind, latency=latency, seed=9)
    rig.channel.set_adversary(model)
    arrivals = []
    arrive = rig.channel._arrive

    def recording_arrive(message):
        arrivals.append((rig.env.now, message.corrupt))
        return arrive(message)

    rig.channel._arrive = recording_arrive
    twin = RngRegistry(seed=9).stream(kind)
    scratch = AdversaryStats()
    expected = []
    for instant in (0.0, 100.0, 200.0):
        rig.env.run(until=instant)
        pending_copies = []
        for _parent in range(2):
            rig.send()
            delay, copies, corrupt = draw_effects(model, twin, scratch)
            expected.append((instant + (latency.draw(twin) + delay), corrupt))
            pending_copies.append(copies)
        for copies in pending_copies:
            for _copy in range(copies):
                delay, _, corrupt = draw_effects(model, twin, scratch, True)
                expected.append(
                    (instant + (latency.draw(twin) + delay), corrupt)
                )
    rig.env.run()
    assert len(expected) >= 12
    assert sorted(arrivals) == sorted(expected)


@pytest.mark.parametrize("kind", SUBSTRATES)
def test_corrupt_flag_reaches_the_receiver_and_is_discarded_unacked(kind):
    env = Environment()
    rngs = RngRegistry(seed=5)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(env, rngs.stream("email"), latency=FAST,
                         loss_probability=0.0)
    sms = SMSGateway(env, rngs.stream("sms"), latency=FAST,
                     loss_probability=0.0)
    user = UserEndpoint(
        env, "user", im, email, sms, "user@im", "user@mail", "+1",
        rngs.stream("user"),
    )
    user.start()
    im.register_account("mab@im")
    mab = im.login("mab@im")
    channel = {"im": im, "email": email, "sms": sms}[kind]
    channel.set_adversary(AdversaryModel(corrupt_probability=1.0))
    payload = Alert(
        source="portal", keyword="News", subject="s", body="b", created_at=0.0
    ).encode()
    if kind == "im":
        mab.send("user@im", payload)
    elif kind == "email":
        email.send("mab@mail", "user@mail", "s", payload)
    else:
        sms.send("mab", "+1", payload)
    env.run(until=60.0)
    assert channel.stats.delivered == 1
    assert channel.adversary_stats.corrupt_injected == 1
    assert user.corrupt_discarded == 1
    assert user.receipts == []
    # Never acknowledged: the only IM ever submitted is the alert itself.
    assert im.stats.submitted == (1 if kind == "im" else 0)
    assert list(mab.inbox.items) == []


# ----------------------------------------------------------------------
# The user's phone and mailbox hooks
# ----------------------------------------------------------------------

HOOKED = {"email": ChannelType.EMAIL, "sms": ChannelType.SMS}


@dataclass
class UserRig:
    env: Environment
    channel: object
    user: UserEndpoint
    #: Send one body to the user's device (body, correlation) -> message.
    send: Callable
    #: The device the channel hands its arrivals to.
    device: object


def user_rig(kind) -> UserRig:
    env = Environment()
    rngs = RngRegistry(seed=5)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(env, rngs.stream("email"), latency=FAST,
                         loss_probability=0.0)
    sms = SMSGateway(env, rngs.stream("sms"), latency=FAST,
                     loss_probability=0.0)
    user = UserEndpoint(
        env, "user", im, email, sms, "user@im", "user@mail", "+1",
        rngs.stream("user"),
    )
    user.start()
    if kind == "email":
        return UserRig(
            env, email, user,
            lambda body, correlation=None: email.send(
                "mab@mail", "user@mail", "s", body, correlation=correlation
            ),
            email.mailbox("user@mail"),
        )
    return UserRig(
        env, sms, user,
        lambda body, correlation=None: sms.send(
            "mab", "+1", body, correlation=correlation
        ),
        sms.phone("+1"),
    )


def encoded_alert(alert_id="alert-1"):
    return Alert(
        source="portal", keyword="News", subject="s", body="b",
        created_at=0.0, alert_id=alert_id,
    ).encode()


@pytest.mark.parametrize("kind", sorted(HOOKED))
def test_a_hooked_arrival_gives_exactly_one_receipt(kind):
    rig = user_rig(kind)
    assert rig.device.hook is not None
    rig.send(encoded_alert())
    rig.env.run(until=60.0)
    assert [(r.alert_id, r.channel, r.at) for r in rig.user.receipts] == [
        ("alert-1", HOOKED[kind], TRANSIT)
    ]
    assert rig.channel.stats.delivered == 1


@pytest.mark.parametrize("kind", sorted(HOOKED))
def test_a_corrupt_arrival_is_discarded_once_without_a_receipt(kind):
    rig = user_rig(kind)
    rig.channel.set_adversary(AdversaryModel(corrupt_probability=1.0))
    rig.send(encoded_alert())
    rig.env.run(until=60.0)
    assert rig.user.corrupt_discarded == 1
    assert rig.user.receipts == []


def test_a_truncated_sms_is_received_through_its_correlation_id():
    rig = user_rig("sms")
    rig.send("X" * 300, correlation="alert-1")
    rig.env.run(until=60.0)
    (receipt,) = rig.user.receipts
    assert (receipt.alert_id, receipt.channel) == ("alert-1", ChannelType.SMS)


def test_an_unreachable_phone_never_calls_its_hook():
    rig = user_rig("sms")
    seen = []
    rig.device.hook = seen.append
    rig.channel.set_reachable("+1", False)
    rig.send(encoded_alert())
    rig.env.run(until=60.0)
    assert seen == [] and rig.user.receipts == []
    assert (rig.channel.stats.delivered, rig.channel.stats.lost) == (0, 1)
    assert len(rig.device.inbox) == 0


def test_a_hooked_mailbox_marks_the_message_read_and_queues_nothing():
    rig = user_rig("email")
    hook, marked_first = rig.device.hook, []

    def spy(message):
        marked_first.append(message in rig.device.read)
        hook(message)

    rig.device.hook = spy
    message = rig.send(encoded_alert())
    rig.env.run(until=60.0)
    assert marked_first == [True]
    assert rig.device.read == [message]
    assert rig.device.peek_unread() == []
    assert len(rig.user.receipts) == 1


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", SUBSTRATES)
@pytest.mark.parametrize("loss, outcome", [(0.0, "delivered"), (1.0, "lost")])
def test_transit_span_runs_from_creation_to_arrival(kind, loss, outcome):
    rig = make_rig(kind, loss=loss)
    sink = TraceSink().install(rig.env)
    rig.env.run(until=7.0)
    message = rig.send(correlation="alert-1")
    message.trace_parent = 41
    rig.send()  # no correlation: not traced
    rig.env.run()
    tag = {"im": "IM", "email": "EM", "sms": "SMS"}[kind]
    (span,) = sink.find_spans(f"transit.{tag}")
    assert (span.trace_id, span.parent_id) == ("alert-1", 41)
    assert (span.start, span.end) == (message.created_at, 7.0 + TRANSIT)
    assert span.outcome == outcome
    assert span.annotations == {"recipient": message.recipient}


def test_duplicate_copies_leave_no_transit_span():
    rig = make_rig("im")
    rig.channel.set_adversary(
        AdversaryModel(duplicate_probability=1.0, duplicate_max=3)
    )
    sink = TraceSink().install(rig.env)
    rig.send(correlation="alert-1")
    rig.env.run()
    assert rig.channel.adversary_stats.duplicates_delivered >= 1
    assert len(sink.find_spans("transit.IM")) == 1


# ----------------------------------------------------------------------
# The IM client's delivery hook
# ----------------------------------------------------------------------


@pytest.fixture()
def client_rig():
    env = Environment()
    im = IMService(env, RngRegistry(seed=11).stream("im"), latency=FAST)
    for address in ("mab@im", "src@im"):
        im.register_account(address)
    mab = IMClient(env, Screen(env), im, "mab@im")
    handle = mab.start()
    mab.logon(handle)
    return env, im, mab, handle, im.login("src@im")


def surfaced(client):
    return [message.body for message in client.incoming.items]


def test_client_surfaces_at_arrival_without_touching_the_session_inbox(
    client_rig,
):
    env, im, mab, _handle, src = client_rig
    src.send("mab@im", "one")
    src.send("mab@im", "two")
    env.run(until=TRANSIT)
    assert surfaced(mab) == ["one", "two"]
    assert len(im.session_for("mab@im").inbox) == 0
    assert im.stats.delivered == 2


def test_hung_client_swallows_until_it_is_restarted(client_rig):
    env, im, mab, _handle, src = client_rig
    mab.hang()
    src.send("mab@im", "into the void")
    env.run(until=5.0)
    assert im.stats.delivered == 1  # the network delivered it...
    assert surfaced(mab) == []  # ...but the frozen UI ate it
    assert im.session_for("mab@im").hook is not None  # still hooked
    mab.terminate()
    mab.logon(mab.start())
    src.send("mab@im", "after restart")
    env.run(until=10.0)
    assert surfaced(mab) == ["after restart"]


def test_terminated_client_loses_what_is_in_flight(client_rig):
    env, im, mab, _handle, src = client_rig
    src.send("mab@im", "in flight")
    env.run(until=TRANSIT / 2)
    mab.terminate()
    env.run(until=5.0)
    assert surfaced(mab) == []
    assert (im.stats.delivered, im.stats.lost) == (0, 1)


def test_dead_or_stale_client_drops_and_unhooks(client_rig):
    """A session that outlives its client instance (the client process died
    without logging off) hands its next IM to a hook that drops it and
    removes itself; later IMs stay in the session inbox unsurfaced."""
    env, im, mab, _handle, src = client_rig
    session = im.session_for("mab@im")
    mab.running = False  # died without _on_terminate's orderly logout
    src.send("mab@im", "dropped")
    env.run(until=TRANSIT)
    assert session.hook is None
    assert surfaced(mab) == []
    assert len(session.inbox) == 0
    src.send("mab@im", "parked")
    env.run(until=5.0)
    assert surfaced(mab) == []
    assert [m.body for m in session.inbox.items] == ["parked"]
    assert im.stats.delivered == 2


def test_relogon_after_force_logout_surfaces_only_the_new_session(client_rig):
    env, im, mab, handle, src = client_rig
    old_session = im.session_for("mab@im")
    src.send("mab@im", "to the old session")
    env.run(until=TRANSIT / 2)
    im.force_logout("mab@im")
    mab.logon(handle)
    src.send("mab@im", "to the new session")
    env.run(until=5.0)
    # The in-flight IM arrives while a *new* session holds the address; IM
    # switches by address, so it surfaces there — exactly once — and the
    # dead session sees nothing.
    assert sorted(surfaced(mab)) == [
        "to the new session", "to the old session",
    ]
    assert len(old_session.inbox) == 0
    assert im.session_for("mab@im") is not old_session
    assert (im.stats.delivered, im.stats.lost) == (2, 0)


def test_relogon_gap_loses_what_arrives_in_between(client_rig):
    env, im, mab, handle, src = client_rig
    src.send("mab@im", "arrives during the gap")
    env.run(until=TRANSIT / 2)
    im.force_logout("mab@im")
    env.run(until=2 * TRANSIT)
    mab.logon(handle)
    src.send("mab@im", "after relogon")
    env.run(until=10.0)
    assert surfaced(mab) == ["after relogon"]
    assert (im.stats.delivered, im.stats.lost) == (1, 1)
