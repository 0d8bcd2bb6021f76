"""Property-based tests on core cross-module invariants.

These are the load-bearing guarantees of the architecture:

1. **Fallback totality** — executing any delivery mode terminates with
   either a successful block or a recorded failure for *every* block;
   alerts are never silently dropped by the engine.
2. **Ack soundness** — a delivery reported as ack-confirmed implies the
   recipient actually received the message.
3. **SSS timeout algebra** — a variable times out iff its refreshes stop
   for longer than ``refresh_period * (max_missed + 1)``.
4. **Delivery-mode XML totality** — any mode the model accepts round-trips
   through XML.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aladdin.sss import SoftStateStore
from repro.clients import Screen
from repro.core import (
    Action,
    AddressBook,
    CommunicationBlock,
    DeliveryMode,
    SimbaEndpoint,
    UserAddress,
)
from repro.core.endpoint import make_ack_body
from repro.core.router import BlockStatus
from repro.net import (
    ChannelType,
    EmailService,
    IMService,
    LatencyModel,
    SMSGateway,
)
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.3, sigma=0.0, low=0.0, high=5.0)

# ---------------------------------------------------------------------------
# Strategy: arbitrary delivery modes over a fixed three-address book
# ---------------------------------------------------------------------------

ADDRESS_NAMES = ["IM", "SMS", "Email", "Ghost"]  # Ghost never exists

actions = st.sampled_from(ADDRESS_NAMES)
blocks = st.builds(
    lambda refs, ack, timeout: CommunicationBlock(
        [Action(r) for r in refs], require_ack=ack, ack_timeout=timeout
    ),
    st.lists(actions, min_size=1, max_size=3, unique=True),
    st.booleans(),
    st.floats(min_value=1.0, max_value=20.0),
)
modes = st.builds(
    lambda bs: DeliveryMode("prop-mode", bs),
    st.lists(blocks, min_size=1, max_size=4),
)
# Which of the real addresses are enabled / online this run.
toggles = st.fixed_dictionaries(
    {
        "im_enabled": st.booleans(),
        "sms_enabled": st.booleans(),
        "email_enabled": st.booleans(),
        "recipient_online": st.booleans(),
        "recipient_acks": st.booleans(),
        "email_up": st.booleans(),
        "sms_up": st.booleans(),
    }
)


def build_rig(cfg):
    env = Environment()
    rngs = RngRegistry(seed=1)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(env, rngs.stream("email"), latency=FAST,
                         loss_probability=0.0)
    sms = SMSGateway(env, rngs.stream("sms"), latency=FAST,
                     loss_probability=0.0)
    email.set_available(cfg["email_up"])
    sms.set_available(cfg["sms_up"])
    endpoint = SimbaEndpoint(
        env, "src", Screen(env), im, email, sms, "src@im", "src@mail",
        auto_ack=False,
    )
    endpoint.start()
    im.register_account("peer@im")
    if cfg["recipient_online"]:
        session = im.login("peer@im")
        if cfg["recipient_acks"]:
            def acker(env):
                while session.active:
                    message = yield session.receive()
                    yield env.timeout(0.2)
                    session.send(message.sender, make_ack_body(message.seq))

            env.process(acker(env))
    book = AddressBook(owner="peer")
    book.add(UserAddress("IM", ChannelType.IM, "peer@im",
                         enabled=cfg["im_enabled"]))
    book.add(UserAddress("SMS", ChannelType.SMS, "+1555",
                         enabled=cfg["sms_enabled"]))
    book.add(UserAddress("Email", ChannelType.EMAIL, "peer@mail",
                         enabled=cfg["email_enabled"]))
    return env, endpoint, book


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mode=modes, cfg=toggles)
def test_fallback_totality_and_ack_soundness(mode, cfg):
    env, endpoint, book = build_rig(cfg)
    outcome = env.run(
        until=endpoint.engine.execute(mode, book, "s", "b", "corr")
    )

    # 1. Totality: exactly one success (the last examined block) or every
    #    block examined and failed; never an unexamined gap before a result.
    statuses = [b.status for b in outcome.blocks]
    if outcome.delivered:
        assert statuses[-1] is BlockStatus.SUCCESS
        assert all(s is not BlockStatus.SUCCESS for s in statuses[:-1])
        assert len(outcome.blocks) <= len(mode.blocks)
    else:
        assert len(outcome.blocks) == len(mode.blocks)
        assert all(s is not BlockStatus.SUCCESS for s in statuses)

    # 2. Bookkeeping: the ack table never leaks pending entries.
    env.run(until=env.now + 60.0)
    assert len(endpoint.engine.acks) == 0

    # 3. Ack soundness: an acked block implies an online recipient that acks.
    for block in outcome.blocks:
        if block.acked_by is not None:
            assert cfg["recipient_online"] and cfg["recipient_acks"]
            assert cfg["im_enabled"]

    # 4. Disabled addresses are never submitted to.
    for block_outcome, block in zip(outcome.blocks, mode.blocks):
        for name in block_outcome.submitted:
            if name != "Ghost":
                assert book.get(name).enabled


@settings(max_examples=40, deadline=None)
@given(
    period=st.floats(min_value=0.5, max_value=20.0),
    max_missed=st.integers(min_value=0, max_value=5),
    refreshes=st.integers(min_value=0, max_value=12),
    gap_factor=st.floats(min_value=0.1, max_value=3.0),
)
def test_sss_timeout_algebra(period, max_missed, refreshes, gap_factor):
    """Timeout fires iff the silent gap exceeds period * (max_missed + 1)."""
    env = Environment()
    store = SoftStateStore(env, "pc")
    store.define_type("t")
    store.create("v", "t", 0, refresh_period=period, max_missed=max_missed)

    def refresher(env):
        for _ in range(refreshes):
            yield env.timeout(period)
            store.refresh("v")

    env.process(refresher(env))
    last_refresh_time = refreshes * period
    deadline = last_refresh_time + period * (max_missed + 1)
    observe_at = last_refresh_time + period * (max_missed + 1) * gap_factor
    env.run(until=observe_at)
    variable = store.variable("v")
    scan = SoftStateStore.SCAN_INTERVAL
    if observe_at > deadline + scan:
        assert variable.timed_out
    elif observe_at < deadline:
        assert not variable.timed_out
    # (within one scan interval of the deadline either answer is legal)
