"""Delivery-engine semantics: blocks, acks, fallback.

These tests build a sender :class:`SimbaEndpoint` (so ack routing works end
to end) and a hand-controlled recipient on the IM service.
"""

import pytest

from repro.clients import Screen
from repro.core import (
    Action,
    AddressBook,
    CommunicationBlock,
    DeliveryMode,
    SimbaEndpoint,
    UserAddress,
)
from repro.core.endpoint import make_ack_body, parse_ack_body
from repro.core.router import BlockStatus, DeliveryEngine
from repro.errors import Interrupt
from repro.net import ChannelType, EmailService, IMService, LatencyModel, SMSGateway
from repro.sim import Environment, RngRegistry

FAST = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
SLOW = LatencyModel(median=30.0, sigma=0.0, low=0.0, high=100.0)


class Rig:
    def __init__(self, seed=3):
        self.env = Environment()
        rngs = RngRegistry(seed=seed)
        self.im = IMService(self.env, rngs.stream("im"), latency=FAST)
        self.email = EmailService(
            self.env, rngs.stream("email"), latency=SLOW, loss_probability=0.0
        )
        self.sms = SMSGateway(
            self.env, rngs.stream("sms"), latency=SLOW, loss_probability=0.0
        )
        self.screen = Screen(self.env)
        self.sender = SimbaEndpoint(
            self.env,
            name="source",
            screen=self.screen,
            im_service=self.im,
            email_service=self.email,
            sms_gateway=self.sms,
            im_address="source@im",
            email_address="source@mail",
            auto_ack=False,
        )
        self.sender.start()
        self.im.register_account("target@im")

    def book(self, enabled_sms=True):
        book = AddressBook(owner="target")
        book.add(UserAddress("IM", ChannelType.IM, "target@im"))
        book.add(
            UserAddress("SMS", ChannelType.SMS, "+1999", enabled=enabled_sms)
        )
        book.add(UserAddress("Email", ChannelType.EMAIL, "target@mail"))
        return book

    def auto_acker(self, delay=0.2):
        """Log target@im in and ack every incoming IM after ``delay``."""
        session = self.im.login("target@im")

        def loop(env):
            while session.active:
                message = yield session.receive()
                yield env.timeout(delay)
                session.send(message.sender, make_ack_body(message.seq))

        self.env.process(loop(self.env))
        return session

    def execute(self, mode, book):
        return self.env.run(
            until=self.sender.engine.execute(
                mode, book, "subj", "body", "corr-1"
            )
        )


def im_ack_mode(timeout=10.0, backup=("SMS", "Email")):
    blocks = [
        CommunicationBlock([Action("IM")], require_ack=True, ack_timeout=timeout)
    ]
    if backup:
        blocks.append(CommunicationBlock([Action(a) for a in backup]))
    return DeliveryMode("test-mode", blocks)


class TestAckProtocol:
    def test_ack_body_roundtrip(self):
        assert parse_ack_body(make_ack_body(42)) == 42
        assert parse_ack_body("hello") is None
        assert parse_ack_body("SIMBA-ACK notanumber") is None


class TestBlockSemantics:
    def test_ack_block_succeeds_on_ack(self):
        rig = Rig()
        rig.auto_acker(delay=0.2)
        outcome = rig.execute(im_ack_mode(), rig.book())
        assert outcome.delivered
        assert outcome.delivered_via == 0
        assert outcome.messages_sent == 1
        assert outcome.blocks[0].status is BlockStatus.SUCCESS
        assert outcome.blocks[0].acked_by == "IM"
        # IM one-way 0.4 + reaction 0.2 + ack one-way 0.4 = 1.0.
        assert outcome.elapsed == pytest.approx(1.0, abs=0.01)

    def test_ack_timeout_falls_back_to_next_block(self):
        rig = Rig()
        rig.im.login("target@im")  # online but never acks
        outcome = rig.execute(im_ack_mode(timeout=5.0), rig.book())
        assert outcome.delivered  # via best-effort backup block
        assert outcome.delivered_via == 1
        assert outcome.blocks[0].status is BlockStatus.ACK_TIMEOUT
        assert outcome.blocks[1].status is BlockStatus.SUCCESS
        assert set(outcome.blocks[1].submitted) == {"SMS", "Email"}
        assert outcome.messages_sent == 3

    def test_offline_recipient_fails_submission_and_falls_back(self):
        rig = Rig()  # target@im never logs in
        outcome = rig.execute(im_ack_mode(timeout=5.0), rig.book())
        assert outcome.blocks[0].status is BlockStatus.ALL_SUBMISSIONS_FAILED
        assert "IM" in outcome.blocks[0].errors
        assert outcome.delivered_via == 1
        # Fallback is immediate: no ack timeout burned on a failed submit.
        assert outcome.elapsed < 1.0

    def test_disabled_address_skips_action(self):
        # §3.3: disabling the SMS address makes blocks with SMS actions fail
        # automatically and fall back.
        rig = Rig()
        mode = DeliveryMode(
            "sms-first",
            [
                CommunicationBlock([Action("SMS")]),
                CommunicationBlock([Action("Email")]),
            ],
        )
        outcome = rig.execute(mode, rig.book(enabled_sms=False))
        assert outcome.blocks[0].status is BlockStatus.NO_ENABLED_ADDRESSES
        assert outcome.blocks[0].skipped_disabled == ("SMS",)
        assert outcome.delivered_via == 1

    def test_all_blocks_fail_delivery_fails(self):
        rig = Rig()
        rig.email.set_available(False)
        mode = DeliveryMode(
            "doomed",
            [
                CommunicationBlock([Action("IM")], require_ack=True, ack_timeout=2.0),
                CommunicationBlock([Action("Email")]),
            ],
        )
        outcome = rig.execute(mode, rig.book())
        assert not outcome.delivered
        assert outcome.delivered_via is None
        assert len(outcome.blocks) == 2

    def test_unknown_address_recorded_not_fatal(self):
        rig = Rig()
        book = AddressBook(owner="target")
        book.add(UserAddress("Email", ChannelType.EMAIL, "target@mail"))
        mode = DeliveryMode(
            "m",
            [
                CommunicationBlock([Action("Pager")]),
                CommunicationBlock([Action("Email")]),
            ],
        )
        outcome = rig.execute(mode, book)
        assert outcome.blocks[0].errors == {"Pager": "unknown address"}
        assert outcome.delivered_via == 1

    def test_best_effort_block_succeeds_on_submission(self):
        # Email takes 30 s to deliver, but the block succeeds at submission.
        rig = Rig()
        mode = DeliveryMode("m", [CommunicationBlock([Action("Email")])])
        outcome = rig.execute(mode, rig.book())
        assert outcome.delivered
        assert outcome.elapsed == 0.0

    def test_ack_block_on_non_im_address_cannot_confirm(self):
        rig = Rig()
        mode = DeliveryMode(
            "m",
            [
                CommunicationBlock([Action("Email")], require_ack=True,
                                   ack_timeout=5.0),
                CommunicationBlock([Action("SMS")]),
            ],
        )
        outcome = rig.execute(mode, rig.book())
        assert outcome.blocks[0].status is BlockStatus.ACK_TIMEOUT
        assert outcome.delivered_via == 1

    def test_concurrent_actions_within_block(self):
        rig = Rig()
        mode = DeliveryMode(
            "m", [CommunicationBlock([Action("SMS"), Action("Email")])]
        )
        outcome = rig.execute(mode, rig.book())
        assert outcome.messages_sent == 2
        rig.env.run(until=40.0)
        assert rig.sms.stats.delivered == 1
        assert rig.email.stats.delivered == 1

    def test_late_ack_after_timeout_is_ignored(self):
        rig = Rig()
        rig.auto_acker(delay=20.0)  # acks long after the 3 s timeout
        outcome = rig.execute(im_ack_mode(timeout=3.0), rig.book())
        assert outcome.blocks[0].status is BlockStatus.ACK_TIMEOUT
        # Run past the late ack; nothing blows up and no pending entries leak.
        rig.env.run(until=60.0)
        assert len(rig.sender.engine.acks) == 0


class TestEngineDeterminism:
    def test_same_seed_same_outcome_timings(self):
        def run_once():
            rig = Rig(seed=11)
            rig.auto_acker(delay=0.3)
            outcome = rig.execute(im_ack_mode(), rig.book())
            return outcome.elapsed, outcome.messages_sent

        assert run_once() == run_once()


class TestOutcomeProperties:
    def test_elapsed_and_delivered_via(self):
        rig = Rig()
        rig.auto_acker(delay=0.2)
        outcome = rig.execute(im_ack_mode(), rig.book())
        assert outcome.elapsed == outcome.finished_at - outcome.started_at
        assert outcome.delivered_via == 0
        assert outcome.blocks[0].succeeded

    def test_failed_outcome_properties(self):
        rig = Rig()
        rig.email.set_available(False)
        rig.sms.set_available(False)
        mode = DeliveryMode(
            "doomed",
            [CommunicationBlock([Action("SMS"), Action("Email")])],
        )
        outcome = rig.execute(mode, rig.book())
        assert not outcome.delivered
        assert outcome.delivered_via is None
        assert not outcome.blocks[0].succeeded
        assert set(outcome.blocks[0].errors) == {"SMS", "Email"}


class TestAckTableClassification:
    """The counters the chaos oracle's no-duplicate-ACKs invariant reads."""

    def _table(self):
        from repro.core.router import AckTable

        return AckTable(Environment())

    def test_resolve_satisfies_waiting_expectation(self):
        table = self._table()
        table.expect("peer@im", 1)
        assert table.resolve("peer@im", 1) is True
        assert table.resolved_count == 1
        assert len(table) == 0

    def test_second_ack_for_same_conversation_is_duplicate(self):
        table = self._table()
        table.expect("peer@im", 1)
        table.resolve("peer@im", 1)
        assert table.resolve("peer@im", 1) is False
        assert table.duplicate_count == 1

    def test_ack_after_cancel_is_late_then_duplicate(self):
        table = self._table()
        table.expect("peer@im", 4)
        table.cancel("peer@im", 4)  # the block timed out and moved on
        assert table.resolve("peer@im", 4) is False
        assert table.late_count == 1
        assert table.resolve("peer@im", 4) is False
        assert table.duplicate_count == 1

    def test_unsolicited_ack_counted_not_asserted(self):
        table = self._table()
        assert table.resolve("stranger@im", 9) is False
        assert table.unsolicited_count == 1
        assert table.duplicate_count == 0

    def test_seq_reuse_after_relogin_is_a_fresh_conversation(self):
        """IM seqs are per-session: re-expecting a key clears stale state."""
        table = self._table()
        table.expect("peer@im", 1)
        table.resolve("peer@im", 1)
        # Client relogs in; its session seq counter restarts at 1.
        table.expect("peer@im", 1)
        assert table.resolve("peer@im", 1) is True
        assert table.resolved_count == 2
        assert table.duplicate_count == 0


class TestGuardTimerHygiene:
    """Regression: a resolved ack race must not leave its guard timer live.

    Before timer cancellation existed, every acked block left its
    ``ack_timeout`` Timeout sitting in the heap until the deadline — at
    farm scale, one dead timer per alert.  The race loser must now be a
    tombstone the moment the block resolves.
    """

    @staticmethod
    def _record_long_timers(env, at_least):
        """Every timer of ``delay >= at_least`` made from now on (the rig's
        background loops run on much shorter ones, so these are guards)."""
        made = []
        factory = env.timeout

        def recording(delay, value=None):
            timer = factory(delay, value)
            if delay >= at_least:
                made.append(timer)
            return timer

        env.timeout = recording
        return made

    def test_ack_win_leaves_no_live_guard_timer(self):
        rig = Rig()
        guards = self._record_long_timers(rig.env, 600.0)
        rig.auto_acker(delay=0.2)
        outcome = rig.execute(im_ack_mode(timeout=600.0), rig.book())
        assert outcome.delivered
        assert outcome.delivered_via == 0
        # The 600 s guard lost the race at t~1.0; nothing live may remain
        # at its deadline.
        assert len(guards) == 1 and guards[0].cancelled

    def test_many_acked_blocks_keep_queue_depth_bounded(self):
        rig = Rig()
        guards = self._record_long_timers(rig.env, 900.0)
        rig.auto_acker(delay=0.1)
        for _ in range(10):
            outcome = rig.execute(im_ack_mode(timeout=900.0), rig.book())
            assert outcome.delivered_via == 0
        # Ten resolved races: every dead guard (deadline >= 900 s) must be a
        # tombstone, and compaction must keep the dead count bounded instead
        # of letting one corpse per alert accumulate.
        assert len(guards) == 10 and all(g.cancelled for g in guards)
        assert rig.env.dead_entries <= rig.env.queue_depth + 1

    def test_an_interrupt_mid_race_leaves_no_live_guard_timer(self):
        """A waiter interrupted mid-race settles it at once: the guard is a
        tombstone and the ack event lets go of the run, but stays in the
        ack table, so a late ack still resolves; the run never ends."""
        rig = Rig()
        guards = self._record_long_timers(rig.env, 600.0)
        rig.im.login("target@im")  # online, never acks
        runs = []

        def waiter(env):
            runs.append(rig.sender.engine.execute(
                im_ack_mode(timeout=600.0), rig.book(), "subj", "body", "c"
            ))
            try:
                yield runs[0]
            except Interrupt:
                return "interrupted"

        proc = rig.env.process(waiter(rig.env))
        rig.env.run(until=5.0)
        proc.interrupt("crash")
        assert rig.env.run(until=proc) == "interrupted"
        assert len(guards) == 1 and guards[0].cancelled
        (pending,) = rig.sender.engine.acks._pending.values()
        assert pending.callbacks == []
        rig.env.run(until=700.0)
        assert not runs[0].processed


class TestRunWithoutWaits:
    """A mode whose blocks never wait runs inside ``execute``."""

    class Manager:
        """A channel that accepts every submission and sends nothing."""

        def submit(self, address, subject, body, correlation):
            return object()

    def test_a_mode_with_no_waiting_block_schedules_no_event(self):
        env = Environment()
        engine = DeliveryEngine(env, {ChannelType.EMAIL: self.Manager()})
        scheduled = []
        schedule, timeout = env.schedule, env.timeout
        env.schedule = lambda *args: scheduled.append(args) or schedule(*args)
        env.timeout = lambda *args: scheduled.append(args) or timeout(*args)
        book = AddressBook(owner="target")
        book.add(UserAddress("IM", ChannelType.IM, "t@im", enabled=False))
        book.add(UserAddress("Email", ChannelType.EMAIL, "t@mail"))
        mode = DeliveryMode("never-waits", [
            CommunicationBlock([Action("IM")], require_ack=True),
            CommunicationBlock([Action("Email")]),
        ])
        run = engine.execute(mode, book, "subj", "body", "corr")
        assert run.processed and run.value.delivered_via == 1
        assert [b.status for b in run.value.blocks] == [
            BlockStatus.NO_ENABLED_ADDRESSES, BlockStatus.SUCCESS,
        ]
        assert scheduled == [] and env.queue_depth == 0
