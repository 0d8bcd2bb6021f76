"""Unit tests for SelfStabilizer, RejuvenationPolicy and UserEndpoint."""

import pytest

from repro.core.rejuvenation import (
    DEFAULT_KEYWORD,
    DEFAULT_NIGHTLY_TIME,
    RejuvenationPolicy,
)
from repro.core.stabilizer import SelfStabilizer
from repro.net import ChannelType, LatencyModel
from repro.sim import DAY, Environment, HOUR, MINUTE
from repro.sim.clock import seconds_until_time_of_day as until
from repro.world import SimbaWorld, WorldConfig

FIXED = LatencyModel(median=5.0, sigma=0.0, low=0.0, high=100.0)


class TestSelfStabilizer:
    def test_tasks_run_on_their_intervals(self):
        env = Environment()
        stabilizer = SelfStabilizer(env)
        stabilizer.add_task("fast", 10.0, lambda: [])
        stabilizer.add_task("slow", 60.0, lambda: [])
        stabilizer.start()
        env.run(until=120.0)
        assert stabilizer.records["fast"].runs == 12
        assert stabilizer.records["slow"].runs == 2

    def test_corrections_recorded(self):
        env = Environment()
        stabilizer = SelfStabilizer(env)
        flips = iter([["re-logon"], [], ["restart", "re-logon"]])
        stabilizer.add_task("check", 10.0, lambda: next(flips, []))
        stabilizer.start()
        env.run(until=35.0)
        record = stabilizer.records["check"]
        assert [c[1] for c in record.corrections] == [
            "re-logon", "restart", "re-logon",
        ]

    def test_unrectifiable_escalates(self):
        env = Environment()
        escalations = []
        stabilizer = SelfStabilizer(
            env, on_unrectifiable=lambda name, exc: escalations.append(name)
        )

        def broken():
            raise RuntimeError("invariant broken")

        stabilizer.add_task("broken", 10.0, broken)
        stabilizer.start()
        env.run(until=25.0)
        assert escalations == ["broken", "broken"]
        assert len(stabilizer.records["broken"].failures) == 2

    def test_stop_halts_tasks(self):
        env = Environment()
        stabilizer = SelfStabilizer(env)
        stabilizer.add_task("t", 10.0, lambda: [])
        stabilizer.start()
        env.run(until=15.0)
        stabilizer.stop()
        env.run(until=100.0)
        assert stabilizer.records["t"].runs == 1

    def test_duplicate_and_invalid_tasks_rejected(self):
        env = Environment()
        stabilizer = SelfStabilizer(env)
        stabilizer.add_task("t", 10.0, lambda: [])
        with pytest.raises(ValueError):
            stabilizer.add_task("t", 10.0, lambda: [])
        with pytest.raises(ValueError):
            stabilizer.add_task("bad", 0.0, lambda: [])


class TestRejuvenationPolicy:
    def test_keyword_matching(self):
        policy = RejuvenationPolicy()
        assert policy.matches_keyword(f"please {DEFAULT_KEYWORD} now")
        assert not policy.matches_keyword("ordinary message")

    def test_custom_keywords(self):
        policy = RejuvenationPolicy(keywords={"RESET-ME"})
        assert policy.matches_keyword("RESET-ME")
        assert not policy.matches_keyword(DEFAULT_KEYWORD)

    def test_default_nightly_time(self):
        assert RejuvenationPolicy().nightly_time == 23.5 * HOUR


def make_world():
    return SimbaWorld(
        WorldConfig(
            seed=4,
            im_latency=LatencyModel(median=0.4, sigma=0.0, low=0.0, high=5.0),
            email_latency=FIXED,
            email_loss=0.0,
            sms_latency=FIXED,
            sms_loss=0.0,
        )
    )


def send_alert_im(world, user, alert):
    """Send an encoded alert straight to the user's IM (no MAB)."""
    world.im.register_account("tester@im")
    session = world.im.login("tester@im")
    session.send(user.im_address, alert.encode(), correlation=alert.alert_id)


class TestUserEndpoint:
    def _alert(self, world, alert_id=None):
        from repro.core import Alert

        kwargs = {}
        if alert_id:
            kwargs["alert_id"] = alert_id
        return Alert(
            source="s", keyword="k", subject="subj", body="b",
            created_at=world.env.now, **kwargs,
        )

    def test_present_user_receives_and_acks_im(self):
        world = make_world()
        user = world.create_user("u", present=True)
        alert = self._alert(world)
        send_alert_im(world, user, alert)
        world.run(until=60.0)
        assert [r.channel for r in user.receipts] == [ChannelType.IM]
        # The ack came back to the tester's session as an IM... the session
        # inbox should hold one SIMBA-ACK message.
        tester = world.im.session_for("tester@im")
        assert len(tester.inbox) == 1
        assert tester.inbox.items[0].body.startswith("SIMBA-ACK")

    def test_absent_user_not_reachable_by_im(self):
        world = make_world()
        user = world.create_user("u", present=False)
        from repro.errors import DeliveryFailure

        world.im.register_account("tester@im")
        session = world.im.login("tester@im")
        with pytest.raises(DeliveryFailure):
            session.send(user.im_address, "hello")

    def test_presence_toggle_logs_in_and_out(self):
        world = make_world()
        user = world.create_user("u", present=True)
        world.run(until=1.0)
        assert world.im.presence.is_online(user.im_address)
        user.set_present(False)
        assert not world.im.presence.is_online(user.im_address)
        user.set_present(True)
        assert world.im.presence.is_online(user.im_address)

    def test_duplicate_detection_across_channels(self):
        world = make_world()
        user = world.create_user("u", present=True)
        alert = self._alert(world, alert_id="same-alert")
        send_alert_im(world, user, alert)
        world.email.send("s@mail", user.email_address, alert.subject,
                         alert.encode(), correlation=alert.alert_id)
        world.run(until=60.0)
        assert len(user.receipts) == 2
        assert user.duplicates_discarded() == 1
        assert user.unique_alerts_received() == {"same-alert"}

    def test_sms_truncated_alert_recorded_via_correlation(self):
        world = make_world()
        user = world.create_user("u", present=True)
        alert = self._alert(world)
        world.sms.send("simba", user.phone_number,
                       "X" * 300, correlation=alert.alert_id)
        world.run(until=60.0)
        assert [r.channel for r in user.receipts] == [ChannelType.SMS]
        assert user.receipts[0].alert_id == alert.alert_id

    def test_non_alert_im_ignored(self):
        world = make_world()
        user = world.create_user("u", present=True)
        world.im.register_account("friend@im")
        session = world.im.login("friend@im")
        session.send(user.im_address, "hey, lunch?")
        world.run(until=30.0)
        assert user.receipts == []

    def test_reconnect_after_outage(self):
        world = make_world()
        user = world.create_user("u", present=True)
        world.run(until=5.0)
        world.im.outage(2 * MINUTE)
        world.run(until=10 * MINUTE)
        assert world.im.presence.is_online(user.im_address)

    def test_receipts_for_and_counts(self):
        world = make_world()
        user = world.create_user("u", present=True)
        a1 = self._alert(world, "a1")
        a2 = self._alert(world, "a2")
        send_alert_im(world, user, a1)
        send_alert_im(world, user, a2)
        world.run(until=60.0)
        assert len(user.receipts_for("a1")) == 1
        assert user.messages_received() == 2


class TestRejuvenationScheduling:
    def test_before_target_same_day(self):
        assert until(0.0, DEFAULT_NIGHTLY_TIME) == DEFAULT_NIGHTLY_TIME

    def test_after_target_wraps_to_next_day(self):
        now = DEFAULT_NIGHTLY_TIME + HOUR  # half past midnight-ish
        assert until(now, DEFAULT_NIGHTLY_TIME) == DAY - HOUR

    def test_exactly_at_target_waits_a_full_day(self):
        """The nightly loop must not re-fire at the instant it woke up."""
        assert until(DEFAULT_NIGHTLY_TIME, DEFAULT_NIGHTLY_TIME) == DAY

    def test_day_offsets_are_irrelevant(self):
        assert until(3 * DAY + HOUR, DEFAULT_NIGHTLY_TIME) == until(
            HOUR, DEFAULT_NIGHTLY_TIME
        )

    def test_midnight_target_boundary(self):
        assert until(0.0, 0.0) == DAY
        assert until(DAY - 1.0, 0.0) == 1.0

    def test_target_outside_a_day_rejected(self):
        with pytest.raises(ValueError):
            until(0.0, DAY)
        with pytest.raises(ValueError):
            until(0.0, -1.0)

    def test_keyword_matching(self):
        policy = RejuvenationPolicy()
        assert policy.matches_keyword(f"please {DEFAULT_KEYWORD} now")
        assert not policy.matches_keyword("please restart now")
        assert not policy.matches_keyword(DEFAULT_KEYWORD.lower())

    def test_extra_keywords(self):
        policy = RejuvenationPolicy(keywords={"KICK-ME", DEFAULT_KEYWORD})
        assert policy.matches_keyword("KICK-ME")
