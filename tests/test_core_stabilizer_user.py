"""Unit tests for SelfStabilizer, RejuvenationPolicy and UserEndpoint."""

import math
import random
from unittest import mock

import pytest

import repro.world as world_module
from repro.core import Alert
from repro.core.rejuvenation import (
    DEFAULT_KEYWORD,
    DEFAULT_NIGHTLY_TIME,
    RejuvenationPolicy,
)
from repro.core.stabilizer import SelfStabilizer
from repro.core.user_endpoint import RECONNECT_INTERVAL, UserEndpoint
from repro.errors import ChannelError
from repro.net import ChannelType, LatencyModel
from repro.sim import DAY, Environment, HOUR, MINUTE
from repro.sim.clock import delay_until
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

    def test_an_infinite_interval_joins_no_cohort(self):
        env = Environment()
        stabilizer = SelfStabilizer(env)
        stabilizer.add_task("never", math.inf, lambda: [])
        stabilizer.add_task("t", 10.0, lambda: [])
        stabilizer.start()
        assert len(stabilizer._members) == 1
        env.run(until=25.0)
        assert stabilizer.records.keys() == {"t"}

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

    def _cut_before_subject(self, world):
        """An alert whose 160-character SMS cut falls before ``subject=``."""
        alert = Alert(
            source="investment-portal.example.com", keyword="Stocks",
            subject="MSFT up 3%", body="MSFT up",
            created_at=world.env.now,
            alert_id="portal-alert-2026-10-18-000000001",
        )
        text = alert.encode()
        assert len(text) == 184 and "\nsubject=" not in text[:160]
        return alert

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sms_cut_before_subject_recorded_via_correlation(self, seed):
        world = SimbaWorld(WorldConfig(seed=seed, sms_latency=FIXED,
                                       sms_loss=0.0))
        user = world.create_user("u", present=True)
        alert = self._cut_before_subject(world)
        world.sms.send("simba", user.phone_number, alert.encode(),
                       correlation=alert.alert_id)
        world.run(until=60.0)
        assert [r.alert_id for r in user.receipts] == [alert.alert_id]
        assert user.receipts[0].channel is ChannelType.SMS

    def test_sms_cut_without_correlation_is_counted(self):
        world = make_world()
        user = world.create_user("u", present=True)
        alert = self._cut_before_subject(world)
        world.sms.send("simba", user.phone_number, alert.encode())
        world.run(until=60.0)
        assert user.receipts == []
        assert user.corrupt_discarded == 1

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


# ----------------------------------------------------------------------
# The reconnect poll sleeps: equivalence with the always-ticking poll
# ----------------------------------------------------------------------


class AlwaysTickingUser(UserEndpoint):
    """The reconnect poll before it could sleep: a cohort member that ticks
    every period and logs in whenever the user is present without a live
    session."""

    def start(self):
        if self._started:
            return
        self._started = True
        if self._present:
            self._login()
        self.sms_gateway.phone(self.phone_number).hook = self._on_sms
        self.email_service.mailbox(self.email_address).hook = self._on_mail
        self._start_poll()

    def _start_poll(self):
        self.env.every(RECONNECT_INTERVAL, self._reconnect)

    def set_present(self, present):
        if present == self._present:
            return
        self._present = present
        if not self._started:
            return
        if present:
            self._login()
        elif self._session is not None and self._session.active:
            self._session.logout()
            self._session = None

    def _sync_poll(self):
        pass  # an always-ticking poll has nothing to wake or put to sleep

    def _reconnect(self, _now):
        session_dead = self._session is None or not self._session.active
        if self._present and session_dead and self.im_service.available:
            self._login()


class TickingUserRearmedWhenDue(AlwaysTickingUser):
    """The always-ticking poll as its own timer chain, armed from a
    zero-delay kick like a cohort's.  When its user becomes due (present
    without a live session), the chain is re-armed at the first grid
    instant strictly after now, as a woken poll alone in its cohort is.
    The always-ticking poll differs from this only on the ties of DESIGN
    §6b."""

    def _start_poll(self):
        self._timer = self._last = None
        self.im_service.presence.watch(self._on_presence)
        kick = self.env.event()
        kick.callbacks.append(self._tick)
        kick.succeed()

    def _tick(self, event):
        if self._timer is not None:
            self._reconnect(self.env.now)
        self._last = self.env.now
        self._arm(self.env.timeout(RECONNECT_INTERVAL))

    def _arm(self, timer):
        timer.callbacks.append(self._tick)
        self._timer = timer

    def _due(self):
        if self._timer is None:  # the kick arms it
            return
        self._timer.cancel()
        now, at = self.env.now, self._last + RECONNECT_INTERVAL
        while at <= now:
            at += RECONNECT_INTERVAL
        self._arm(self.env.timeout(delay_until(now, at)))

    def _on_presence(self, address, online):
        if address == self.im_address and not online and self._present:
            self._due()

    def set_present(self, present):
        was = self._present
        super().set_present(present)
        if present and not was and self._started and self._session is None:
            self._due()


def poll_plan(seed):
    """Actions after gaps shorter and longer than one period, many landing
    on the poll's 30 s grid: alerts, IM outages, force-logouts, presence
    flips, and arrivals while the service is down.  An outage ends off the
    grid: tie (a) is pinned by
    :func:`test_a_woken_poll_ticks_after_what_its_instant_already_holds`."""
    rng = random.Random(seed)
    plan, now = [], 0.0
    for _ in range(60):
        grid = (math.floor(now / RECONNECT_INTERVAL) + 1) * RECONNECT_INTERVAL
        now = rng.choice([
            now + rng.uniform(0.1, RECONNECT_INTERVAL),
            now + RECONNECT_INTERVAL,
            grid,
            grid,
            now + rng.uniform(RECONNECT_INTERVAL, 3 * RECONNECT_INTERVAL),
            grid + rng.randint(1, 3) * RECONNECT_INTERVAL,
        ])
        kind = rng.choice(["alert", "alert", "outage", "logout", "leave",
                           "arrive", "arrive_in_outage"])
        plan.append((now, kind, now + rng.uniform(1.0, 90.0)))
    return plan


def run_poll_plan(seed, user_class):
    """One world driven by :func:`poll_plan`; everything the two polls must
    agree on, the sleeping poll's state after each action, and the user."""
    world = SimbaWorld(WorldConfig(seed=seed))
    with mock.patch.object(world_module, "UserEndpoint", user_class):
        user = world.create_user("u")
    im = world.im
    im.register_account("tester@im")
    presence, asleep = [], []
    im.presence.watch(
        lambda address, online: presence.append((im.env.now, address, online))
    )

    def act(kind, until, k):
        if kind == "alert":
            tester = im.session_for("tester@im")
            try:
                if tester is None:
                    tester = im.login("tester@im")
                alert = Alert(source="s", keyword="k", subject=f"s{k}",
                              body="b", created_at=im.env.now,
                              alert_id=f"a{k}")
                tester.send(user.im_address, alert.encode(),
                            correlation=alert.alert_id)
            except ChannelError:
                pass
        elif kind == "outage":
            im.outage(until - im.env.now)
        elif kind == "logout":
            im.force_logout(user.im_address)
        elif kind == "leave":
            user.set_present(False)
        elif kind == "arrive":
            user.set_present(True)
        else:  # a login that fails: the user arrives during an outage
            user.set_present(False)
            im.outage(until - im.env.now)
            user.set_present(True)

    def driver(env):
        for k, (at, kind, until) in enumerate(poll_plan(seed)):
            yield env.timeout(at - env.now)
            act(kind, until, k)
            poll = getattr(user, "_poll", None)
            if poll is not None:
                session = user._session
                idle = not (user.present
                            and (session is None or not session.active))
                asleep.append(poll.asleep == idle)

    world.env.process(driver(world.env))
    world.run(until=poll_plan(seed)[-1][0] + 200.0)
    seen = (presence, user.receipts, user.rng.bit_generator.state,
            im.rng.bit_generator.state, im.stats.submitted)
    return seen, asleep, user


@pytest.mark.parametrize("seed", range(30))
def test_the_sleeping_reconnect_poll_matches_the_ticking_one(seed):
    got, asleep, _ = run_poll_plan(seed, UserEndpoint)
    want, _, _ = run_poll_plan(seed, TickingUserRearmedWhenDue)
    assert got == want
    assert asleep and all(asleep)  # asleep exactly while it cannot log in


def test_the_poll_plans_reach_the_ties():
    """Some plans put an action on the instant a woken poll's first tick
    shares with it, where the always-ticking poll breaks the tie the other
    way: the plans do not steer round the ties."""
    assert any(run_poll_plan(seed, AlwaysTickingUser)[0]
               != run_poll_plan(seed, UserEndpoint)[0] for seed in range(30))


@pytest.mark.parametrize("user_class, login_at", [
    (UserEndpoint, 60.0),
    (AlwaysTickingUser, 90.0),
])
def test_a_woken_poll_ticks_after_what_its_instant_already_holds(
    user_class, login_at
):
    """Tie (a), order at the grid instant (DESIGN §6b).  Absent at 30 s
    (the poll sleeps), the user arrives at 35 s into an IM outage that began
    at 31 s and ends at 60 s, on the poll's grid.  The ticking poll's 60 s
    tick was queued at 30 s, before the outage's end: it finds the service
    down.  The woken poll's tick is queued at 35 s, after it: it logs in."""
    world = SimbaWorld(WorldConfig(seed=1))
    with mock.patch.object(world_module, "UserEndpoint", user_class):
        user = world.create_user("u", present=False)
    world.run(until=31.0)
    world.im.outage(29.0)
    world.run(until=35.0)
    user.set_present(True)
    logins = []
    world.im.presence.watch(
        lambda address, online: logins.append(world.env.now)
    )
    world.run(until=100.0)
    assert logins == [login_at]


@pytest.mark.parametrize("user_class, queued_at, login_at", [
    (UserEndpoint, 20.0, 90.0),
    (AlwaysTickingUser, 20.0, 60.0),
    (UserEndpoint, 45.0, 90.0),
    (AlwaysTickingUser, 45.0, 90.0),
])
def test_a_poll_woken_on_its_grid_ticks_a_period_later(
    user_class, queued_at, login_at
):
    """Tie (b), a wake on the grid (DESIGN §6b).  A force-logout ends the
    session at 60 s.  Queued at 20 s, before the 30 s tick queued the 60 s
    one, it runs first: the ticking poll's 60 s tick then logs in, while
    the woken poll's next tick is at 90 s.  Queued at 45 s, it runs after
    the 60 s tick, and both polls log in at 90 s."""
    world = SimbaWorld(WorldConfig(seed=1))
    with mock.patch.object(world_module, "UserEndpoint", user_class):
        user = world.create_user("u")
    world.run(until=queued_at)
    logout = world.env.timeout(60.0 - queued_at)
    logout.callbacks.append(lambda _: world.im.force_logout(user.im_address))
    logins = []

    def watch(address, online):
        if online:
            logins.append(world.env.now)

    world.im.presence.watch(watch)
    world.run(until=100.0)
    assert logins == [login_at]
