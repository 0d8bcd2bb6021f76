"""The mailbox readers handle what the receive loops handled, when they did.

``SimbaEndpoint`` and ``UserEndpoint`` read their mailboxes with one-shot
readers (DESIGN §6d); ``tests/receive_loops.py`` keeps the generator
processes they replaced.  One drawn script — arrivals on every channel,
bursts while a reader is busy (the pre-ack log write, a replication ship,
the user's reaction), endpoint stops and restarts, a hung email client,
user sessions that end — runs once against each.  Each reader must
handle the same messages as its loop, in the same order, at the same
simulated instants.

Same instant, not the same dispatch: an idle reader takes a message in
the dispatch that put it, where a loop took it one zero-delay hop later.
So within one instant two readers' handlings — two channels, or two
generations of one — may interleave in another order than two loops'
did.  What is compared is therefore, per channel, the order messages are
taken in (arrival order) and each message's handlings with their
instants.  Two things tell a reader from its loop, and each has its own
test below: a stop landing between the put and the hop (the script's
lifecycle steps land half a grid step off every arrival, so it never
does), and a burst landing on a stopped generation's loop still parked
beside its successor's, which read the burst out of order.  A reader
always reads in arrival order; where the loops did not, the drawn script
is not compared.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clients import Screen
from repro.core import Alert, SimbaEndpoint
from repro.core.endpoint import make_ack_body
from repro.core.user_endpoint import UserEndpoint
from repro.errors import AutomationError
from repro.net import EmailService, IMService, LatencyModel, SMSGateway
from repro.sim import Environment, RngRegistry
from repro.sim.stores import Store
from tests.receive_loops import receive_loops

#: No jitter: arrivals of messages sent on one grid instant tie, and each
#: channel delivers in send order.
FAST = LatencyModel(median=0.3, sigma=0.0, low=0.0, high=10.0)
#: The pre-ack hook's log write (MAB's ``DEFAULT_WRITE_LATENCY``).
LOG_WRITE = 0.5

ARRIVALS = (
    "im_alert", "im_command", "im_ack", "im_garbled", "email_alert",
    "email_command", "user_alert",
)
#: Lifecycle steps: they run ``OFF_GRID`` after their step's instant.
LIFECYCLE = (
    "stop", "start", "restart", "hang_email", "fix_email", "user_leave",
    "user_return", "user_kick",
)
OFF_GRID = 0.05


class RecordingStore(Store):
    """MAB's alert inbox, logging each put."""

    __slots__ = ("log",)

    def put(self, item):
        sent = number(item.alert.alert_id)
        self.log.append(("inbox", self.env.now, sent, item.via.value))
        super().put(item)


def number(text):
    """The send number every scripted message carries last."""
    return int(text.rsplit("-", 1)[1])


def run_script(script, ships, seed, off_grid=OFF_GRID):
    """Run ``script`` (``(delay, action)`` steps) and return what each
    reader handled and what was left."""
    env = Environment()
    rngs = RngRegistry(seed=seed)
    im = IMService(env, rngs.stream("im"), latency=FAST)
    email = EmailService(
        env, rngs.stream("email"), latency=FAST, loss_probability=0.0
    )
    sms = SMSGateway(env, rngs.stream("sms"), latency=FAST,
                     loss_probability=0.0)
    node = SimbaEndpoint(env, "node", Screen(env), im, email, sms,
                         "node@im", "node@mail")
    node.monkey_enabled = False
    user = UserEndpoint(env, "user", im, email, sms, "user@im", "user@mail",
                        "+1", rng=rngs.stream("user"))
    log = []
    inbox = node.alert_inbox = RecordingStore(env)
    inbox.log = log
    done = env.event()
    done.succeed()

    def pre_ack(incoming):
        sent = number(incoming.alert.alert_id)
        log.append(("pre_ack", env.now, sent, incoming.via.value))
        if incoming.seq is None:
            return
        yield env.timeout(LOG_WRITE)
        ship = ships[sent % len(ships)]
        if ship is None:
            yield done  # already processed: the wait re-arms
        elif ship:
            yield env.timeout(ship)

    node.pre_ack_hook = pre_ack
    node.command_handler = lambda m: log.append(
        ("command", env.now, number(m.body), m.channel.value)
    )
    resolve = node.engine.acks.resolve

    def resolving(peer, seq):
        log.append(("ack", env.now, seq, "IM"))
        return resolve(peer, seq)

    node.engine.acks.resolve = resolving
    im.register_account("peer@im")
    peer = im.login("peer@im")
    sends = iter(range(1, 10**6))

    def alert():
        return Alert("s", "k", "subj", "b", env.now,
                     alert_id=f"a-{next(sends)}").encode()

    def act(action):
        if action == "im_alert":
            peer.send("node@im", alert())
        elif action == "im_command":
            peer.send("node@im", f"hello-{next(sends)}")
        elif action == "im_ack":
            peer.send("node@im", make_ack_body(next(sends)))
        elif action == "im_garbled":
            peer.send("node@im", alert()[:-9])
        elif action == "email_alert":
            email.send("peer@mail", "node@mail", "s", alert())
        elif action == "email_command":
            email.send("peer@mail", "node@mail", "s", f"hello-{next(sends)}")
        elif action == "user_alert":
            if im.presence.is_online("user@im"):
                peer.send("user@im", alert())
        elif action == "stop":
            node.stop()
        elif action == "start":
            node.start()
        elif action == "restart":
            node.stop()
            node.start()
        elif action == "hang_email":
            node.email_client.hang()
        elif action == "fix_email":
            node.email_manager.restart()
        elif action == "user_leave":
            user.set_present(False)
        elif action == "user_return":
            user.set_present(True)
        elif action == "user_kick":
            im.force_logout("user@im")

    def driver():
        node.start()
        user.start()
        for delay, action in script:
            if delay:
                yield env.timeout(delay)
            if action in LIFECYCLE and off_grid:
                env.timeout(off_grid).callbacks.append(
                    lambda _timer, action=action: act(action)
                )
            else:
                act(action)

    env.process(driver())
    env.run(until=sum(delay for delay, _ in script) + 120.0)
    box = email.mailbox("node@mail")
    return {
        "IM": [entry[:3] for entry in log if entry[3] == "IM"],
        "EM": [entry[:3] for entry in log if entry[3] == "EM"],
        "receipts": [(r.alert_id, r.channel.value, r.at)
                     for r in user.receipts],
        "peer": sorted((m.created_at, m.body) for m in peer.inbox.items),
        "corrupt": (node.corrupt_discarded, user.corrupt_discarded),
        "left": [m.body for m in node.im_client.incoming.items],
        "unread": [m.body for m in box.peek_unread()],
        "read": [m.body for m in box.read],
    }


def sent_number(body):
    """A left-over message's send number (a garbled alert keeps its id)."""
    if body.startswith("SIMBA-ACK"):
        return int(body.split()[1])
    if Alert.is_alert_payload(body):
        return number(body.split("\nid=", 1)[1].split("\n", 1)[0])
    return number(body)


def in_arrival_order(run):
    """Whether each of the endpoint's channels was taken in send order,
    ahead of what it left queued, also in send order."""
    orders = [
        [sent for kind, _at, sent in run[channel] if kind != "inbox"]
        + [sent_number(body) for body in run[queue]]
        for channel, queue in (("IM", "left"), ("EM", "unread"))
    ]
    return all(order == sorted(order) for order in orders)


def handled(run):
    """``run`` with each channel's handlings as a multiset of ``(kind,
    instant, message)``: in arrival order, only instants can tell two
    runs apart."""
    return {**run, "IM": sorted(run["IM"]), "EM": sorted(run["EM"])}


#: A script step: a delay on a 0.1 s grid (0 = the same instant as the
#: step before, a burst), then an action.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 1.0, 2.5, 40.0]),
        st.sampled_from(ARRIVALS + LIFECYCLE),
    ),
    min_size=1,
    max_size=40,
)
#: Per alert, what the hook waits after the log write: nothing, an
#: already-processed event (None), or a ship of that many seconds.
ship_delays = st.lists(
    st.sampled_from([0.0, None, 0.2, 0.3, 1.7]), min_size=1, max_size=5
)


@settings(max_examples=200, deadline=None)
@given(script=steps, ships=ship_delays, seed=st.integers(0, 3))
def test_readers_handle_what_the_loops_handled_when_they_did(
    script, ships, seed
):
    with receive_loops():
        loops = run_script(script, ships, seed)
    readers = run_script(script, ships, seed)
    assert in_arrival_order(readers)
    assume(in_arrival_order(loops))
    assert handled(readers) == handled(loops)


def test_the_script_reaches_every_reader_path(monkeypatch):
    """The actions exercise what they are meant to: a burst queues behind a
    busy reader and is read by hops, the pre-ack hook re-arms on a
    processed event, a stale generation hands its message on, the email
    reader retries behind a hung client, the user acks, and a session's
    end detaches its reader."""
    from repro.clients.email_client import EmailClient
    from repro.core import endpoint, user_endpoint
    from repro.sim.stores import Reader

    script = [
        (0.0, "im_alert"), (0.0, "im_alert"), (0.0, "im_command"),
        (0.1, "email_alert"), (0.3, "restart"), (0.0, "im_alert"),
        (0.5, "stop"), (0.0, "email_alert"), (1.0, "start"),
        (1.0, "hang_email"), (0.0, "email_alert"), (3.0, "fix_email"),
        (0.0, "user_alert"), (0.0, "user_alert"), (5.0, "user_alert"),
        (0.5, "user_kick"),
    ]
    with receive_loops():
        loops = run_script(script, [0.3, None], 0)
    calls = {}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            try:
                return method(*args, **kwargs)
            except AutomationError:
                calls["refused"] = calls.get("refused", 0) + 1
                raise
            finally:
                calls[name] = calls.get(name, 0) + 1

        monkeypatch.setattr(cls, name, wrapper)

    counted(Reader, "_hop")
    counted(endpoint._Receiver, "hand_back")
    counted(endpoint._EmailReceiver, "hand_back")
    counted(endpoint.Stepper, "_resume")
    counted(EmailClient, "read_next")
    counted(user_endpoint._IMReader, "_react")
    counted(user_endpoint._IMReader, "end")
    readers = run_script(script, [0.3, None], 0)
    assert readers == loops
    assert [entry[0] for entry in readers["IM"] + readers["EM"]].count(
        "inbox"
    ) == 6
    assert len(readers["receipts"]) == 3
    assert calls == {
        "_hop": 5,  # backlogs read behind a busy reader
        "_resume": 6,  # pre-ack waits, two of them re-armed
        "hand_back": 2,  # stale generations
        "read_next": 8,
        "refused": 2,  # the hung email client, retried
        "_react": 3,  # the user's reactions
        "end": 1,  # the kicked session
    }


def test_a_stop_in_the_arrival_instant_finds_the_message_taken():
    """A stop in the instant an email arrives, after its arrival: the
    reader took the email in the arrival's own dispatch, as its running
    generation's; the loop's wake-up hop came after the stop, so the
    stale loop put it back unread."""
    script = [(0.0, "email_alert"), (0.3, "stop")]
    with receive_loops():
        loops = run_script(script, [0.0], 0, off_grid=0.0)
    readers = run_script(script, [0.0], 0, off_grid=0.0)
    assert readers["EM"] == [("pre_ack", 0.3, 1), ("inbox", 0.3, 1)]
    assert readers["unread"] == []
    assert loops["EM"] == []
    assert loops["unread"] == readers["read"]


def test_a_burst_behind_a_stale_loop_is_read_in_order():
    """Two IMs in one instant after a restart: the stopped generation's
    loop, parked ahead of its successor's, took the first and handed it
    back a hop later, after the successor had taken the second — the
    loops read the burst out of order.  The stale reader hands the first
    on in the put's own dispatch, so the readers read it in order."""
    script = [(0.0, "im_alert"), (0.0, "im_alert"), (0.0, "restart")]
    with receive_loops():
        loops = run_script(script, [0.0], 0)
    readers = run_script(script, [0.0], 0)
    in_order = [
        ("pre_ack", 0.3, 1), ("inbox", 0.8, 1),
        ("pre_ack", 0.8, 2), ("inbox", 1.3, 2),
    ]
    assert readers["IM"] == in_order
    assert loops["IM"] == [(kind, at, 3 - sent) for kind, at, sent in in_order]
    assert in_arrival_order(readers) and not in_arrival_order(loops)
