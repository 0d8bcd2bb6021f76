"""The array-backed :class:`AckTable` classifies every ack exactly as a
dict keyed by (peer, seq) does.

``DictAckTable`` is that dict table: one ``(peer, seq) -> acked`` entry
per key ever expected.  Drawn scripts drive both tables through a
sender's sessions over two or three peers: sends at the session's next
seq, sends that await no ack, session restarts that reuse seqs, expects
at any seq (below the lowest seen, and at one seq for two peers), acks
and cancels of keys drawn at random, so acks after a cancel (late),
second acks (duplicate) and acks nobody expected (unsolicited) all
occur.  After every step both give the same return value, the same four
counts and the same number of open waits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.router import AckTable
from repro.sim import Environment


class DictAckTable:
    """The ack table as one dict entry per (peer, seq) ever expected."""

    def __init__(self, env):
        self.env = env
        self._pending = {}
        self._acked = {}
        self.resolved_count = 0
        self.late_count = 0
        self.duplicate_count = 0
        self.unsolicited_count = 0

    def expect(self, peer, seq):
        event = self.env.event()
        self._pending[(peer, seq)] = event
        self._acked[(peer, seq)] = False
        return event

    def resolve(self, peer, seq):
        key = (peer, seq)
        event = self._pending.pop(key, None)
        if event is None or event.triggered:
            acked = self._acked.get(key)
            if acked:
                self.duplicate_count += 1
            elif acked is None:
                self.unsolicited_count += 1
            else:
                self.late_count += 1
                self._acked[key] = True
            return False
        event.succeed(self.env.now)
        self.resolved_count += 1
        self._acked[key] = True
        return True

    def cancel(self, peer, seq):
        self._pending.pop((peer, seq), None)


def observe(table):
    return (
        table.resolved_count, table.late_count, table.duplicate_count,
        table.unsolicited_count, len(table._pending),
    )


#: Any seq a step may name: below the session's first (0 and -1 too),
#: inside it and past it.
SEQS = st.integers(-1, 14)


@st.composite
def scripts(draw):
    peers = [f"peer{index}" for index in range(draw(st.integers(2, 3)))]
    peer = st.sampled_from(peers)
    step = st.one_of(
        st.tuples(st.just("send"), peer),
        st.tuples(st.just("skip"), st.integers(1, 3)),
        st.tuples(st.just("restart"), st.integers(1, 3)),
        st.tuples(st.just("expect"), peer, SEQS),
        st.tuples(st.just("resolve"), peer, SEQS),
        st.tuples(st.just("ack_sent"), peer, st.integers(0, 40)),
        st.tuples(st.just("cancel"), peer, SEQS),
        st.tuples(st.just("cancel_sent"), st.integers(0, 40)),
    )
    return draw(st.lists(step, min_size=1, max_size=60))


@settings(max_examples=200, deadline=None)
@given(script=scripts())
def test_the_array_table_classifies_like_the_dict_table(script):
    env = Environment()
    table, reference = AckTable(env), DictAckTable(env)
    next_seq = 1
    sent = []  # (peer, seq) of every send that awaited an ack
    for step in script:
        kind = step[0]
        if kind == "skip":
            next_seq += step[1]
            continue
        if kind == "restart":
            next_seq = step[1]
            continue
        if kind == "send":
            key = (step[1], next_seq)
            next_seq += 1
            sent.append(key)
            kind = "expect"
        elif kind == "ack_sent":
            # An ack (late, duplicate or in time) from the peer of an
            # earlier send, or from another peer for its seq.
            if not sent:
                continue
            key = (step[1], sent[step[2] % len(sent)][1])
            kind = "resolve"
        elif kind == "cancel_sent":
            if not sent:
                continue
            key = sent[step[1] % len(sent)]
            kind = "cancel"
        else:
            key = step[1:]
        returned = getattr(table, kind)(*key)
        expected = getattr(reference, kind)(*key)
        if kind == "resolve":
            assert returned == expected, (step, key)
        assert observe(table) == observe(reference), (step, key)
