"""Hop budget: what one delivered alert may cost in processes and resumes.

A ``Process`` is for code that suspends on something that can take
simulated time or be interrupted (DESIGN §6d); a hop that only forwards a
message is a callback on the event.  This test counts, on the 20-user
golden farm, every ``Process`` spawned and every generator resume by the
generator's qualname — from outside, by wrapping ``Process.__init__`` and
the captured ``generator.send``/``throw`` — and pins the alert path
exactly, so a forwarding process cannot creep back unnoticed.  The counts
are a pure function of the scenario (both scheduler backends agree).
"""

from collections import Counter

import pytest

from repro.sim.process import Process
from tests.golden_farm import N_USERS, run_golden_farm

#: Alerts the golden-farm driver emits: two rounds over every tenant plus
#: the unmapped, rejected, duplicated and crash-replayed ones.
EMITTED = 2 * N_USERS + 4
DELIVERED = 42

#: Spawns over the whole run.  Only ``AlertSource.deliver`` scales with
#: alerts; everything else is lifecycle (launches, the one crash/relaunch).
EXPECTED_SPAWNS = {
    "AlertSource.deliver": EMITTED,
    "MonkeyThread._loop": 46,
    "MyAlertBuddy._main": 21,
    "MyAlertBuddy._nightly": 21,
    "SelfStabilizer._loop": 42,
    "SimbaEndpoint._email_loop": 23,
    "SimbaEndpoint._im_loop": 23,
    "SimbaEndpoint._maintenance_loop": 2,
    "UserEndpoint._im_loop": N_USERS,
    "UserEndpoint._mail_loop": N_USERS,
    "UserEndpoint._phone_loop": N_USERS,
    "UserEndpoint._reconnect_loop": N_USERS,
    "run_golden_farm.<locals>.driver": 1,
}

#: Resumes of the processes an alert passes through (the idle loops —
#: monkey, stabilizer, reconnect, maintenance — tick with simulated time,
#: not with alerts, and are only bounded by the total below).
EXPECTED_ALERT_PATH_RESUMES = {
    "AlertSource.deliver": 2 * EMITTED,  # kick-off + the ack-vs-timeout race
    "SimbaEndpoint._im_loop": 199,
    "SimbaEndpoint._email_loop": 24,
    "MyAlertBuddy._main": 197,
    "UserEndpoint._im_loop": 106,
}
TOTAL_RESUMES = 6175


@pytest.fixture(scope="module")
def hop_counts():
    spawns: Counter = Counter()
    resumes: Counter = Counter()
    original_init = Process.__init__

    def counting_init(self, env, generator, name=None):
        original_init(self, env, generator, name)
        qualname = generator.__qualname__
        spawns[qualname] += 1
        send, throw = self._send, self._throw

        def counted_send(value):
            resumes[qualname] += 1
            return send(value)

        def counted_throw(*args):
            resumes[qualname] += 1
            return throw(*args)

        self._send = counted_send
        self._throw = counted_throw

    Process.__init__ = counting_init
    try:
        farm = run_golden_farm()
    finally:
        Process.__init__ = original_init
    assert farm.delivery_summary()["received"] == DELIVERED
    return spawns, resumes


def test_one_spawn_per_alert_and_no_forwarding_processes(hop_counts):
    spawns, _resumes = hop_counts
    forwarding = [
        name for name in spawns if name.endswith(("_deliver", "_pump"))
    ]
    assert forwarding == []
    assert dict(spawns) == EXPECTED_SPAWNS


def test_alert_path_resumes_are_pinned(hop_counts):
    _spawns, resumes = hop_counts
    measured = {name: resumes[name] for name in EXPECTED_ALERT_PATH_RESUMES}
    assert measured == EXPECTED_ALERT_PATH_RESUMES
    per_alert = sum(measured.values()) / DELIVERED
    assert per_alert < 15  # 35 before message transit left the processes
    assert sum(resumes.values()) <= TOTAL_RESUMES
