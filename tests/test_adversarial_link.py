"""Unit tier for the adversarial link surface.

Exercises :class:`~repro.sim.link.HostLink` directly — two bare hosts, one
pipe — against each :class:`~repro.net.adversary.AdversaryModel` knob in
isolation, pins the accounting contract (``submitted == delivered + lost``
for anything that entered the pipe, ``rejected`` alone for a pre-flight
refusal).  That the benign adversary changes nothing is the
``adversary_off`` row of ``tests/test_knob_invariance.py``.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.core.host import Host
from repro.net.adversary import AdversaryModel
from repro.net.channel import LatencyModel
from repro.sim.kernel import Environment
from repro.sim.link import HostLink

#: Degenerate latency so arrival times expose adversary delays exactly.
FIXED = LatencyModel(median=0.1, sigma=0.0, low=0.1, high=0.1)


def make_link(seed=7, adversary=None, **kwargs):
    env = Environment()
    src = Host(env, name="primary")
    dst = Host(env, name="standby")
    link = HostLink(env, src, dst, rng=np.random.default_rng(seed), **kwargs)
    if adversary is not None:
        link.set_adversary(adversary)
    return env, link


def ship_serially(env, link, payloads, on_receive=None, gap=10.0):
    """Drive ``link.ship`` once per payload, ``gap`` seconds apart.

    Returns the list of transport acks (one per ship round trip).
    """
    acks = []

    def driver():
        for payload in payloads:
            ack = yield from link.ship(payload, on_receive=on_receive)
            acks.append(ack)
            yield env.timeout(gap)

    env.process(driver(), name="ship-driver")
    env.run()
    return acks


# ---------------------------------------------------------------------------
# Accounting contract
# ---------------------------------------------------------------------------


def test_submitted_splits_exactly_into_delivered_and_lost():
    env, link = make_link(seed=11, loss_probability=0.4)
    acks = ship_serially(env, link, list(range(200)))
    stats = link.stats
    assert stats.submitted == 200
    assert stats.submitted == stats.delivered + stats.lost
    assert stats.rejected == 0
    assert 0 < stats.lost < 200
    assert sum(acks) == stats.delivered


def test_preflight_refusal_charges_rejected_only():
    env, link = make_link(seed=3)
    link.set_available(False)
    acks = ship_serially(env, link, ["r1", "r2"])
    assert acks == [False, False]
    assert link.stats.rejected == 2
    assert link.stats.submitted == 0
    assert link.stats.lost == 0


def test_mid_flight_outage_charges_lost_not_silence():
    """The old ``transfer`` dropped mid-flight outage packets without any
    counter; the unified exit must charge exactly one ``lost``."""
    env, link = make_link(seed=5, latency=FIXED)

    def saboteur():
        yield env.timeout(0.05)
        link.set_available(False)

    env.process(saboteur(), name="saboteur")
    acks = ship_serially(env, link, ["only"])
    assert acks == [False]
    assert link.stats.submitted == 1
    assert link.stats.lost == 1
    assert link.stats.delivered == 0


def test_dark_destination_charges_lost():
    env, link = make_link(seed=5, latency=FIXED)
    link.dst.power_failure(1000.0)
    acks = ship_serially(env, link, ["into-the-dark"])
    assert acks == [False]
    assert link.stats.submitted == 1
    assert link.stats.lost == 1
    assert link.stats.delivered == 0


# ---------------------------------------------------------------------------
# Adversary knobs, one at a time
# ---------------------------------------------------------------------------


def test_reorder_delay_is_bounded_by_horizon():
    horizon = 5.0
    env, link = make_link(
        seed=23, latency=FIXED,
        adversary=AdversaryModel(reorder_probability=1.0,
                                 reorder_horizon=horizon),
    )
    arrivals = []
    ship_serially(
        env, link, list(range(50)),
        on_receive=lambda pkt: arrivals.append(env.now - pkt.sent_at),
    )
    assert len(arrivals) == 50
    assert link.adversary_stats.reordered == 50
    for transit in arrivals:
        assert FIXED.median <= transit <= FIXED.median + horizon
    # The hold-back is U(0, horizon], not degenerate.
    assert max(arrivals) > FIXED.median
    assert len(set(arrivals)) > 1


def test_duplicate_copies_ride_independent_latencies():
    env, link = make_link(
        seed=29,
        adversary=AdversaryModel(duplicate_probability=1.0, duplicate_max=4),
    )
    packets = []
    ship_serially(
        env, link, ["amplified"],
        on_receive=lambda pkt: packets.append((pkt, env.now)),
    )
    primaries = [(p, at) for p, at in packets if not p.duplicate]
    copies = [(p, at) for p, at in packets if p.duplicate]
    assert len(primaries) == 1
    assert 1 <= len(copies) <= 3
    # Copies are adversary traffic: primary-stream accounting untouched.
    assert link.stats.submitted == 1
    assert link.stats.delivered == 1
    assert link.adversary_stats.duplicates_injected == len(copies)
    assert link.adversary_stats.duplicates_delivered == len(copies)
    # Every copy carries the same payload and send stamp but its own delay.
    sent = primaries[0][0].sent_at
    assert all(p.payload == "amplified" and p.sent_at == sent
               for p, _ in packets)
    assert len({at for _, at in packets}) == len(packets)


def test_corrupt_flag_reaches_receiver_and_nack_rides_the_ack():
    env, link = make_link(
        seed=31, latency=FIXED,
        adversary=AdversaryModel(corrupt_probability=1.0),
    )
    packets = []

    def receive(pkt):
        packets.append(pkt)
        return not pkt.corrupt  # NACK corrupt frames

    acks = ship_serially(env, link, ["tainted"], on_receive=receive)
    assert [p.corrupt for p in packets] == [True]
    assert acks == [False]  # receiver's NACK came back through the round trip
    assert link.adversary_stats.corrupt_injected == 1
    # The frame *arrived*; rejection is the receiver's, not the pipe's.
    assert link.stats.delivered == 1
    assert link.stats.lost == 0


def test_pulse_reverts_to_ambient_adversary():
    env, link = make_link(seed=2)
    ambient = AdversaryModel(duplicate_probability=0.2)
    link.set_adversary(ambient)
    burst = AdversaryModel(reorder_probability=0.25, corrupt_probability=0.15)
    link.adversary_pulse(burst, 10.0)
    assert link.adversary == burst
    env.run(until=11.0)
    assert link.adversary == ambient


def test_models_round_trip_through_their_dict_form():
    """Fingerprints and reproducer pins store a config as ``asdict``: the
    values the models compute once (``enabled``, ``mu``) are no fields,
    so the dict holds the knobs only and rebuilds an equal model."""
    adversary = AdversaryModel(reorder_probability=0.3, corrupt_probability=0.1)
    again = AdversaryModel(**asdict(adversary))
    assert again == adversary and again.enabled
    assert not AdversaryModel.off().enabled
    latency = LatencyModel(median=0.03, sigma=0.5, low=0.005, high=1.0)
    assert LatencyModel(**asdict(latency)) == latency
