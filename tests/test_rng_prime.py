"""A primed stream is numpy's stream: :meth:`RngRegistry.prime` against
:meth:`RngRegistry.stream`'s own ``default_rng(SeedSequence(...))`` path.

``prime`` replays numpy's SeedSequence hash over a batch of names and
seeds each ``PCG64`` from the hashed words (``repro/sim/rng.py``).  The
reference is a registry nobody primed: for drawn root seeds and names, a
primed stream must hold the same ``bit_generator.state`` and give the
same first 1 000 draws.  A changed hash constant must break that (the
teeth), and a whole ``shard_fanout_cold`` tiny run must end holding the
same streams in the same states, and with the same fingerprint, with or
without priming; the senders' traffic streams, drawn once at build from
a registry of their own, are primed or numpy's and never kept.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import ShardedFarm
from repro.experiments.sharded import E13_PROFILE, E13_WORKLOAD, e13_world_config
from repro.sim import RngRegistry

DRAWS = 1000

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Any text: non-ASCII, empty, and (appended) duplicates of drawn names.
names = st.lists(st.text(max_size=12), min_size=1, max_size=8).map(
    lambda drawn: drawn + drawn[: (len(drawn) + 1) // 2]
)


def mismatches(seed: int, batch: list[str]) -> list[str]:
    """The names whose primed stream differs from the reference stream."""
    primed, reference = RngRegistry(seed), RngRegistry(seed)
    primed.prime(batch)
    wrong = []
    for name in dict.fromkeys(batch):
        ours, theirs = primed.stream(name), reference.stream(name)
        if ours.bit_generator.state != theirs.bit_generator.state or not (
            np.array_equal(ours.random(DRAWS), theirs.random(DRAWS))
        ):
            wrong.append(name)
    assert primed._primed == {}
    return wrong


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=seeds, batch=names)
def test_a_primed_stream_is_numpys_stream(seed, batch):
    assert mismatches(seed, batch) == []


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
def test_the_seed_domain_edges(seed):
    assert mismatches(seed, ["", "user-é", "buddy-用户", "e13-traffic-user7"]) == []


def test_priming_what_is_built_or_primed_changes_nothing():
    registry = RngRegistry(7)
    built = registry.stream("user-a")
    built.random(3)  # a drawn stream keeps its position
    state = built.bit_generator.state
    registry.prime(["user-a", "user-b"])
    primed = registry._primed["user-b"]
    registry.prime(["user-b", "user-a", "user-b"])
    assert registry._primed == {"user-b": primed}
    assert registry.stream("user-a") is built
    assert built.bit_generator.state == state
    assert registry.stream("user-b") is primed
    assert mismatches(7, ["user-b"]) == []


@pytest.mark.parametrize("seed", [2**32, 2**64 + 3])
def test_a_wide_root_seed_takes_numpys_path(seed):
    registry = RngRegistry(seed)
    registry.prime(["user-a"])
    assert registry._primed == {}
    expected = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(b"user-a")])
    ).bit_generator.state
    assert registry.stream("user-a").bit_generator.state == expected


def test_a_negative_root_seed_still_raises():
    registry = RngRegistry(-1)
    registry.prime(["user-a"])
    assert registry._primed == {}
    with pytest.raises(ValueError):
        registry.stream("user-a")


@pytest.mark.parametrize(
    "constant", ["_MIX_MULT_L", "_MULT_A", "_INIT_B", "_XSHIFT"]
)
def test_an_altered_hash_constant_fails_the_tier(monkeypatch, constant):
    import repro.sim.rng as rng

    monkeypatch.setattr(rng, constant, getattr(rng, constant) ^ 0x10)
    batch = ["user-a", "buddy-a", ""]
    assert mismatches(0, batch) == batch


# ---------------------------------------------------------------------------
# End of run: a tiny shard_fanout_cold, with and without priming
# ---------------------------------------------------------------------------


def end_of_run_streams(prime: bool, monkeypatch) -> tuple[dict, int, int, str]:
    """``{shard: {stream: state}}`` after an inline tiny cold fan-out run
    (two shards, 1 500 users, 600 s of traffic and a 240 s drain), how
    many streams were primed, how many sender streams were asked for, and
    the run's merged fingerprint."""
    primed = senders = 0
    original_prime = RngRegistry.prime

    def counting_prime(self, names):
        nonlocal primed, senders
        names = list(names)
        senders += sum(name.startswith("e13-traffic-") for name in names)
        if prime:
            before = len(self._primed)
            original_prime(self, names)
            primed += len(self._primed) - before

    monkeypatch.setattr(RngRegistry, "prime", counting_prime)
    farm = ShardedFarm(
        shards=2, seed=0, population=1500,
        workload=E13_WORKLOAD, workload_kwargs={"duration": 600.0},
        epoch=60.0, world_config=e13_world_config(0), profile=E13_PROFILE,
        inline=True,
    )
    with farm:
        farm.run(until=840.0)
        streams = {}
        for shard, inline in enumerate(farm._workers):
            rngs = inline._worker.world.rngs
            assert rngs._primed == {}, "primed streams left unconsumed"
            streams[shard] = {
                name: generator.bit_generator.state
                for name, generator in rngs._generators.items()
            }
        fingerprint = farm.merged_fingerprint()
    monkeypatch.undo()
    return streams, primed, senders, fingerprint


def test_a_primed_run_ends_with_the_same_streams(monkeypatch):
    primed, count, senders, fingerprint = end_of_run_streams(True, monkeypatch)
    plain, none, plain_senders, plain_fingerprint = end_of_run_streams(
        False, monkeypatch
    )
    assert primed == plain
    # The senders drew the same send times from numpy's streams.
    assert fingerprint == plain_fingerprint
    assert none == 0
    assert senders == plain_senders > 0
    kept = [name for streams in plain.values() for name in streams]
    assert not [name for name in kept if name.startswith("e13-traffic-")]
    # Every tenant's two streams and every sender's one were primed.
    assert count == senders + sum(
        name not in ("im", "email", "sms") for name in kept
    )
