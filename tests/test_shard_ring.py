"""Properties of the consistent-hash ring (PR 9 satellite).

Placement is the foundation of the sharded farm's determinism story: a
tenant's shard must be a pure function of (name, ring parameters) —
identical in every process and every run — and growing the ring must move
only what it says it moves.

1. **Determinism** — two independently built rings (and a subprocess with
   its own hash seed) agree on every placement.
2. **Balance** — at 1k tenants with default vnodes, no shard's population
   strays beyond a modest factor of uniform.
3. **Monotone remapping** — growing N → N+1 shards moves only keys that
   now land on the new shard (~1/N of them), never between old shards.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shard import ConsistentHashRing, stable_hash64
from repro.errors import ConfigurationError

names_strategy = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=200,
    unique=True,
)


# ---------------------------------------------------------------------------
# 1. Deterministic placement
# ---------------------------------------------------------------------------


@given(names=names_strategy, shards=st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_placement_deterministic_across_ring_instances(names, shards):
    a = ConsistentHashRing(shards)
    b = ConsistentHashRing(shards)
    for name in names:
        assert a.owner(name) == b.owner(name)
        assert a.vnode_for(name) == b.vnode_for(name)


def test_placement_deterministic_across_processes():
    """A fresh interpreter (different PYTHONHASHSEED) places identically —
    the property Python's salted ``hash`` would break."""
    names = [f"user{i}" for i in range(64)]
    here = ConsistentHashRing(5)
    expected = [here.owner(name) for name in names]
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.core.shard import ConsistentHashRing\n"
        "ring = ConsistentHashRing(5)\n"
        "print(','.join(str(ring.owner(f'user{i}')) for i in range(64)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True, text=True, check=True,
        # The environment as it is (its bytecode setting too), salted.
        env={**os.environ, "PYTHONHASHSEED": "random"},
    )
    assert [int(tok) for tok in out.stdout.strip().split(",")] == expected


def test_stable_hash64_is_pinned():
    # A literal digest: any change to the hash function is a placement
    # migration for every deployment and must be a conscious decision.
    assert stable_hash64("user0") == 0x04B73263E7F18BD8


# ---------------------------------------------------------------------------
# 2. Balance at 1k tenants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_balance_at_1k_tenants(shards):
    ring = ConsistentHashRing(shards, vnodes=64)
    counts = [0] * shards
    for i in range(1000):
        counts[ring.owner(f"user{i}")] += 1
    uniform = 1000 / shards
    for shard, count in enumerate(counts):
        assert 0.5 * uniform <= count <= 1.6 * uniform, (
            f"shard {shard} holds {count} of 1000 "
            f"(uniform {uniform:.0f}): {counts}"
        )


# ---------------------------------------------------------------------------
# 3. Monotone remapping
# ---------------------------------------------------------------------------


@given(shards=st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_growing_the_ring_moves_only_to_new_shards(shards):
    names = [f"user{i}" for i in range(1000)]
    before = ConsistentHashRing(shards)
    after = ConsistentHashRing(shards + 1)
    moved = 0
    for name in names:
        old, new = before.owner(name), after.owner(name)
        if old != new:
            moved += 1
            assert new == shards, (
                f"{name} moved between old shards {old}->{new}"
            )
    # Expected share is 1/(N+1); allow generous slack for hash variance.
    expected = len(names) / (shards + 1)
    assert moved <= 2.0 * expected
    assert moved >= 0.35 * expected


def test_ring_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        ConsistentHashRing(0)
    with pytest.raises(ConfigurationError):
        ConsistentHashRing(2, vnodes=0)
