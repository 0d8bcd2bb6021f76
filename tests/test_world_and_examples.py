"""Tests for the SimbaWorld assembly layer and the runnable examples."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SimbaWorld, WorldConfig, standard_modes
from repro.net import ChannelType

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


class TestWorldAssembly:
    def test_create_user_allocates_distinct_addresses(self):
        world = SimbaWorld(seed=0)
        a = world.create_user("a")
        b = world.create_user("b")
        assert a.im_address != b.im_address
        assert a.phone_number != b.phone_number
        assert world.users == {"a": a, "b": b}

    def test_seed_shorthand(self):
        world = SimbaWorld(seed=42)
        assert world.config.seed == 42
        world2 = SimbaWorld(WorldConfig(email_loss=0.5), seed=7)
        assert world2.config.seed == 7
        assert world2.config.email_loss == 0.5

    def test_standard_modes_shapes(self):
        modes = {m.name: m for m in standard_modes()}
        assert set(modes) == {"critical", "normal", "digest"}
        assert modes["critical"].blocks[0].require_ack
        assert len(modes["critical"].blocks[1].actions) == 2
        assert len(modes["digest"].blocks) == 1

    def test_every_user_shares_one_frozen_set_of_standard_modes(self):
        world = SimbaWorld(seed=0)
        registered = []
        for name in ("a", "b"):
            user = world.create_user(name)
            deployment = world.create_buddy(user)
            deployment.register_user_endpoint(user)
            registered.append(
                deployment.config.subscriptions.mode(name, "critical")
            )
        assert registered[0] is registered[1]
        critical = registered[0]
        assert isinstance(critical.blocks, tuple)
        assert all(isinstance(b.actions, tuple) for b in critical.blocks)
        with pytest.raises(dataclasses.FrozenInstanceError):
            critical.blocks[0].require_ack = False

    def test_source_facing_book_hides_user_addresses(self):
        world = SimbaWorld(seed=0)
        user = world.create_user("alice")
        deployment = world.create_buddy(user)
        book = deployment.source_facing_book()
        addresses = {a.address for a in book}
        assert user.im_address not in addresses
        assert user.email_address not in addresses
        assert user.phone_number not in addresses
        assert deployment.im_address in addresses

    def test_register_user_endpoint_custom_modes(self):
        from repro.core import Action, CommunicationBlock, DeliveryMode

        world = SimbaWorld(seed=0)
        user = world.create_user("alice")
        deployment = world.create_buddy(user)
        custom = DeliveryMode("only-sms", [CommunicationBlock([Action("SMS")])])
        deployment.register_user_endpoint(user, modes=[custom])
        assert [m.name for m in
                deployment.config.subscriptions.modes_for("alice")] == [
            "only-sms"
        ]

    def test_subscribe_helper_maps_keywords(self):
        world = SimbaWorld(seed=0)
        user = world.create_user("alice")
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("Cat", user, "digest", keywords=["k1", "k2"])
        assert deployment.config.aggregator.category_for("k1") == "Cat"
        assert deployment.config.aggregator.category_for("k2") == "Cat"
        subs = deployment.config.subscriptions.subscriptions_for("Cat")
        assert [s.user for s in subs] == ["alice"]

    def test_launch_and_current(self):
        world = SimbaWorld(seed=0)
        user = world.create_user("alice")
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        assert deployment.current is None
        buddy = deployment.launch()
        assert deployment.current is buddy
        world.run(until=10.0)
        assert buddy.alive

    def test_two_buddies_share_the_world(self):
        world = SimbaWorld(seed=0)
        alice = world.create_user("alice")
        bob = world.create_user("bob")
        da = world.create_buddy(alice)
        db = world.create_buddy(bob)
        for deployment, user in ((da, alice), (db, bob)):
            deployment.register_user_endpoint(user)
            deployment.subscribe("News", user, "normal", keywords=["News"])
            deployment.config.classifier.accept_source("portal")
            deployment.launch()
        source = world.create_source("portal")
        source.add_target(da.source_facing_book())
        source.add_target(db.source_facing_book())
        source.emit("News", "shared headline", "x")
        world.run(until=120.0)
        assert len(alice.receipts) == 1
        assert len(bob.receipts) == 1
        assert alice.receipts[0].channel is ChannelType.IM


#: Every script under ``examples/``.
EXAMPLE_SCRIPTS = (
    "quickstart.py",
    "investment_alerts.py",
    "home_security.py",
    "location_tracking.py",
    "fault_tolerance_demo.py",
    "desktop_assistant.py",
    "portal_day.py",
)


def test_every_example_is_run():
    assert sorted(EXAMPLE_SCRIPTS) == sorted(
        path.name for path in EXAMPLES.glob("*.py")
    )


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_runs_clean(script):
    """Every example runs to completion as its README says, in a fresh
    interpreter with only ``src`` on the path (they carry their own
    asserts)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "===" in done.stdout  # each example prints a banner


class TestWorldGuards:
    def test_duplicate_user_name_rejected(self):
        world = SimbaWorld(seed=0)
        world.create_user("alice")
        with pytest.raises(ValueError, match="already exists"):
            world.create_user("alice")

    def test_duplicate_buddy_rejected(self):
        world = SimbaWorld(seed=0)
        user = world.create_user("alice")
        world.create_buddy(user)
        with pytest.raises(ValueError, match="already has"):
            world.create_buddy(user)
