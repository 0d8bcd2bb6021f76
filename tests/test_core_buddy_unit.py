"""Focused unit tests for MyAlertBuddy internals: retries, rejuvenation
timing, memory accounting, duplicate handling, recovery ordering."""

import pytest

from repro.core.rejuvenation import RejuvenationKind
from repro.net import ChannelType, LatencyModel
from repro.sim import DAY, HOUR, MINUTE
from repro.world import SimbaWorld, WorldConfig

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
EMAIL_FIXED = LatencyModel(median=20.0, sigma=0.0, low=0.0, high=100.0)


def make_rig(seed=1, **config_overrides):
    world = SimbaWorld(
        WorldConfig(
            seed=seed,
            im_latency=IM_FIXED,
            email_latency=EMAIL_FIXED,
            email_loss=0.0,
            sms_loss=0.0,
        )
    )
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    for key, value in config_overrides.items():
        setattr(deployment.config, key, value)
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    return world, user, deployment, source


class TestDeliveryRetry:
    def test_total_block_failure_retries_and_succeeds(self):
        world, user, deployment, source = make_rig(
            delivery_retry_delay=60.0
        )
        deployment.launch()
        # Take BOTH outgoing channels for the user down: IM (user logs out)
        # and email relay.
        user.set_present(False)
        world.email.set_available(False)
        source.emit("News", "h", "b")
        world.run(until=2 * MINUTE)
        assert deployment.journal.count("retry_scheduled") >= 1
        assert user.receipts == []
        # Email comes back: a retry succeeds.
        world.email.set_available(True)
        world.run(until=10 * MINUTE)
        assert len(user.receipts) == 1
        # And the log entry is finally marked processed.
        entry = deployment.log.unprocessed()
        assert entry == []

    def test_retry_gives_up_after_max_attempts(self):
        world, user, deployment, source = make_rig(
            delivery_retry_delay=30.0, delivery_max_attempts=3
        )
        deployment.launch()
        user.set_present(False)
        world.email.set_available(False)
        source.emit("News", "h", "b")
        world.run(until=30 * MINUTE)
        assert deployment.journal.count("retry_scheduled") == 2  # attempts 1,2
        assert deployment.journal.count("delivery_abandoned") == 1
        assert user.receipts == []
        # Abandoned => marked processed so recovery will not replay forever.
        assert deployment.log.unprocessed() == []

    def test_partial_success_retries_only_failed_subscriber(self):
        world, user, deployment, source = make_rig(delivery_retry_delay=60.0)
        bob = world.create_user("bob", present=True)
        deployment.register_user_endpoint(bob)
        deployment.config.subscriptions.subscribe("News", "bob", "digest")
        deployment.launch()
        # Bob's digest mode is email-only; kill the relay so only he fails.
        world.email.set_available(False)
        source.emit("News", "h", "b")
        world.run(until=30.0)
        assert len(user.receipts) == 1  # alice got IM
        assert bob.receipts == []
        world.email.set_available(True)
        world.run(until=10 * MINUTE)
        assert len(bob.receipts) == 1
        # Alice did NOT receive a second copy from the retry.
        assert len(user.receipts) == 1


class TestRejuvenationTiming:
    def test_nightly_fires_at_2330_every_day(self):
        world, user, deployment, source = make_rig()
        world.start_mdc(deployment)
        world.run(until=3 * DAY)
        nightly = [
            r for r in deployment.journal.rejuvenations
            if r.kind is RejuvenationKind.NIGHTLY
        ]
        assert len(nightly) == 3
        for index, record in enumerate(nightly):
            assert record.at == pytest.approx(
                index * DAY + 23.5 * HOUR, abs=2.0
            )

    def test_nightly_disabled(self):
        world, user, deployment, source = make_rig()
        deployment.config.rejuvenation.nightly_enabled = False
        world.start_mdc(deployment)
        world.run(until=2 * DAY)
        assert deployment.journal.rejuvenations == []

    def test_nightly_shuts_clients_down_orderly(self):
        world, user, deployment, source = make_rig()
        world.start_mdc(deployment, check_interval=60.0)
        world.run(until=23.5 * HOUR + 10 * MINUTE)
        # The nightly rejuvenation terminated the client software ("orderly
        # shutdown of all the communication client software")...
        assert deployment.endpoint.im_client.terminations >= 1
        assert len(deployment.incarnations) == 2
        # ...and the MDC restart brought everything back.
        assert deployment.endpoint.im_client.running
        assert world.im.presence.is_online(deployment.im_address)

    def test_memory_accounting_grows_with_alerts(self):
        world, user, deployment, source = make_rig()
        buddy = deployment.launch()
        before = buddy.memory_mb
        for index in range(5):
            source.emit("News", f"h{index}", "b")
        world.run(until=10 * MINUTE)
        assert buddy.memory_mb > before

    def test_remote_keyword_via_email(self):
        world, user, deployment, source = make_rig()
        world.start_mdc(deployment)
        world.run(until=60.0)
        world.email.send(
            "admin@mail", deployment.email_address, "admin",
            "SIMBA-REJUVENATE please",
        )
        world.run(until=10 * MINUTE)
        kinds = [r.kind for r in deployment.journal.rejuvenations]
        assert RejuvenationKind.REMOTE in kinds


class TestDuplicateHandling:
    def test_same_alert_via_im_and_email_routed_once(self):
        world, user, deployment, source = make_rig()
        deployment.launch()
        alert, _procs = source.emit("News", "h", "b")
        # Simulate the email fallback arriving as well (sender thought the
        # ack was lost): deliver the same payload by email directly.
        world.email.send(
            "portal@mail", deployment.email_address, alert.subject,
            alert.encode(), correlation=alert.alert_id,
        )
        world.run(until=5 * MINUTE)
        assert deployment.journal.count("duplicate_incoming") == 1
        assert len(user.receipts_for(alert.alert_id)) == 1

    def test_recovery_replay_order_is_fifo(self):
        world, user, deployment, source = make_rig()
        world.start_mdc(deployment, check_interval=30.0)
        buddy = deployment.current

        def scenario(env):
            for index in range(3):
                source.emit("News", f"h{index}", "b")
                yield env.timeout(2.0)
            # All three are logged (ack at ~1.3s each); crash before the
            # first finishes routing of the third.
            buddy.crash()

        world.env.process(scenario(world.env))
        world.run(until=20 * MINUTE)
        assert deployment.journal.count("recovery_replay") >= 1
        received = [r.alert_id for r in user.receipts if not r.duplicate]
        assert len(received) == 3
