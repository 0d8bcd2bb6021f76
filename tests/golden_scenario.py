"""Fixed-seed reference scenario for the pipeline-refactor determinism test.

Runs one MyAlertBuddy through every §4.2 journal outcome — routed, unmapped,
filtered, rejected, duplicate, no-subscribers, retry + abandon, crash +
recovery replay — under a fixed seed.  The ``golden_journal`` row of
:data:`tests.repin.PINS` holds the journal, byte for byte, to
``tests/data/golden_journal_seed.json``.
"""

from __future__ import annotations


def run_golden_scenario():
    """Build the scenario, run it, and return the deployment journal."""
    from repro.world import SimbaWorld, WorldConfig

    world = SimbaWorld(
        WorldConfig(seed=2026, email_loss=0.0, sms_loss=0.0)
    )
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    deployment.subscribe("Quiet", user, "digest", keywords=["Quiet"])
    deployment.config.filters.disable_category("Quiet")
    # A mapped category nobody subscribes to (the no_subscribers branch).
    deployment.config.subscriptions.register_category("Orphan")
    deployment.config.aggregator.map_keyword("Orphan", "Orphan")
    deployment.config.delivery_retry_delay = 60.0
    deployment.config.delivery_max_attempts = 2

    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    rogue = world.create_source("rogue")
    rogue.add_target(deployment.source_facing_book())

    deployment.launch()

    def driver(env):
        source.emit("News", "routed headline", "body")  # routed
        yield env.timeout(40.0)
        source.emit("Gossip", "unmapped headline", "body")  # unmapped
        yield env.timeout(40.0)
        source.emit("Quiet", "quiet headline", "body")  # filtered
        yield env.timeout(40.0)
        rogue.emit("News", "rogue headline", "body")  # rejected
        yield env.timeout(40.0)
        alert, _procs = source.emit("News", "twice headline", "body")
        # The sender's email fallback arrives too: dropped as duplicate.
        world.email.send(
            "portal@mail", deployment.email_address, alert.subject,
            alert.encode(), correlation=alert.alert_id,
        )
        yield env.timeout(80.0)
        source.emit("Orphan", "orphan headline", "body")  # no_subscribers
        yield env.timeout(60.0)
        # t=300: both channels down -> retry_scheduled, then abandoned.
        user.set_present(False)
        world.email.set_available(False)
        source.emit("News", "stuck headline", "body")
        yield env.timeout(200.0)
        # t=500: channels back; a normal alert routes again.
        user.set_present(True)
        world.email.set_available(True)
        yield env.timeout(20.0)
        source.emit("News", "after-outage headline", "body")
        yield env.timeout(40.0)
        # t=560: log an alert, then crash after the log-before-ack write
        # (~560.9) but before routing finishes (~562.6) -> recovery replay.
        source.emit("News", "replayed headline", "body")
        yield env.timeout(1.8)
        buddy = deployment.current
        if buddy is not None:
            buddy.crash("golden crash")
        yield env.timeout(58.2)
        deployment.launch()  # fresh incarnation: recovers the logged alert

    world.env.process(driver(world.env), name="golden-driver")
    world.run(until=1500.0)
    return deployment.journal
