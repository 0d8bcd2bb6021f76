"""Fixed-seed 20-user farm scenario for the determinism golden test.

Farm-level counterpart of :mod:`tests.golden_scenario`: one
:class:`~repro.core.farm.BuddyFarm` with 20 tenants runs a scripted
workload that exercises routed, unmapped, rejected and duplicate outcomes
plus a crash + recovery replay on one tenant.  Any nondeterminism anywhere
in the farm stack (shard RNG naming, pipeline ordering, watchdog timing)
shows up in the ``golden_farm`` row of :data:`tests.repin.PINS` (every tenant's
journal) or, traced, its ``golden_farm_trace`` row (the span record).
"""

from __future__ import annotations

N_USERS = 20
SEED = 2027


def run_golden_farm(tracer=None, admission=None, adversary=None, seed=SEED):
    """Build and run the scenario; returns the farm (world has quiesced).

    ``tracer`` (a :class:`repro.obs.TraceSink`) is installed on the world's
    environment before anything runs, ``admission`` (an
    :class:`repro.core.admission.AdmissionConfig`) is applied to every
    tenant, and ``adversary`` (an :class:`repro.net.adversary.AdversaryModel`)
    is installed as the ambient adversary on every substrate channel.
    ``tests/test_knob_invariance.py`` holds the journals of a run with the
    inert value of each — a sink, :meth:`~repro.core.admission
    .AdmissionConfig.permissive`, :meth:`~repro.net.adversary
    .AdversaryModel.off` — byte-identical to the golden.
    """
    from repro.core.farm import FarmProfile
    from repro.world import SimbaWorld, WorldConfig

    world = SimbaWorld(WorldConfig(seed=seed, email_loss=0.0, sms_loss=0.0))
    if tracer is not None:
        tracer.install(world.env)
    if adversary is not None:
        for channel in (world.im, world.email, world.sms):
            channel.set_adversary(adversary)
    farm = world.create_farm(
        shards=4,
        profile=FarmProfile(categories=("News",), accept_sources=("portal",)),
    )
    tenants = farm.add_users(N_USERS)
    if admission is not None:
        for tenant in tenants:
            tenant.deployment.config.admission = admission
    source = world.create_source("portal")
    rogue = world.create_source("rogue")
    farm.launch_all()

    def driver(env):
        yield env.timeout(60.0)
        # Round 1: every tenant routes one alert.
        for tenant in tenants:
            source.emit_to(tenant.book, "News", f"r1-{tenant.name}", "b")
            yield env.timeout(2.0)
        # The §4.2 non-happy branches, spread over a few tenants.
        source.emit_to(tenants[0].book, "Gossip", "unmapped-0", "b")  # unmapped
        rogue.emit_to(tenants[1].book, "News", "rogue-1", "b")  # rejected
        alert, _ = source.emit_to(tenants[2].book, "News", "twice-2", "b")
        world.email.send(  # sender fallback copy: duplicate_incoming
            "portal@mail", tenants[2].deployment.email_address,
            alert.subject, alert.encode(), correlation=alert.alert_id,
        )
        yield env.timeout(60.0)
        # Crash tenant 5 right after the log-before-ack write of a fresh
        # alert but before routing finishes: relaunch must replay it.
        source.emit_to(tenants[5].book, "News", "replayed-5", "b")
        yield env.timeout(1.8)
        buddy = tenants[5].deployment.current
        if buddy is not None:
            buddy.crash("golden farm crash")
        yield env.timeout(58.2)
        tenants[5].deployment.launch()
        yield env.timeout(60.0)
        # Round 2: every tenant routes again (tenant 5 on its second
        # incarnation).
        for tenant in tenants:
            source.emit_to(tenant.book, "News", f"r2-{tenant.name}", "b")
            yield env.timeout(2.0)

    world.env.process(driver(world.env), name="golden-farm-driver")
    world.run(until=1500.0)
    return farm
