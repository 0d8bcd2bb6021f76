"""MyAlertBuddy surviving a bad afternoon (§4.2.1 / §5).

A storm of failures hits the deployment while a portal keeps sending
alerts: a forced logout, a hung IM client, a MAB crash *after* an alert was
acknowledged but before it was routed, a blocking dialog box with an
unknown caption, a hung MAB, and finally a short IM service outage.  The
script prints the recovery journal so you can watch each §4.2.1 mechanism
do its job — and checks nothing acknowledged was ever lost.

Run:  python examples/fault_tolerance_demo.py
"""

from repro import LatencyModel, SimbaWorld, WorldConfig
from repro.sim import MINUTE

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)


def main() -> None:
    world = SimbaWorld(
        WorldConfig(seed=9, im_latency=IM_FIXED, email_loss=0.0, sms_loss=0.0)
    )
    alice = world.create_user("alice", present=True)
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)
    buddy.subscribe("News", alice, "normal", keywords=["News"])
    mdc = world.start_mdc(buddy, check_interval=60.0)

    portal = world.create_source("portal")
    portal.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("portal")

    runs = []  # the portal's deliveries: each ends with its outcome

    def steady_alerts(env):
        index = 0
        while True:
            runs.extend(portal.emit("News", f"headline {index}", "body")[1])
            index += 1
            yield env.timeout(2 * MINUTE)

    def mayhem(env):
        yield env.timeout(3 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: IM server force-logs MAB out")
        world.im.force_logout(buddy.im_address)

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: the GUI IM client hangs")
        buddy.endpoint.im_client.hang()

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: MAB crashes 1.5s after the next "
              "alert is acked (pessimistic-log window)")
        runs.extend(portal.emit("News", "headline-during-crash", "body")[1])
        yield env.timeout(1.5)
        buddy.current.crash()

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: unknown modal dialog blocks the "
              "screen")
        world.host.screen.pop_dialog("Setup wizard has stopped", ("Close",),
                                     owner=None)
        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:6.0f}s] FIX  : operator registers the "
              "caption/button pair (dialog-box handling API)")
        buddy.endpoint.im_manager.register_dialog_rule(
            "Setup wizard has stopped", "Close")

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: MAB hangs (stops answering "
              "AreYouWorking)")
        buddy.current.hang()

        yield env.timeout(8 * MINUTE)
        print(f"[t={env.now:6.0f}s] FAULT: 4-minute IM service outage")
        world.im.outage(4 * MINUTE)

    world.env.process(steady_alerts(world.env))
    world.env.process(mayhem(world.env))
    world.run(until=50 * MINUTE)

    print("\n=== recovery journal ===")
    for event in buddy.journal.events:
        if event.kind in ("incarnation_start", "routed"):
            continue
        print(f"  t={event.at:7.1f}s  {event.kind:18s} {event.detail[:60]}")

    stats = buddy.endpoint.im_manager.stats
    print("\n=== recovery actions ===")
    print(f"  sanity checks run      : {stats.sanity_checks}")
    print(f"  simple re-logons       : {stats.relogons}")
    print(f"  client kill-restarts   : {stats.restarts}")
    print(f"  MDC restarts of MAB    : {len(mdc.restarts)} "
          f"({[r.reason.value for r in mdc.restarts]})")
    print(f"  monkey-thread clicks   : "
          f"{len(buddy.endpoint.im_manager.monkey.clicks)}")
    print(f"  log entries replayed   : "
          f"{buddy.journal.count('recovery_replay')}")

    emitted = len(runs)  # one target: one run per alert
    received = len(alice.unique_alerts_received())
    print(f"\n=== outcome ===\n  alerts emitted {emitted}, unique received "
          f"{received}, duplicates discarded {alice.duplicates_discarded()}")
    acked = {run.value.correlation for run in runs
             if run.processed and run.value.delivered
             and run.value.delivered_via == 0}
    lost_acked = acked - alice.unique_alerts_received()
    print(f"  acknowledged-but-lost  : {len(lost_acked)} "
          "(pessimistic logging guarantee)")
    assert not lost_acked
    assert buddy.journal.count("recovery_replay") >= 1
    assert received >= emitted - 3  # a couple may ride the slow email tail


if __name__ == "__main__":
    main()
