"""The Aladdin home-networking scenario of §5, plus §2.3's sensors.

A parent subscribes to home alerts through MyAlertBuddy with
sub-categorized urgency (§4.2): "Sensor ON" is an emergency (critical
delivery mode), "Sensor OFF" and security-state changes are routine.

The script then replays three stories:

1. The kid comes home and disarms the security system with the RF remote
   (the paper's 11-second end-to-end chain).
2. The basement floods: critical "Basement Water Sensor ON" alert.
3. The garage-door sensor's battery dies: its soft-state variable misses
   refreshes and times out -> "Sensor Broken" alert.

Run:  python examples/home_security.py
"""

from repro import SimbaWorld
from repro.aladdin import AladdinHome
from repro.core import Alert
from repro.sim import MINUTE


def main() -> None:
    world = SimbaWorld(seed=3)
    parent = world.create_user("parent", present=True)
    buddy = world.create_buddy(parent)
    buddy.register_user_endpoint(parent)
    # Sub-categorization: same source, different urgency per keyword (§4.2).
    buddy.subscribe("Home Emergency", parent, "critical",
                    keywords=["Sensor ON"])
    buddy.subscribe("Home Routine", parent, "normal",
                    keywords=["Sensor OFF", "Security Armed",
                              "Security Disarmed", "Sensor Broken"])
    buddy.launch()
    buddy.config.classifier.accept_source("aladdin")

    home = AladdinHome(world.env, world.rngs,
                       world.create_source_endpoint("aladdin"))
    home.gateway.add_target(buddy.source_facing_book())
    water = home.add_sensor("Basement Water", critical=True,
                            refresh_period=30.0)
    garage = home.add_sensor("Garage Door", critical=True,
                             refresh_period=30.0, max_missed=2)

    print("=== Aladdin home security through SIMBA ===")

    def story(env):
        yield env.timeout(60.0)
        print(f"[t={env.now:7.1f}s] kid presses DISARM on the RF remote")
        pressed = env.now
        home.disarm_via_remote()
        yield env.timeout(2 * MINUTE)
        receipt = parent.receipts[-1]
        print(f"[t={receipt.at:7.1f}s] parent's IM pops: security disarmed "
              f"(end-to-end {receipt.at - pressed:.1f}s; paper: ~11s)")

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:7.1f}s] water reaches the basement sensor")
        tripped = env.now
        water.trip()
        yield env.timeout(2 * MINUTE)
        receipt = parent.receipts[-1]
        print(f"[t={receipt.at:7.1f}s] CRITICAL alert on "
              f"{receipt.channel.value}: basement water ON "
              f"({receipt.at - tripped:.1f}s after the sensor fired)")

        yield env.timeout(5 * MINUTE)
        print(f"[t={env.now:7.1f}s] garage sensor battery dies "
              "(refreshes stop)")
        garage.drain_battery()

    world.env.process(story(world.env))
    world.run(until=40 * MINUTE)

    # The buddy's pessimistic log is the durable record of every alert it
    # accepted (the gateway keeps none).
    trail = [Alert.decode(entry.payload) for entry in buddy.log.entries()]
    print("\nalert trail in the buddy's log:")
    for alert in trail:
        print(f"  t={alert.created_at:7.1f}s  [{alert.keyword:18s}] "
              f"{alert.subject}")
    print("\nparent's receipts:")
    for receipt in parent.receipts:
        print(f"  t={receipt.at:7.1f}s  via {receipt.channel.value:3s} "
              f"latency {receipt.latency:5.1f}s")
    keywords = [a.keyword for a in trail]
    assert "Security Disarmed" in keywords
    assert "Sensor ON" in keywords
    assert "Sensor Broken" in keywords
    assert len(parent.receipts) >= 3


if __name__ == "__main__":
    main()
