"""Quickstart: one user, one MyAlertBuddy, one alert source.

Builds the smallest complete SIMBA deployment, subscribes Alice's personal
"Investment" category to the portal's "Stocks" keyword, sends one alert and
shows it arriving on her IM within a few seconds — acknowledged end to end.

Run:  python examples/quickstart.py
"""

from repro import SimbaWorld


def main() -> None:
    world = SimbaWorld(seed=7)

    # The human: IM identity, phone, mailbox.  Present at her machine.
    alice = world.create_user("alice", present=True)

    # Her always-on personal alert router.
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)  # addresses + standard modes
    buddy.subscribe("Investment", alice, "normal", keywords=["Stocks"])
    buddy.launch()

    # An alert service.  It only ever learns the buddy's addresses — never
    # Alice's (that's the privacy point of MyAlertBuddy).
    portal = world.create_source("portal")
    portal.add_target(buddy.source_facing_book())
    buddy.config.classifier.accept_source("portal")

    alert, deliveries = portal.emit(
        "Stocks", "MSFT up 3%", "Microsoft stock rose 3% on earnings."
    )
    world.run(until=60.0)

    print("=== SIMBA quickstart ===")
    print(f"alert emitted by portal at t={alert.created_at:.2f}s "
          f"(id {alert.alert_id})")
    (outcome,) = [run.value for run in deliveries]
    print(f"source view : delivered={outcome.delivered} "
          f"via block {outcome.delivered_via} "
          f"(ack after {outcome.blocks[0].elapsed:.2f}s)")
    for receipt in alice.receipts:
        print(f"alice view  : received on {receipt.channel.value} "
              f"after {receipt.latency:.2f}s (duplicate={receipt.duplicate})")
    print(f"buddy journal: "
          f"{[(e.kind, round(e.at, 2)) for e in buddy.journal.events]}")

    # The full hop-by-hop journey of the alert:
    from repro.metrics import render_trace, trace_alert

    print("\n--- alert trace ---")
    print(render_trace(
        trace_alert(alert.alert_id, alert=alert, deployment=buddy,
                    user=alice, runs=deliveries)
    ))
    assert alice.receipts, "the alert should have arrived"


if __name__ == "__main__":
    main()
