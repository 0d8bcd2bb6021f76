"""The SIMBA Desktop Assistant scenario (§2.5).

Alice's desktop assistant watches her mail client and calendar.  While she
is at her desk, nothing is forwarded.  When she has been idle past the
threshold and a high-importance email or reminder arrives — or lingers
unread — the assistant sends it through her MyAlertBuddy, which routes her
"Work Urgent" category to the *critical* delivery mode: IM first, and when
she is away from every machine, her phone (the paper: "since the user is
likely to be away from any machine, all alerts are generated as SMS").

Run:  python examples/desktop_assistant.py
"""

from repro import SimbaWorld
from repro.core import Alert
from repro.sim import MINUTE
from repro.sources.desktop import DesktopAssistant


def main() -> None:
    world = SimbaWorld(seed=13)
    alice = world.create_user("alice", present=True)
    buddy = world.create_buddy(alice)
    buddy.register_user_endpoint(alice)
    buddy.subscribe(
        "Work Urgent", alice, "critical",
        keywords=["Important email", "Reminder"],
    )
    buddy.launch()
    buddy.config.classifier.accept_source("assistant")

    assistant = DesktopAssistant(
        world.env, "assistant", world.create_source_endpoint("assistant"),
        idle_threshold=10 * MINUTE,
    )
    assistant.add_target(buddy.source_facing_book())
    assistant.watch_mailbox(world.email, "alice-desktop@mail",
                            interval=MINUTE)

    print("=== SIMBA Desktop Assistant ===")

    def day(env):
        # 09:00-ish: Alice is typing away; important mail is NOT forwarded.
        assistant.record_activity()
        world.email.send("boss@mail", "alice-desktop@mail",
                         "budget review today", "...", importance="high")
        yield env.timeout(2 * MINUTE)
        # The mail client's new-mail hook fires; she is at the desk, so the
        # assistant suppresses the forward (she can see the popup herself).
        assistant.email_arrived("budget review today", importance="high")
        print(f"[t={env.now/60:5.1f}m] high-importance mail arrived while "
              f"Alice was typing -> suppressed "
              f"({len(assistant.suppressed)} suppressed)")

        # She walks to a meeting and goes IM-offline too.
        yield env.timeout(MINUTE)
        alice.set_present(False)
        print(f"[t={env.now/60:5.1f}m] Alice leaves her desk (IM offline)")

        # 15 minutes later the assistant notices: idle > threshold AND the
        # high-importance mail is still unread -> forward through SIMBA.
        yield env.timeout(20 * MINUTE)
        reminder = assistant.reminder_popped("1:1 with manager in 15 min")
        print(f"[t={env.now/60:5.1f}m] calendar reminder popped while away"
              f" -> forwarded: {reminder is not None}")
        yield env.timeout(10 * MINUTE)

    world.env.process(day(world.env))
    world.run(until=90 * MINUTE)

    # The buddy's pessimistic log is the durable record of every alert it
    # accepted (the assistant keeps none).
    forwarded = [Alert.decode(entry.payload) for entry in buddy.log.entries()]
    print("\nassistant emissions, as the buddy logged them:")
    for alert in forwarded:
        print(f"  t={alert.created_at/60:5.1f}m  [{alert.keyword}] "
              f"{alert.subject}")
    print("\nalice's devices received:")
    for receipt in alice.receipts:
        print(f"  t={receipt.at/60:5.1f}m  via {receipt.channel.value:3s} "
              f"(latency {receipt.latency:.1f}s, duplicate={receipt.duplicate})")

    # While away, the critical mode's IM block cannot confirm, so block 2
    # (SMS + email) carried the alerts to her phone.
    channels = {r.channel.value for r in alice.receipts}
    assert "SMS" in channels, "away-from-desk alerts must reach the phone"
    assert len(forwarded) == 2  # lingering mail + reminder
    assert len(assistant.suppressed) == 1


if __name__ == "__main__":
    main()
