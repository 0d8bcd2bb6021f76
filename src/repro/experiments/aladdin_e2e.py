"""Experiment E4: the Aladdin end-to-end chain (§5).

"From the time the button on the remote control was pushed to the time an
IM popped up on the user's screen, the end-to-end delivery took an average
of 11 seconds."  The chain: RF remote → powerline transceiver → powerline
monitor → local SSS → phoneline multicast → gateway SSS event → Aladdin home
server → SIMBA (IM-ack to MAB, routed to the user's IM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aladdin.scenario import AladdinHome
from repro.metrics.stats import Summary, summarize
from repro.net.message import ChannelType
from repro.sim.clock import MINUTE
from repro.world import SimbaWorld


@dataclass
class AladdinE2EResult:
    """Per-hop and end-to-end latency summaries."""

    end_to_end: Summary
    press_to_gateway_alert: Summary
    simba_delivery: Summary
    presses: int
    receipts: int


def run_aladdin_disarm(
    n_presses: int = 60, seed: int = 0, press_period: float = 187.3
) -> AladdinE2EResult:
    # The default period is deliberately incommensurate with the powerline
    # monitor's poll interval, so presses sample the poll phase uniformly
    # instead of locking onto one residue.
    """Repeat the disarm/arm scenario and measure press → user-IM latency."""
    world = SimbaWorld(seed=seed)
    user = world.create_user("parent", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe(
        "Home Security",
        user,
        "normal",
        keywords=["Security Armed", "Security Disarmed"],
    )
    deployment.launch()
    deployment.config.classifier.accept_source("aladdin")

    endpoint = world.create_source_endpoint("aladdin")
    home = AladdinHome(world.env, world.rngs, endpoint)
    home.gateway.add_target(deployment.source_facing_book())

    press_times: list[float] = []

    def kid(env):
        yield env.timeout(30.0)
        for index in range(n_presses):
            press_times.append(env.now)
            if index % 2 == 0:
                home.disarm_via_remote()
            else:
                home.arm_via_remote()
            yield env.timeout(press_period)

    world.env.process(kid(world.env))
    world.run(until=30.0 + n_presses * press_period + 5 * MINUTE)

    # Alerts and receipts occur strictly in press order (press period >>
    # chain latency), so zip aligns them.  A receipt carries its alert's
    # creation time, so the gateway need not keep what it emitted.
    receipts = [r for r in user.receipts if not r.duplicate]
    end_to_end = [
        receipt.at - press
        for press, receipt in zip(press_times, receipts)
        if receipt.channel is ChannelType.IM
    ]
    press_to_alert = [
        receipt.created_at - press
        for press, receipt in zip(press_times, receipts)
    ]
    simba_leg = [receipt.latency for receipt in receipts]
    return AladdinE2EResult(
        end_to_end=summarize(end_to_end),
        press_to_gateway_alert=summarize(press_to_alert),
        simba_delivery=summarize(simba_leg),
        presses=len(press_times),
        receipts=len(receipts),
    )
