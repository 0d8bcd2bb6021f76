"""Experiments E1–E3: the §5 latency measurements.

- E1: "The one-way IM delivery time from any of the alert sources to
  MyAlertBuddy is typically less than one second."
- E2: "With pessimistic logging, the alert source receives an
  acknowledgement in about 1.5 seconds."
- E3: "An alert proxy was set up to monitor the Florida recount numbers and
  the availability of the PlayStation2 game consoles ...  When the proxy
  detected a change, it sent out an alert, which on average took 2.5 seconds
  to route through MyAlertBuddy to reach the user."
"""

from __future__ import annotations

from repro.metrics.stats import Summary, summarize
from repro.net.message import ChannelType
from repro.sim.clock import MINUTE
from repro.sources.proxy import AlertProxy, ProxyRule
from repro.sources.webserver import SimulatedWebSite
from repro.world import SimbaWorld


def _standard_stack(seed: int):
    """World + present user + configured MAB + accepted portal source."""
    world = SimbaWorld(seed=seed)
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News", "Election",
                                                           "Shopping"])
    deployment.launch()
    return world, user, deployment


def _instrument_one_way(deployment, samples: list) -> None:
    """Wrap the incarnation's pre-ack hook to record source→MAB one-way IM
    latency.  Wrapping the method (not the endpoint attribute) matters: the
    buddy re-installs ``self._pre_ack`` on the endpoint when it starts."""
    buddy = deployment.current
    original = buddy._pre_ack

    def hooked(incoming):
        if incoming.via is ChannelType.IM:
            samples.append(incoming.received_at - incoming.alert.created_at)
        yield from original(incoming)

    buddy._pre_ack = hooked


def run_im_one_way(n_alerts: int = 300, seed: int = 0) -> Summary:
    """E1: one-way source→MAB IM latency distribution."""
    world, user, deployment = _standard_stack(seed)
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    samples: list[float] = []
    _instrument_one_way(deployment, samples)

    def emitter(env):
        for index in range(n_alerts):
            source.emit("News", f"headline {index}", "body")
            yield env.timeout(20.0)

    world.env.process(emitter(world.env))
    world.run(until=n_alerts * 20.0 + 5 * MINUTE)
    return summarize(samples)


def run_ack_roundtrip(n_alerts: int = 300, seed: int = 0) -> Summary:
    """E2: source-side ack latency with pessimistic logging enabled."""
    world, user, deployment = _standard_stack(seed)
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    runs = []

    def emitter(env):
        for index in range(n_alerts):
            runs.extend(source.emit("News", f"headline {index}", "body")[1])
            yield env.timeout(20.0)

    world.env.process(emitter(world.env))
    world.run(until=n_alerts * 20.0 + 5 * MINUTE)
    samples = [
        run.value.blocks[0].elapsed
        for run in runs
        if run.processed and run.value.delivered_via == 0
    ]
    return summarize(samples)


def run_proxy_routing(
    n_changes: int = 120, seed: int = 0, change_period: float = 2 * MINUTE
) -> Summary:
    """E3: proxy change detection → MAB → user, measured at the user's IM.

    Reproduces the paper's two watched pages: the Florida recount and the
    PlayStation2 availability page.
    """
    world, user, deployment = _standard_stack(seed)
    proxy = AlertProxy(world.env, "proxy", world.create_source_endpoint("proxy"))
    proxy.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("proxy")

    cnn = SimulatedWebSite(world.env, "cnn.com")
    cnn.publish("/florida", "<votes>Gore 2907351 Bush 2907888</votes>")
    shop = SimulatedWebSite(world.env, "shop.com")
    shop.publish("/ps2", "<stock>SOLD OUT</stock>")
    proxy.add_rule(
        ProxyRule(cnn, "/florida", 10.0, "<votes>", "</votes>", "Election")
    )
    proxy.add_rule(ProxyRule(shop, "/ps2", 10.0, "<stock>", "</stock>", "Shopping"))
    proxy.start()

    cnn.schedule_updates(
        "/florida",
        [
            (30.0 + i * change_period, f"<votes>recount update {i}</votes>")
            for i in range(n_changes // 2)
        ],
    )
    shop.schedule_updates(
        "/ps2",
        [
            (
                90.0 + i * change_period,
                f"<stock>{'IN STOCK' if i % 2 else 'SOLD OUT'} run {i}</stock>",
            )
            for i in range(n_changes // 2)
        ],
    )
    world.run(until=(n_changes // 2) * change_period + 10 * MINUTE)
    samples = [
        receipt.latency
        for receipt in user.receipts
        if receipt.channel is ChannelType.IM and not receipt.duplicate
    ]
    return summarize(samples)
