"""Tests for the per-alert journey tracer."""

import pytest

from repro.core.delivery_modes import im_ack_then_email
from repro.metrics.timeline import render_trace, trace_alert
from repro.net import LatencyModel
from repro.sim import MINUTE
from repro.world import SimbaWorld, WorldConfig

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)


def make_rig():
    world = SimbaWorld(
        WorldConfig(seed=8, im_latency=IM_FIXED, email_loss=0.0, sms_loss=0.0)
    )
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    deployment.launch()
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    return world, user, deployment, source


def test_happy_path_trace_has_all_hops():
    world, user, deployment, source = make_rig()
    alert, runs = source.emit("News", "headline", "body")
    world.run(until=MINUTE)
    events = trace_alert(alert.alert_id, alert=alert,
                         deployment=deployment, user=user,
                         runs=runs)
    actors = [e.actor for e in events]
    assert "source" in actors
    assert "mab-log" in actors
    assert "mab" in actors
    assert "user" in actors
    # Time-ordered.
    times = [e.at for e in events]
    assert times == sorted(times)
    text = render_trace(events)
    assert "logged before ack" in text
    assert "received on IM" in text
    assert "SUCCESS" in text


def test_fallback_trace_shows_failed_block():
    world, user, deployment, source = make_rig()
    world.run(until=1.0)
    world.im.outage(10 * MINUTE)
    alert, runs = source.emit("News", "during outage", "body")
    world.run(until=30 * MINUTE)
    text = render_trace(
        trace_alert(alert.alert_id, alert=alert,
                    deployment=deployment, user=user,
                    runs=runs)
    )
    assert "all_submissions_failed" in text or "ack_timeout" in text
    assert "delivered via block 1" in text  # email fallback to MAB


def test_fallback_block_is_stamped_when_it_started():
    """Block 1 starts when block 0's ack wait gives up, not with block 0.

    The MAB's logged ack takes 0.4 + 0.5 + 0.4 s, so a 1 s ack timeout
    always expires first and the email block runs 1 s into the delivery.
    """
    world, user, deployment, source = make_rig()
    source.mode = im_ack_then_email(ack_timeout=1.0)
    world.run(until=1.0)
    alert, (run,) = source.emit("News", "slow ack", "body")
    world.run(until=MINUTE)
    blocks = {
        e.description.split(" ")[1]: e
        for e in trace_alert(alert.alert_id, runs=[run])
        if e.description.startswith("block ")
    }
    assert blocks["0"].description.startswith("block 0 ack_timeout")
    assert blocks["1"].description.startswith("block 1 SUCCESS")
    assert blocks["1"].at - blocks["0"].at == pytest.approx(1.0)


def test_unknown_alert_renders_placeholder():
    world, user, deployment, source = make_rig()
    assert render_trace(trace_alert("no-such-alert",
                                    deployment=deployment, user=user)) == (
        "(no events recorded for this alert)"
    )


def test_partial_parties():
    world, user, deployment, source = make_rig()
    alert, _ = source.emit("News", "h", "b")
    world.run(until=MINUTE)
    only_user = trace_alert(alert.alert_id, user=user)
    assert all(e.actor == "user" for e in only_user)
    assert len(only_user) == 1


def test_recovery_report_renders_all_sections():
    from repro.metrics import recovery_report

    world, user, deployment, source = make_rig()
    mdc = None
    # Re-rig with an MDC-driven deployment for the full report.
    world2 = SimbaWorld(
        WorldConfig(seed=9, im_latency=IM_FIXED, email_loss=0.0, sms_loss=0.0)
    )
    user2 = world2.create_user("alice", present=True)
    deployment2 = world2.create_buddy(user2)
    deployment2.register_user_endpoint(user2)
    deployment2.subscribe("News", user2, "normal", keywords=["News"])
    mdc = world2.start_mdc(deployment2)
    source2 = world2.create_source("portal")
    source2.add_target(deployment2.source_facing_book())
    deployment2.config.classifier.accept_source("portal")

    def scenario(env):
        source2.emit("News", "h", "b")
        yield env.timeout(60.0)
        deployment2.current.crash()

    world2.env.process(scenario(world2.env))
    world2.run(until=30 * MINUTE)
    report = recovery_report(deployment2, mdc=mdc, user=user2)
    assert "MDC restarts of MAB" in report
    assert "alerts routed" in report
    assert "user: unique alerts received" in report
    assert "pessimistic-log entries" in report
