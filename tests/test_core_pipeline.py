"""Unit tests for the extracted §4.2 alert pipeline.

Each stage is exercised against a synthetic :class:`PipelineContext` built
from a real deployment's configuration; the golden scenario's journal is
the ``golden_journal`` row of ``tests/repin.py``.
"""

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.alert import Alert
from repro.core.buddy import BuddyJournal
from repro.core.endpoint import IncomingAlert
from repro.core.pessimistic_log import DeliveryStatus
from repro.core.pipeline import (
    AggregateStage,
    AlertPipeline,
    ClassifyStage,
    FilterStage,
    RetryStage,
    RouteStage,
    default_stages,
)
from repro.net import ChannelType, LatencyModel
from repro.sim import MINUTE
from repro.world import SimbaWorld, WorldConfig

from tests.golden_scenario import run_golden_scenario

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)
EMAIL_FIXED = LatencyModel(median=20.0, sigma=0.0, low=0.0, high=100.0)


def make_rig(seed=1, admission=None):
    """A deployment plus a standalone pipeline over its configuration."""
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
    deployment.config.classifier.accept_source("portal")
    deployment.config.admission = admission
    # Bring up the client software (normally MyAlertBuddy.start does this),
    # but do NOT launch a buddy: the stages run in isolation here, and a
    # live inbox loop would steal re-queued retries before we can assert.
    deployment.endpoint.start()
    pipeline = AlertPipeline(
        world.env,
        config=deployment.config,
        endpoint=deployment.endpoint,
        log=deployment.log,
        journal=deployment.journal,
        rng=deployment.rng,
    )
    return world, user, deployment, pipeline


def make_incoming(world, keyword="News", source="portal", **kwargs):
    alert = Alert(
        source=source,
        keyword=keyword,
        subject=f"{keyword} headline",
        body="body",
        created_at=world.env.now,
        keyword_field="keyword",
    )
    return IncomingAlert(
        alert=alert,
        via=ChannelType.IM,
        sender=source,
        received_at=world.env.now,
        **kwargs,
    )


def run_stage(world, stage, ctx, until=MINUTE):
    world.env.process(stage.run(ctx), name=f"stage-{stage.name}")
    world.run(until=world.env.now + until)
    return ctx


def run_trip(world, pipeline, incoming, until=5 * MINUTE):
    """One trip through ``pipeline.process``; returns its context."""
    result = {}

    def runner(env):
        result["ctx"] = yield from pipeline.process(incoming)

    world.env.process(runner(world.env))
    world.run(until=world.env.now + until)
    return result["ctx"]


def schedule_retry(pipeline, deployment, incoming):
    """Run the retry stage on a trip whose one subscriber failed."""
    ctx = pipeline.make_context(incoming)
    ctx.subscriptions = deployment.config.subscriptions.subscriptions_for("News")
    ctx.failed_users = {"alice"}
    for _ in RetryStage().run(ctx):
        pass  # synchronous: only the re-queue process waits
    return ctx


def copy_of(world, incoming, via=ChannelType.EMAIL, **kwargs):
    """Another incoming copy of the same alert (a fallback, a replay)."""
    return IncomingAlert(
        alert=incoming.alert, via=via, sender="portal",
        received_at=world.env.now, **kwargs,
    )


HARDENED = AdmissionConfig.hardened()


class TestClassifyStage:
    def test_accepted_source_extracts_keyword(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world))
        run_stage(world, ClassifyStage(), ctx)
        assert ctx.keyword == "News"
        assert not ctx.finished

    def test_unaccepted_source_rejects(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world, source="rogue"))
        run_stage(world, ClassifyStage(), ctx)
        assert ctx.finished
        assert ctx.outcome_kind == "rejected"
        assert pipeline.journal.count("rejected") == 1

    def test_pays_processing_latency(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world))
        start = world.env.now
        run_stage(world, ClassifyStage(), ctx)
        low = pipeline.config.processing_latency.low
        assert world.env.now >= start + low >= start


class TestAggregateStage:
    def test_mapped_keyword_sets_category(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world))
        ctx.keyword = "News"
        run_stage(world, AggregateStage(), ctx)
        assert ctx.category == "News"
        assert not ctx.finished

    def test_unmapped_keyword_finishes(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world, keyword="Gossip"))
        ctx.keyword = "Gossip"
        run_stage(world, AggregateStage(), ctx)
        assert ctx.finished
        assert ctx.outcome_kind == "unmapped"
        (event,) = [e for e in pipeline.journal.events if e.kind == "unmapped"]
        assert "Gossip" in event.detail


class TestFilterStage:
    def test_enabled_category_passes(self):
        world, _user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world))
        ctx.category = "News"
        run_stage(world, FilterStage(), ctx)
        assert not ctx.finished

    def test_disabled_category_is_filtered(self):
        world, _user, deployment, pipeline = make_rig()
        deployment.config.filters.disable_category("News")
        ctx = pipeline.make_context(make_incoming(world))
        ctx.category = "News"
        run_stage(world, FilterStage(), ctx)
        assert ctx.finished
        assert ctx.outcome_kind == "filtered"
        assert pipeline.journal.count("filtered") == 1


class TestRouteStage:
    def test_no_subscribers_finishes(self):
        world, _user, deployment, pipeline = make_rig()
        deployment.config.subscriptions.register_category("Orphan")
        ctx = pipeline.make_context(make_incoming(world))
        ctx.category = "Orphan"
        run_stage(world, RouteStage(), ctx)
        assert ctx.finished
        assert ctx.outcome_kind == "no_subscribers"

    def test_delivers_and_records_routed(self):
        world, user, _deployment, pipeline = make_rig()
        ctx = pipeline.make_context(make_incoming(world))
        ctx.category = "News"
        run_stage(world, RouteStage(), ctx)
        assert not ctx.finished  # routing leaves the verdict to RetryStage
        assert ctx.failed_users == set()
        assert pipeline.journal.count("routed") == 1
        assert len(user.receipts) == 1

    def test_failed_subscriber_lands_in_failed_users(self):
        world, user, _deployment, pipeline = make_rig()
        user.set_present(False)
        world.email.set_available(False)
        ctx = pipeline.make_context(make_incoming(world))
        ctx.category = "News"
        run_stage(world, RouteStage(), ctx, until=5 * MINUTE)
        assert ctx.failed_users == {"alice"}
        assert pipeline.journal.count("delivery_failed") == 1

    def test_retry_users_restricts_subscribers(self):
        world, user, deployment, pipeline = make_rig()
        bob = world.create_user("bob", present=True)
        deployment.register_user_endpoint(bob)
        deployment.config.subscriptions.subscribe("News", "bob", "digest")
        incoming = make_incoming(world, retry_users=frozenset({"bob"}))
        ctx = pipeline.make_context(incoming)
        ctx.category = "News"
        run_stage(world, RouteStage(), ctx, until=5 * MINUTE)
        assert [s.user for s in ctx.subscriptions] == ["bob"]
        assert len(bob.receipts) == 1
        assert user.receipts == []  # alice already got her copy


class TestRetryStage:
    def test_partial_failure_requeues_only_failed_users(self):
        world, _user, deployment, pipeline = make_rig()
        bob = world.create_user("bob", present=True)
        deployment.register_user_endpoint(bob)
        deployment.config.subscriptions.subscribe("News", "bob", "digest")
        deployment.config.delivery_retry_delay = 60.0
        incoming = make_incoming(world)
        ctx = pipeline.make_context(incoming)
        ctx.category = "News"
        ctx.subscriptions = (
            deployment.config.subscriptions.subscriptions_for("News")
        )
        ctx.failed_users = {"bob"}
        run_stage(world, RetryStage(), ctx, until=5 * MINUTE)
        assert ctx.outcome_kind == "retry_scheduled"
        # Partial success: the alert's status says routed so the
        # successful subscriber never receives a duplicate...
        status = pipeline.log.status[incoming.alert.alert_id]
        assert (status.state, status.routed) == ("partial", True)
        # ...and after the retry delay, a retry lands in the inbox addressed
        # to the failed subscriber only.
        retries = [
            item
            for item in deployment.endpoint.alert_inbox.items
            if item.retry_users is not None
        ]
        assert len(retries) == 1
        assert retries[0].retry_users == frozenset({"bob"})
        assert retries[0].attempts == 1

    def test_exhausted_attempts_abandon(self):
        world, _user, deployment, pipeline = make_rig()
        deployment.config.delivery_max_attempts = 2
        incoming = make_incoming(world, attempts=1)
        ctx = pipeline.make_context(incoming)
        ctx.category = "News"
        ctx.subscriptions = (
            deployment.config.subscriptions.subscriptions_for("News")
        )
        ctx.failed_users = {"alice"}
        run_stage(world, RetryStage(), ctx)
        assert ctx.outcome_kind == "delivery_abandoned"
        assert pipeline.journal.count("delivery_abandoned") == 1
        assert len(deployment.endpoint.alert_inbox.items) == 0

    def test_clean_success_marks_routed(self):
        world, _user, deployment, pipeline = make_rig()
        incoming = make_incoming(world)
        ctx = pipeline.make_context(incoming)
        ctx.subscriptions = (
            deployment.config.subscriptions.subscriptions_for("News")
        )
        run_stage(world, RetryStage(), ctx)
        assert ctx.outcome_kind == "routed"
        assert pipeline.log.status[incoming.alert.alert_id].state == "routed"


class TestPipelineAssembly:
    def test_default_stage_order_matches_paper(self):
        names = [stage.name for stage in default_stages()]
        assert names == ["classify", "aggregate", "filter", "route", "retry"]

    def test_duplicate_incoming_short_circuits(self):
        world, _user, _deployment, pipeline = make_rig()
        incoming = make_incoming(world)
        pipeline.log.status[incoming.alert.alert_id] = DeliveryStatus("routed")
        ctx = run_trip(world, pipeline, incoming, until=MINUTE)
        assert ctx.outcome_kind == "duplicate_incoming"
        assert pipeline.journal.count("duplicate_incoming") == 1

    def test_on_progress_fires_only_for_routing_outcomes(self):
        world, _user, _deployment, pipeline = make_rig()
        ticks = []
        pipeline.on_progress = lambda: ticks.append(world.env.now)

        def runner(env):
            yield from pipeline.process(make_incoming(world))
            yield from pipeline.process(make_incoming(world, keyword="Gossip"))

        world.env.process(runner(world.env))
        world.run(until=5 * MINUTE)
        assert len(ticks) == 1  # routed fired it; unmapped did not


class TestDeliveryStatus:
    """The log's one status per alert decides what a later copy becomes."""

    @pytest.mark.parametrize(
        "admission, kind",
        [(None, "duplicate_incoming"), (HARDENED, "dedup_suppressed")],
        ids=["unhardened", "hardened"],
    )
    def test_copy_of_a_settled_alert(self, admission, kind):
        world, user, deployment, pipeline = make_rig(admission=admission)
        incoming = make_incoming(world)
        assert run_trip(world, pipeline, incoming).outcome_kind == "routed"
        assert pipeline.log.status[incoming.alert.alert_id].state == "routed"
        copy = copy_of(world, incoming)
        assert run_trip(world, pipeline, copy).outcome_kind == kind
        assert pipeline.journal.count(kind) == 1
        assert len(user.receipts) == 1
        if admission is not None:
            summary = pipeline.admission.summary()
            assert summary["dedup_suppressed"] == 1
            assert summary["dedup_evicted"] == 0

    @pytest.mark.parametrize("admission", [None, HARDENED],
                             ids=["unhardened", "hardened"])
    def test_copy_during_a_retry_chain(self, admission):
        world, user, deployment, pipeline = make_rig(admission=admission)
        deployment.config.delivery_retry_delay = 10 * MINUTE
        incoming = make_incoming(world)
        ctx = schedule_retry(pipeline, deployment, incoming)
        assert ctx.outcome_kind == "retry_scheduled"
        status = pipeline.log.status[incoming.alert.alert_id]
        assert (status.state, status.routed) == ("retrying", False)
        other = run_trip(world, pipeline, make_incoming(world), until=MINUTE)
        assert other.outcome_kind == "routed"  # another alert still routes
        for via in (ChannelType.EMAIL, ChannelType.IM):
            copy = run_trip(world, pipeline, copy_of(world, incoming, via),
                            until=MINUTE)
            assert copy.outcome_kind == "duplicate_incoming"
        assert pipeline.journal.count("dedup_suppressed") == 0
        assert user.receipts and all(
            r.alert_id != incoming.alert.alert_id for r in user.receipts
        )

    def test_retry_budget_lives_on_the_log(self):
        """A new incarnation's pipeline over the same log finds the
        budget already spent: a crash does not refill it."""
        admission = AdmissionConfig(retry_budget=1)
        world, _user, deployment, pipeline = make_rig(admission=admission)
        incoming = make_incoming(world)
        assert schedule_retry(pipeline, deployment, incoming).outcome_kind \
            == "retry_scheduled"
        assert pipeline.log.status[incoming.alert.alert_id].retries == 1
        reborn = AlertPipeline(
            world.env, config=deployment.config,
            endpoint=deployment.endpoint, log=deployment.log,
            journal=deployment.journal, rng=deployment.rng,
        )
        retry = copy_of(world, incoming, attempts=1,
                        retry_users=frozenset({"alice"}))
        ctx = schedule_retry(reborn, deployment, retry)
        assert ctx.outcome_kind == "dead_lettered"
        assert pipeline.log.status[incoming.alert.alert_id].state == \
            "dead_lettered"
        assert incoming.alert.alert_id in reborn.admission.dead_letters


class TestBuddyJournal:
    def test_count_is_consistent_with_events(self):
        journal = BuddyJournal()
        for index in range(50):
            kind = ("routed", "filtered", "rejected")[index % 3]
            journal.record(float(index), kind, f"e{index}")
        for kind in ("routed", "filtered", "rejected", "never_recorded"):
            scanned = sum(1 for e in journal.events if e.kind == kind)
            assert journal.count(kind) == scanned
        assert journal.total_events == 50
        assert sum(journal.counts().values()) == 50

    def test_bounded_journal_keeps_exact_counts(self):
        journal = BuddyJournal(max_events=100)
        for index in range(1000):
            journal.record(float(index), "routed", f"e{index}")
        assert len(journal.events) == 100
        assert journal.count("routed") == 1000
        assert journal.total_events == 1000
        # The window retains the most recent events.
        assert journal.events[-1].detail == "e999"
        assert journal.events[0].detail == "e900"

    def test_unbounded_journal_drops_nothing(self):
        journal = BuddyJournal()
        for index in range(10):
            journal.record(float(index), "routed")
        assert journal.total_events == len(journal.events) == 10


class TestGoldenDeterminism:
    """The journal's bytes are the ``golden_journal`` row of
    ``tests/repin.py``; this keeps the scenario from going hollow."""

    def test_golden_covers_every_outcome_kind(self):
        journal = run_golden_scenario()
        for kind in (
            "routed", "unmapped", "filtered", "rejected",
            "duplicate_incoming", "no_subscribers", "retry_scheduled",
            "delivery_abandoned", "delivery_failed", "recovery_replay",
        ):
            assert journal.count(kind) >= 1, kind


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
