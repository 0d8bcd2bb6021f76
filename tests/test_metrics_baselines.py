"""Unit tests for metrics helpers and baseline delivery strategies."""

import math

import pytest

from repro.baselines import BlanketRedundantDelivery, EmailOnlyDelivery
from repro.core import Alert, AlertSeverity
from repro.metrics import LatencyCollector, format_table, summarize
from repro.net import ChannelType, LatencyModel
from repro.world import SimbaWorld, WorldConfig

FIXED = LatencyModel(median=10.0, sigma=0.0, low=0.0, high=100.0)


class TestStats:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.median == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0

    def test_summarize_empty_gives_nans(self):
        summary = summarize([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_percentiles_ordered(self):
        summary = summarize(list(range(1000)))
        assert summary.median <= summary.p90 <= summary.p95 <= summary.maximum

    def test_row_renders(self):
        row = summarize([1.0]).row("label")
        assert "label" in row and "n=1" in row


class TestCollector:
    def test_record_and_summary(self):
        collector = LatencyCollector()
        collector.record("im", 1.0)
        collector.record("im", 3.0)
        collector.extend("email", [10.0, 20.0])
        assert collector.summary("im").mean == 2.0
        assert collector.samples("email") == [10.0, 20.0]
        assert collector.labels() == ["email", "im"]

    def test_report_contains_all_labels(self):
        collector = LatencyCollector()
        collector.record("a", 1.0)
        collector.record("b", 2.0)
        report = collector.report()
        assert "a" in report and "b" in report

    def test_unknown_label_empty_summary(self):
        assert LatencyCollector().summary("ghost").count == 0


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(
            ["name", "value"], [["x", 1.5], ["long-name", 20]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.50" in table

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        table = format_table(["a"], [])
        assert "a" in table


def make_alert(env, severity=AlertSeverity.ROUTINE):
    return Alert(
        source="bench",
        keyword="News",
        subject="subject",
        body="body",
        created_at=env.now,
        severity=severity,
    )


class TestBaselines:
    def _world(self):
        return SimbaWorld(
            WorldConfig(
                seed=1,
                email_latency=FIXED,
                email_loss=0.0,
                sms_latency=FIXED,
                sms_loss=0.0,
            )
        )

    def test_email_only_sends_one_message(self):
        world = self._world()
        user = world.create_user("u")
        strategy = EmailOnlyDelivery(world.env, world.email)
        strategy.deliver(make_alert(world.env), user)
        world.run(until=60.0)
        assert strategy.messages_sent == 1
        assert len(user.receipts) == 1
        assert user.receipts[0].channel is ChannelType.EMAIL

    def test_redundant_sends_four_messages(self):
        world = self._world()
        user = world.create_user("u")
        strategy = BlanketRedundantDelivery(
            world.env, world.email, world.sms
        )
        assert strategy.name == "redundant-2em+2sms"
        strategy.deliver(make_alert(world.env), user)
        world.run(until=60.0)
        assert strategy.messages_sent == 4
        assert len(user.receipts) == 4
        # All four are the same alert: three arrive as duplicates.
        assert user.duplicates_discarded() == 3
        assert len(user.unique_alerts_received()) == 1

    def test_redundant_configurable_counts(self):
        world = self._world()
        user = world.create_user("u")
        strategy = BlanketRedundantDelivery(
            world.env, world.email, world.sms, n_email=1, n_sms=3
        )
        strategy.deliver(make_alert(world.env), user)
        world.run(until=60.0)
        assert strategy.messages_sent == 4
        assert world.sms.stats.submitted == 3

    def test_redundant_rejects_zero_messages(self):
        world = self._world()
        with pytest.raises(ValueError):
            BlanketRedundantDelivery(
                world.env, world.email, world.sms, n_email=0, n_sms=0
            )

    def test_redundant_survives_channel_outage(self):
        world = self._world()
        user = world.create_user("u")
        world.sms.set_available(False)
        strategy = BlanketRedundantDelivery(world.env, world.email, world.sms)
        strategy.deliver(make_alert(world.env), user)
        world.run(until=60.0)
        # SMS submissions failed silently; the emails still went out.
        assert strategy.messages_sent == 2
        assert len(user.receipts) == 2


class TestCollectorExtend:
    def test_extend_accepts_a_generator(self):
        collector = LatencyCollector()
        collector.extend("ack", (float(v) for v in range(3)))
        assert collector.samples("ack") == [0.0, 1.0, 2.0]

    def test_extend_accepts_tuples_and_coerces(self):
        collector = LatencyCollector()
        collector.extend("ack", (1, 2))
        assert collector.samples("ack") == [1.0, 2.0]
        assert collector.summary("ack").count == 2

    def test_failing_iterable_records_nothing(self):
        def explode():
            yield 1.0
            raise RuntimeError("source died")

        collector = LatencyCollector()
        with pytest.raises(RuntimeError):
            collector.extend("ack", explode())
        assert collector.samples("ack") == []
