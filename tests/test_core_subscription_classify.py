"""Unit tests for SubscriptionLayer, AlertClassifier, CategoryAggregator,
FilterPolicy."""

import pytest

from repro.core import (
    Action,
    AddressBook,
    Alert,
    AlertClassifier,
    CommunicationBlock,
    DeliveryMode,
    ExtractionRule,
    FilterDecision,
    FilterPolicy,
    SubscriptionLayer,
    TimeWindow,
    UserAddress,
)
from repro.core.aggregator import CategoryAggregator
from repro.errors import AlertRejected, ConfigurationError, SubscriptionError
from repro.net import ChannelType
from repro.sim import DAY, HOUR


def make_layer():
    layer = SubscriptionLayer()
    book = AddressBook(owner="alice")
    book.add(UserAddress("IM", ChannelType.IM, "alice@im"))
    book.add(UserAddress("Email", ChannelType.EMAIL, "alice@mail"))
    layer.register_user("alice", book)
    layer.register_mode(
        "alice",
        DeliveryMode(
            "urgent",
            [CommunicationBlock([Action("IM")], require_ack=True)],
        ),
    )
    layer.register_category("Investment")
    return layer


class TestSubscriptionLayer:
    def test_register_and_subscribe(self):
        layer = make_layer()
        sub = layer.subscribe("Investment", "alice", "urgent")
        assert layer.subscriptions_for("Investment") == [sub]
        assert layer.subscriptions_of_user("alice") == [sub]

    def test_duplicate_user_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError):
            layer.register_user("alice", AddressBook(owner="alice"))

    def test_unknown_user_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError):
            layer.address_book("bob")
        with pytest.raises(SubscriptionError):
            layer.mode("bob", "urgent")

    def test_mode_with_unknown_address_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError, match="Pager"):
            layer.register_mode(
                "alice",
                DeliveryMode("bad", [CommunicationBlock([Action("Pager")])]),
            )

    def test_subscribe_unknown_category_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError):
            layer.subscribe("Sports", "alice", "urgent")

    def test_subscribe_unknown_mode_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError):
            layer.subscribe("Investment", "alice", "digest")

    def test_double_subscribe_rejected(self):
        layer = make_layer()
        layer.subscribe("Investment", "alice", "urgent")
        with pytest.raises(SubscriptionError):
            layer.subscribe("Investment", "alice", "urgent")

    def test_unsubscribe_then_resubscribe_changes_mode(self):
        layer = make_layer()
        layer.register_mode(
            "alice",
            DeliveryMode("digest", [CommunicationBlock([Action("Email")])]),
        )
        layer.subscribe("Investment", "alice", "urgent")
        layer.unsubscribe("Investment", "alice")
        sub = layer.subscribe("Investment", "alice", "digest")
        assert sub.mode_name == "digest"

    def test_unsubscribe_nonexistent_rejected(self):
        layer = make_layer()
        with pytest.raises(SubscriptionError):
            layer.unsubscribe("Investment", "alice")

    def test_multiple_subscribers_per_category(self):
        layer = make_layer()
        book = AddressBook(owner="bob")
        book.add(UserAddress("IM", ChannelType.IM, "bob@im"))
        layer.register_user("bob", book)
        layer.register_mode(
            "bob", DeliveryMode("urgent", [CommunicationBlock([Action("IM")])])
        )
        layer.subscribe("Investment", "alice", "urgent")
        layer.subscribe("Investment", "bob", "urgent")
        assert {s.user for s in layer.subscriptions_for("Investment")} == {
            "alice",
            "bob",
        }

    def test_empty_category_rejected(self):
        with pytest.raises(SubscriptionError):
            make_layer().register_category("")

    def test_modes_for(self):
        layer = make_layer()
        assert [m.name for m in layer.modes_for("alice")] == ["urgent"]


def make_alert(source="yahoo", subject="MSFT up 3%", keyword="Stocks"):
    return Alert(
        source=source,
        keyword=keyword,
        subject=subject,
        body="body",
        created_at=0.0,
    )


class TestClassifier:
    def test_unaccepted_source_rejected(self):
        classifier = AlertClassifier()
        with pytest.raises(AlertRejected):
            classifier.classify(make_alert())

    def test_keyword_field_rule_uses_structured_keyword(self):
        classifier = AlertClassifier()
        classifier.accept_source("yahoo")
        assert classifier.classify(make_alert(keyword="Stocks")) == "Stocks"

    def test_sender_name_extraction_yahoo_style(self):
        # "keywords in alerts from Yahoo! appear as part of the email sender
        # name" — e.g. sender "Yahoo! Alerts (Stocks)".
        classifier = AlertClassifier()
        classifier.accept_source(
            "yahoo",
            ExtractionRule(source="yahoo", field="sender", prefix="(", suffix=")"),
        )
        keyword = classifier.classify(
            make_alert(), sender="Yahoo! Alerts (Stocks)"
        )
        assert keyword == "Stocks"

    def test_subject_extraction_msn_style(self):
        # "keywords in MSN Mobile alerts reside in the email subject field".
        classifier = AlertClassifier()
        classifier.accept_source(
            "msn-mobile",
            ExtractionRule(
                source="msn-mobile", field="subject", prefix="[", suffix="]"
            ),
        )
        alert = make_alert(source="msn-mobile", subject="[Weather] Rain today")
        assert classifier.classify(alert) == "Weather"

    def test_missing_prefix_rejected(self):
        classifier = AlertClassifier()
        classifier.accept_source(
            "msn-mobile",
            ExtractionRule(
                source="msn-mobile", field="subject", prefix="[", suffix="]"
            ),
        )
        with pytest.raises(AlertRejected):
            classifier.classify(make_alert(source="msn-mobile", subject="plain"))

    def test_empty_keyword_rejected(self):
        classifier = AlertClassifier()
        classifier.accept_source(
            "svc",
            ExtractionRule(source="svc", field="subject", prefix="[", suffix="]"),
        )
        with pytest.raises(AlertRejected):
            classifier.classify(make_alert(source="svc", subject="[ ] hm"))

    def test_service_list_maintained(self):
        classifier = AlertClassifier()
        classifier.accept_source(
            "yahoo", unsubscribe_info="visit alerts.yahoo.com"
        )
        classifier.classify(make_alert())
        classifier.classify(make_alert())
        (record,) = classifier.subscribed_services()
        assert record.alerts_seen == 2
        assert record.unsubscribe_info == "visit alerts.yahoo.com"

    def test_drop_source(self):
        classifier = AlertClassifier()
        classifier.accept_source("yahoo")
        classifier.drop_source("yahoo")
        assert not classifier.is_accepted("yahoo")
        with pytest.raises(AlertRejected):
            classifier.classify(make_alert())

    def test_rule_source_mismatch_rejected(self):
        classifier = AlertClassifier()
        with pytest.raises(ConfigurationError):
            classifier.accept_source("yahoo", ExtractionRule(source="cnn"))

    def test_invalid_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ExtractionRule(source="x", field="footer")


class TestAggregator:
    def test_paper_investment_aggregation(self):
        agg = CategoryAggregator()
        agg.map_keywords(
            ["Stocks", "Financial news", "Earnings reports"], "Investment"
        )
        for keyword in ("Stocks", "Financial news", "Earnings reports"):
            assert agg.category_for(keyword) == "Investment"

    def test_case_insensitive(self):
        agg = CategoryAggregator()
        agg.map_keyword("Stocks", "Investment")
        assert agg.category_for("STOCKS") == "Investment"

    def test_default_category(self):
        agg = CategoryAggregator(default_category="Misc")
        assert agg.category_for("whatever") == "Misc"

    def test_no_default_returns_none(self):
        assert CategoryAggregator().category_for("whatever") is None

    def test_subcategorization_for_filtering(self):
        # §4.2: map "Sensor ON" and "Sensor OFF" to different subcategories.
        agg = CategoryAggregator()
        agg.map_keyword("Sensor ON", "Home Emergency")
        agg.map_keyword("Sensor OFF", "Home Routine")
        assert agg.category_for("Sensor ON") == "Home Emergency"
        assert agg.category_for("Sensor OFF") == "Home Routine"

    def test_remap_and_unmap(self):
        agg = CategoryAggregator()
        agg.map_keyword("Stocks", "Investment")
        agg.map_keyword("Stocks", "Noise")
        assert agg.category_for("Stocks") == "Noise"
        agg.unmap_keyword("Stocks")
        assert agg.category_for("Stocks") is None

    def test_keywords_for(self):
        agg = CategoryAggregator()
        agg.map_keywords(["b", "a"], "X")
        agg.map_keyword("c", "Y")
        assert agg.keywords_for("X") == ["a", "b"]

    def test_known_categories(self):
        agg = CategoryAggregator(default_category="Misc")
        agg.map_keyword("a", "X")
        assert agg.known_categories() == {"X", "Misc"}

    def test_empty_rejected(self):
        agg = CategoryAggregator()
        with pytest.raises(ConfigurationError):
            agg.map_keyword("", "X")
        with pytest.raises(ConfigurationError):
            agg.map_keyword("a", "")


class TestFilterPolicy:
    def test_default_is_deliver(self):
        assert FilterPolicy().evaluate("X", 0.0) is FilterDecision.DELIVER

    def test_disable_enable(self):
        policy = FilterPolicy()
        policy.disable_category("X")
        assert policy.evaluate("X", 0.0) is FilterDecision.CATEGORY_DISABLED
        assert policy.is_disabled("X")
        policy.enable_category("X")
        assert policy.evaluate("X", 0.0) is FilterDecision.DELIVER

    def test_delivery_window_blocks_outside(self):
        policy = FilterPolicy()
        policy.set_delivery_window("X", TimeWindow(9 * HOUR, 17 * HOUR))
        assert policy.evaluate("X", 10 * HOUR) is FilterDecision.DELIVER
        assert (
            policy.evaluate("X", 20 * HOUR)
            is FilterDecision.OUTSIDE_DELIVERY_WINDOW
        )
        # Next day, same wall time.
        assert policy.evaluate("X", DAY + 10 * HOUR) is FilterDecision.DELIVER

    def test_window_wrapping_midnight(self):
        window = TimeWindow(22 * HOUR, 7 * HOUR)
        assert window.contains(23 * HOUR)
        assert window.contains(3 * HOUR)
        assert not window.contains(12 * HOUR)

    def test_window_boundaries_half_open(self):
        window = TimeWindow(9 * HOUR, 17 * HOUR)
        assert window.contains(9 * HOUR)
        assert not window.contains(17 * HOUR)

    def test_clear_window(self):
        policy = FilterPolicy()
        policy.set_delivery_window("X", TimeWindow(9 * HOUR, 10 * HOUR))
        policy.clear_delivery_window("X")
        assert policy.evaluate("X", 0.0) is FilterDecision.DELIVER

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeWindow(5.0, 5.0)
        with pytest.raises(ConfigurationError):
            TimeWindow(-1.0, 5.0)
        with pytest.raises(ConfigurationError):
            TimeWindow(0.0, DAY)

    def test_disabled_beats_window(self):
        policy = FilterPolicy()
        policy.disable_category("X")
        policy.set_delivery_window("X", TimeWindow(0.0, 10.0))
        assert policy.evaluate("X", 5.0) is FilterDecision.CATEGORY_DISABLED


def test_extraction_rule_suffix_missing_rejected():
    from repro.core import Alert

    rule = ExtractionRule(source="s", field="subject", prefix="[", suffix="]")
    alert = Alert(source="s", keyword="k", subject="[Stocks no closer",
                  body="b", created_at=0.0)
    with pytest.raises(AlertRejected, match="suffix"):
        rule.extract(alert, sender="")


def test_extraction_rule_no_decoration_takes_whole_field():
    from repro.core import Alert

    rule = ExtractionRule(source="s", field="subject")
    alert = Alert(source="s", keyword="k", subject="  Weather  ",
                  body="b", created_at=0.0)
    assert rule.extract(alert, sender="") == "Weather"
