"""Unit + property tests for Alert, UserAddress/AddressBook."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import Alert, AlertSeverity, AddressBook, UserAddress
from repro.core import alert as alert_module
from repro.errors import AddressUnknownError, ConfigurationError
from repro.net import ChannelType
from repro.world import SimbaWorld, WorldConfig


def make_alert(**overrides):
    defaults = dict(
        source="aladdin",
        keyword="Sensor ON",
        subject="Basement Water Sensor ON",
        body="water detected at 3cm",
        created_at=123.5,
        severity=AlertSeverity.CRITICAL,
    )
    defaults.update(overrides)
    return Alert(**defaults)


#: Any header or body character: the escaped ones, the separator and
#: non-ASCII ones.
WIRE_CHARS = st.one_of(
    st.sampled_from("\n\r\\= "),
    st.characters(blacklist_categories=("Cs",)),
)
#: Any header value, empty included.
WIRE_TEXT = st.text(alphabet=WIRE_CHARS, max_size=40)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def wire_fields(alert):
    """Every field of ``alert`` with its type: ``==`` alone would let a
    ``np.float64`` pass for a ``float``."""
    return [
        (f.name, getattr(alert, f.name), type(getattr(alert, f.name)))
        for f in dataclasses.fields(alert)
        if f.compare
    ]


class TestAlert:
    def test_ids_unique(self):
        assert make_alert().alert_id != make_alert().alert_id

    def test_mab_forwards_the_text_it_logged_and_received(self, monkeypatch):
        """§4.2.1: MAB saves a copy of the IM it received, then forwards
        the alert — the very ``str`` the source sent, not a re-encoding."""
        decoded: list[str] = []
        decode = Alert.decode
        monkeypatch.setattr(
            Alert, "decode",
            classmethod(lambda cls, text: decoded.append(text) or decode(text)),
        )
        world = SimbaWorld(WorldConfig(seed=1, email_loss=0.0, sms_loss=0.0))
        user = world.create_user("alice", present=True)
        deployment = world.create_buddy(user)
        deployment.register_user_endpoint(user)
        deployment.subscribe("News", user, "normal", keywords=["News"])
        source = world.create_source("portal")
        source.add_target(deployment.source_facing_book())
        deployment.config.classifier.accept_source("portal")
        deployment.launch()
        world.run(until=60.0)
        alert, _process = source.emit("News", "h", "b")
        world.run(until=300.0)
        sent = alert.encode()
        logged = deployment.log.entry_for_alert(alert.alert_id).payload
        # MAB's decode of what it received, then the user's of what MAB
        # forwarded.
        assert len(decoded) == 2
        received, forwarded = decoded
        assert received is sent and logged is sent and forwarded is sent
        assert [r.alert_id for r in user.receipts] == [alert.alert_id]

    def test_encode_decode_roundtrip(self):
        alert = make_alert()
        decoded = Alert.decode(alert.encode())
        assert decoded.alert_id == alert.alert_id
        assert decoded.source == alert.source
        assert decoded.keyword == alert.keyword
        assert decoded.subject == alert.subject
        assert decoded.body == alert.body
        assert decoded.created_at == alert.created_at
        assert decoded.severity == alert.severity

    @pytest.mark.parametrize(
        "value",
        [
            "plain subject",  # no backslash: returned untouched
            "back\\slash",
            "two\nlines",
            "carriage\rreturn",
            "literal \\n is not a newline",
            "ends with a backslash\\",
            "\\\n\r\\",
        ],
    )
    def test_header_values_roundtrip_escapes(self, value):
        alert = make_alert(subject=value, keyword=value, source=value)
        decoded = Alert.decode(alert.encode())
        assert decoded.subject == value
        assert decoded.keyword == value
        assert decoded.source == value
        assert decoded.body == alert.body

    def test_unescape_branches(self):
        untouched = "no escapes here"
        assert Alert._unescape(untouched) is untouched
        assert Alert._unescape("a\\nb\\rc\\\\d") == "a\nb\rc\\d"
        # A lone trailing backslash (never produced by _escape) is dropped,
        # an unknown escape keeps the escaped character.
        assert Alert._unescape("tail\\") == "tail"
        assert Alert._unescape("\\x") == "x"

    def test_decode_rejects_non_alert(self):
        with pytest.raises(ValueError):
            Alert.decode("just an ordinary message")

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            Alert.decode("SIMBA-ALERT/1\nid=x\n\nbody")

    def test_is_alert_payload(self):
        assert Alert.is_alert_payload(make_alert().encode())
        assert not Alert.is_alert_payload("hello")

    @given(
        source=WIRE_TEXT,
        keyword=WIRE_TEXT,
        subject=WIRE_TEXT,
        body=st.text(alphabet=WIRE_CHARS, max_size=500),
        keyword_field=WIRE_TEXT,
        alert_id=WIRE_TEXT,
        created_at=st.one_of(FINITE, FINITE.map(np.float64)),
        severity=st.sampled_from(list(AlertSeverity)),
    )
    def test_wire_roundtrip_property(
        self, source, keyword, subject, body, keyword_field, alert_id,
        created_at, severity,
    ):
        alert = Alert(
            source=source, keyword=keyword, subject=subject, body=body,
            created_at=created_at, severity=severity,
            keyword_field=keyword_field, alert_id=alert_id,
        )
        text = alert.encode()
        warm = Alert.decode(text)  # the parse encode remembered
        alert_module._parse_memo.clear()
        cold = Alert.decode(text)  # parsed from the text alone
        assert warm == alert and cold == alert
        assert wire_fields(warm) == wire_fields(cold)
        assert type(cold.created_at) is float
        assert warm.encode() is text and cold.encode() is text


class TestAddressBook:
    def _book(self):
        book = AddressBook(owner="alice")
        book.add(UserAddress("MSN IM", ChannelType.IM, "alice@im"))
        book.add(UserAddress("Cell SMS", ChannelType.SMS, "+14255550100"))
        book.add(UserAddress("Work email", ChannelType.EMAIL, "alice@work"))
        return book

    def test_add_and_get(self):
        book = self._book()
        assert book.get("MSN IM").address == "alice@im"
        assert len(book) == 3
        assert "Cell SMS" in book

    def test_duplicate_name_rejected(self):
        book = self._book()
        with pytest.raises(ConfigurationError):
            book.add(UserAddress("MSN IM", ChannelType.IM, "other@im"))

    def test_get_unknown_raises(self):
        with pytest.raises(AddressUnknownError):
            self._book().get("Pager")

    def test_remove(self):
        book = self._book()
        book.remove("Cell SMS")
        assert "Cell SMS" not in book
        with pytest.raises(AddressUnknownError):
            book.remove("Cell SMS")

    def test_enable_disable(self):
        book = self._book()
        book.set_enabled("Cell SMS", False)
        assert not book.get("Cell SMS").enabled
        assert [a.friendly_name for a in book.enabled_addresses()] == [
            "MSN IM",
            "Work email",
        ]
        book.set_enabled("Cell SMS", True)
        assert book.get("Cell SMS").enabled

    def test_first_of_type_respects_enabled(self):
        book = self._book()
        assert book.first_of_type(ChannelType.SMS).address == "+14255550100"
        book.set_enabled("Cell SMS", False)
        assert book.first_of_type(ChannelType.SMS) is None

    def test_empty_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            UserAddress("", ChannelType.IM, "a@im")
        with pytest.raises(ConfigurationError):
            UserAddress("IM", ChannelType.IM, "")


class TestAlertWireDetails:
    def test_keyword_field_roundtrips(self):
        for field in ("subject", "sender", "keyword"):
            alert = make_alert(keyword_field=field)
            assert Alert.decode(alert.encode()).keyword_field == field

    def test_severity_values(self):
        assert AlertSeverity("routine") is AlertSeverity.ROUTINE
        assert AlertSeverity("critical") is AlertSeverity.CRITICAL

    def test_encode_contains_wire_version(self):
        assert make_alert().encode().startswith("SIMBA-ALERT/1\n")

    def test_body_with_blank_lines_preserved(self):
        alert = make_alert(body="para one\n\npara two\n\n\npara three")
        assert Alert.decode(alert.encode()).body == (
            "para one\n\npara two\n\n\npara three"
        )

    def test_header_with_newline_subject_survives(self):
        alert = make_alert(subject="line1\nline2")
        decoded = Alert.decode(alert.encode())
        assert decoded.subject == "line1\nline2"
        assert decoded.body == alert.body
