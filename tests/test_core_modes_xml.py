"""Unit + property tests for delivery modes and the XML codec."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Action,
    AddressBook,
    CommunicationBlock,
    DeliveryMode,
    UserAddress,
)
from repro.core.delivery_modes import im_ack_then_email
from repro.core.xml_codec import (
    address_book_from_xml,
    address_book_to_xml,
    delivery_mode_from_xml,
    delivery_mode_to_xml,
)
from repro.errors import ConfigurationError
from repro.net import ChannelType


class TestDeliveryModeModel:
    def test_block_requires_actions(self):
        with pytest.raises(ConfigurationError):
            CommunicationBlock(actions=[])

    def test_block_rejects_duplicate_actions(self):
        with pytest.raises(ConfigurationError):
            CommunicationBlock(actions=[Action("IM"), Action("IM")])

    def test_block_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            CommunicationBlock(actions=[Action("IM")], ack_timeout=0.0)

    def test_mode_requires_blocks(self):
        with pytest.raises(ConfigurationError):
            DeliveryMode(name="empty", blocks=[])

    def test_mode_requires_name(self):
        with pytest.raises(ConfigurationError):
            DeliveryMode(name="", blocks=[CommunicationBlock([Action("IM")])])

    def test_action_requires_ref(self):
        with pytest.raises(ConfigurationError):
            Action("")

    def test_referenced_addresses(self):
        mode = DeliveryMode(
            name="m",
            blocks=[
                CommunicationBlock([Action("IM")], require_ack=True),
                CommunicationBlock([Action("SMS"), Action("Email")]),
            ],
        )
        assert mode.referenced_addresses() == {"IM", "SMS", "Email"}

    def test_im_ack_then_email_canonical_shape(self):
        mode = im_ack_then_email("My IM", "My Email", ack_timeout=8.0)
        assert len(mode.blocks) == 2
        assert mode.blocks[0].require_ack and mode.blocks[0].ack_timeout == 8.0
        assert [a.address_ref for a in mode.blocks[0].actions] == ["My IM"]
        assert not mode.blocks[1].require_ack
        assert [a.address_ref for a in mode.blocks[1].actions] == ["My Email"]


class TestModeXml:
    def _sample(self):
        return DeliveryMode(
            name="Critical",
            blocks=[
                CommunicationBlock(
                    [Action("MSN IM")], require_ack=True, ack_timeout=15.0
                ),
                CommunicationBlock([Action("Cell SMS"), Action("Work email")]),
            ],
        )

    def test_roundtrip(self):
        mode = self._sample()
        restored = delivery_mode_from_xml(delivery_mode_to_xml(mode))
        assert restored == mode

    def test_figure4_shape_two_blocks(self):
        xml = delivery_mode_to_xml(self._sample())
        assert xml.count("<block") == 2
        assert xml.count("<action") == 3

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml("<deliveryMode name='x'><block>")

    def test_parse_rejects_wrong_root(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml("<notAMode/>")

    def test_parse_rejects_missing_name(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml(
                "<deliveryMode><block><action address='x'/></block></deliveryMode>"
            )

    def test_parse_rejects_action_without_address(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml(
                "<deliveryMode name='m'><block><action/></block></deliveryMode>"
            )

    def test_parse_rejects_unknown_elements(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml("<deliveryMode name='m'><frob/></deliveryMode>")
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml(
                "<deliveryMode name='m'><block><frob/></block></deliveryMode>"
            )

    def test_parse_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml(
                "<deliveryMode name='m'>"
                "<block requireAck='true' ackTimeout='soon'>"
                "<action address='IM'/></block></deliveryMode>"
            )

    def test_parse_rejects_bad_bool(self):
        with pytest.raises(ConfigurationError):
            delivery_mode_from_xml(
                "<deliveryMode name='m'><block requireAck='maybe'>"
                "<action address='IM'/></block></deliveryMode>"
            )

    _names = st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F
        ),
        min_size=1,
        max_size=12,
    )

    @given(
        name=_names,
        blocks=st.lists(
            st.tuples(
                st.lists(_names, min_size=1, max_size=4, unique=True),
                st.booleans(),
                st.floats(min_value=0.1, max_value=600.0, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_roundtrip_property(self, name, blocks):
        mode = DeliveryMode(
            name=name,
            blocks=[
                CommunicationBlock(
                    [Action(ref) for ref in refs],
                    require_ack=require_ack,
                    ack_timeout=timeout,
                )
                for refs, require_ack, timeout in blocks
            ],
        )
        restored = delivery_mode_from_xml(delivery_mode_to_xml(mode))
        assert restored.name == mode.name
        assert len(restored.blocks) == len(mode.blocks)
        for got, want in zip(restored.blocks, mode.blocks):
            assert got.actions == want.actions
            assert got.require_ack == want.require_ack
            if want.require_ack:
                assert got.ack_timeout == want.ack_timeout


class TestAddressXml:
    def _book(self):
        book = AddressBook(owner="alice")
        book.add(UserAddress("MSN IM", ChannelType.IM, "alice@im"))
        book.add(
            UserAddress("Cell SMS", ChannelType.SMS, "+14255550100", enabled=False)
        )
        book.add(UserAddress("Work email", ChannelType.EMAIL, "alice@work"))
        return book

    def test_roundtrip_preserves_everything(self):
        book = self._book()
        restored = address_book_from_xml(address_book_to_xml(book))
        assert restored.owner == "alice"
        assert len(restored) == 3
        assert restored.get("Cell SMS").enabled is False
        assert restored.get("Cell SMS").channel is ChannelType.SMS
        assert restored.get("Work email").address == "alice@work"

    def test_type_tags_match_paper(self):
        xml = address_book_to_xml(self._book())
        for tag in ('type="IM"', 'type="SMS"', 'type="EM"'):
            assert tag in xml

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml(
                '<userAddresses owner="a">'
                '<address type="FAX" name="f">123</address></userAddresses>'
            )

    def test_parse_rejects_missing_owner(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml("<userAddresses/>")

    def test_parse_rejects_missing_attrs(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml(
                '<userAddresses owner="a"><address type="IM">x</address>'
                "</userAddresses>"
            )

    def test_parse_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml("<userAddresses owner='a'")

    def test_parse_rejects_wrong_child(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml(
                '<userAddresses owner="a"><phone>1</phone></userAddresses>'
            )


class TestAddressXmlErrors:
    def test_unparseable_document(self):
        with pytest.raises(ConfigurationError, match="malformed address XML"):
            address_book_from_xml("<userAddresses owner='a'>")

    def test_wrong_root_tag(self):
        with pytest.raises(ConfigurationError, match="expected <userAddresses>"):
            address_book_from_xml("<addresses owner='a'/>")

    def test_missing_owner(self):
        with pytest.raises(ConfigurationError, match="owner attribute"):
            address_book_from_xml("<userAddresses/>")

    def test_unexpected_child_element(self):
        with pytest.raises(ConfigurationError, match="unexpected element"):
            address_book_from_xml(
                "<userAddresses owner='a'><phone/></userAddresses>"
            )

    def test_address_missing_type_or_name(self):
        for attrs in ("name='x'", "type='IM'"):
            with pytest.raises(ConfigurationError, match="type and name"):
                address_book_from_xml(
                    f"<userAddresses owner='a'><address {attrs}>v</address>"
                    "</userAddresses>"
                )

    def test_unknown_channel_tag(self):
        with pytest.raises(ConfigurationError):
            address_book_from_xml(
                "<userAddresses owner='a'>"
                "<address type='FAX' name='f'>v</address></userAddresses>"
            )

    def test_invalid_enabled_boolean(self):
        with pytest.raises(ConfigurationError, match="invalid boolean"):
            address_book_from_xml(
                "<userAddresses owner='a'><address type='IM' name='i' "
                "enabled='maybe'>v</address></userAddresses>"
            )

    def test_round_trip_preserves_disabled_and_whitespace(self):
        book = AddressBook(owner="alice")
        book.add(UserAddress(friendly_name="MSN IM", channel=ChannelType.IM,
                             address="alice@im", enabled=False))
        parsed = address_book_from_xml(address_book_to_xml(book))
        restored = parsed.get("MSN IM")
        assert restored.enabled is False
        assert restored.address == "alice@im"


class TestDeliveryModeXmlErrors:
    def test_unparseable_document(self):
        with pytest.raises(ConfigurationError, match="malformed delivery-mode"):
            delivery_mode_from_xml("<deliveryMode name='x'")

    def test_wrong_root_tag(self):
        with pytest.raises(ConfigurationError, match="expected <deliveryMode>"):
            delivery_mode_from_xml("<mode name='x'/>")

    def test_missing_name(self):
        with pytest.raises(ConfigurationError, match="name attribute"):
            delivery_mode_from_xml("<deliveryMode/>")

    def test_empty_blocks_rejected(self):
        """A mode with no communication blocks has no way to deliver
        anything — §4.1 requires "one or more" blocks."""
        with pytest.raises(ConfigurationError, match=">= 1 communication"):
            delivery_mode_from_xml("<deliveryMode name='x'></deliveryMode>")

    def test_block_with_no_actions_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 action"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'><block/></deliveryMode>"
            )

    def test_unexpected_elements(self):
        with pytest.raises(ConfigurationError, match="unexpected element"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'><step/></deliveryMode>"
            )
        with pytest.raises(ConfigurationError, match="unexpected element"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'><block><go/></block></deliveryMode>"
            )

    def test_action_requires_address(self):
        with pytest.raises(ConfigurationError, match="requires an address"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'><block><action/></block>"
                "</deliveryMode>"
            )

    def test_invalid_ack_timeout(self):
        with pytest.raises(ConfigurationError, match="invalid ackTimeout"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'>"
                "<block requireAck='true' ackTimeout='soon'>"
                "<action address='IM'/></block></deliveryMode>"
            )

    def test_invalid_require_ack_boolean(self):
        with pytest.raises(ConfigurationError, match="invalid boolean"):
            delivery_mode_from_xml(
                "<deliveryMode name='x'><block requireAck='si'>"
                "<action address='IM'/></block></deliveryMode>"
            )

    def test_round_trip_preserves_ack_settings(self):
        mode = DeliveryMode(
            name="Critical",
            blocks=[
                CommunicationBlock(actions=[Action("IM")],
                                   require_ack=True, ack_timeout=7.5),
                CommunicationBlock(actions=[Action("SMS"), Action("Email")]),
            ],
        )
        parsed = delivery_mode_from_xml(delivery_mode_to_xml(mode))
        assert parsed.name == "Critical"
        assert parsed.blocks[0].require_ack is True
        assert parsed.blocks[0].ack_timeout == 7.5
        assert parsed.blocks[1].require_ack is False
        assert [a.address_ref for a in parsed.blocks[1].actions] == [
            "SMS", "Email",
        ]
