"""Tests for repro.util.prefixes."""

import copy
import pickle

import pytest

from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix, format_ipv4, parse_ipv4


class TestParseFormat:
    def test_parse_simple_address(self):
        assert parse_ipv4("10.0.0.1") == (10 << 24) + 1

    def test_parse_zero_address(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_parse_broadcast_address(self):
        assert parse_ipv4("255.255.255.255") == (1 << 32) - 1

    def test_format_round_trip(self):
        for text in ["192.168.1.42", "8.8.8.8", "172.16.254.1"]:
            assert format_ipv4(parse_ipv4(text)) == text

    def test_parse_rejects_too_few_octets(self):
        with pytest.raises(ValidationError):
            parse_ipv4("10.0.0")

    def test_parse_rejects_octet_overflow(self):
        with pytest.raises(ValidationError):
            parse_ipv4("10.0.0.256")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            parse_ipv4("10.0.x.1")

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            format_ipv4(1 << 32)

    # Non-ASCII digits pass str.isdigit(), but an octet is ASCII only:
    # int() raises ValueError on "\u00b2" (superscript two) and reads
    # "\u0663" (Arabic-Indic three) as 3.
    @pytest.mark.parametrize(
        "text",
        ["", "10.0.0", "10.0.0.0.0", "10..0.1", "10.0.0.-1", " 10.0.0.1", "10.0.0.1 ",
         "0x0a.0.0.1", "10.0.0.\u00b2", "10.0.0.\u0663"],
    )
    def test_parse_rejects_malformed_address(self, text):
        with pytest.raises(ValidationError):
            parse_ipv4(text)


class TestPrefixBasics:
    def test_parse_prefix_string(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.length == 8
        assert str(prefix) == "10.0.0.0/8"

    def test_bare_address_is_host_prefix(self):
        prefix = Prefix.parse("10.1.2.3")
        assert prefix.length == 32

    def test_network_address_is_masked(self):
        prefix = Prefix.parse("10.1.2.3/8")
        assert str(prefix) == "10.0.0.0/8"

    def test_interning_returns_same_object(self):
        assert Prefix.parse("10.0.0.0/24") is Prefix.parse("10.0.0.0/24")

    def test_pickle_and_deepcopy_return_the_interned_instance(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert pickle.loads(pickle.dumps(prefix)) is prefix
        assert copy.deepcopy({"key": prefix})["key"] is prefix

    def test_equal_prefixes_hash_equal(self):
        assert hash(Prefix.parse("10.0.0.0/24")) == hash(Prefix(10 << 24, 24))

    def test_prefixes_are_immutable(self):
        prefix = Prefix.parse("10.0.0.0/24")
        with pytest.raises(AttributeError):
            prefix.length = 8

    def test_invalid_length_rejected(self):
        with pytest.raises(ValidationError):
            Prefix(0, 33)

    def test_invalid_length_string_rejected(self):
        with pytest.raises(ValidationError):
            Prefix.parse("10.0.0.0/abc")

    @pytest.mark.parametrize(
        "text",
        ["10.0.0.0/", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/8/8", "/8", "10.0.0.0/\u0663"],
    )
    def test_parse_rejects_malformed_prefix(self, text):
        with pytest.raises(ValidationError):
            Prefix.parse(text)

    def test_ordering_is_by_network_then_length(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert sorted([c, b, a]) == [a, b, c]
