"""Tests for repro.util.prefixes."""

import copy
import pickle

import pytest

from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix, format_ipv4, longest_match, parse_ipv4


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


class TestPrefixBasics:
    def test_parse_prefix_string(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.length == 8
        assert str(prefix) == "10.0.0.0/8"

    def test_bare_address_is_host_prefix(self):
        prefix = Prefix.parse("10.1.2.3")
        assert prefix.length == 32
        assert prefix.num_addresses == 1

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

    def test_ordering_is_by_network_then_length(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert sorted([c, b, a]) == [a, b, c]

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/24").num_addresses == 256

    def test_broadcast_address(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert format_ipv4(prefix.broadcast) == "10.0.0.255"

    def test_mask_value(self):
        assert Prefix.parse("0.0.0.0/0").mask == 0
        assert Prefix.parse("1.2.3.4/32").mask == (1 << 32) - 1


class TestContainment:
    def test_contains_address_inside(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains_address(parse_ipv4("10.200.3.4"))

    def test_does_not_contain_outside_address(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert not prefix.contains_address(parse_ipv4("11.0.0.1"))

    def test_contains_narrower_prefix(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))

    def test_does_not_contain_wider_prefix(self):
        assert not Prefix.parse("10.1.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_overlap_is_symmetric(self):
        wide = Prefix.parse("10.0.0.0/8")
        narrow = Prefix.parse("10.1.0.0/16")
        unrelated = Prefix.parse("192.168.0.0/16")
        assert wide.overlaps(narrow) and narrow.overlaps(wide)
        assert not wide.overlaps(unrelated)

    def test_default_route_contains_everything(self):
        assert Prefix.parse("0.0.0.0/0").contains(Prefix.parse("203.0.113.0/24"))


class TestSupernetSubnets:
    def test_supernet_one_bit(self):
        assert str(Prefix.parse("10.1.0.0/16").supernet()) == "10.0.0.0/15"

    def test_supernet_to_explicit_length(self):
        assert str(Prefix.parse("10.1.2.0/24").supernet(8)) == "10.0.0.0/8"

    def test_supernet_cannot_grow_longer(self):
        with pytest.raises(ValidationError):
            Prefix.parse("10.0.0.0/8").supernet(16)

    def test_subnets_split_in_two(self):
        subnets = list(Prefix.parse("10.0.0.0/24").subnets())
        assert [str(s) for s in subnets] == ["10.0.0.0/25", "10.0.0.128/25"]

    def test_subnets_explicit_length(self):
        subnets = list(Prefix.parse("10.0.0.0/30").subnets(32))
        assert len(subnets) == 4

    def test_subnets_cannot_shrink(self):
        with pytest.raises(ValidationError):
            list(Prefix.parse("10.0.0.0/24").subnets(16))


class TestLongestMatch:
    def test_most_specific_wins(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")]
        match = longest_match(prefixes, parse_ipv4("10.1.2.3"))
        assert str(match) == "10.1.0.0/16"

    def test_no_match_returns_none(self):
        prefixes = [Prefix.parse("10.0.0.0/8")]
        assert longest_match(prefixes, parse_ipv4("192.0.2.1")) is None
