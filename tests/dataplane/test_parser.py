"""Tests for parser field-set declarations."""

import pytest

from repro.dataplane import HeaderParser


class TestParse:
    def test_unknown_base_field_rejected(self):
        with pytest.raises(ValueError):
            HeaderParser.of("p", base=("not_a_field",))


class TestComposition:
    def test_requirement_grows_with_fields(self):
        small = HeaderParser.of("s", base=("src",))
        big = HeaderParser.of("b", base=("src", "dst", "ttl"))
        assert big.resource_requirement().sram_mb > \
            small.resource_requirement().sram_mb

    def test_parsers_cost_no_stages(self):
        # Parsers run in the dedicated parser block, not match stages.
        five_tuple = HeaderParser.of(
            "ft", base=("src", "dst", "proto", "sport", "dport", "ttl"))
        assert five_tuple.resource_requirement().stages == 0
