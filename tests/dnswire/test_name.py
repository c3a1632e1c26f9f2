"""Tests for domain-name wire encoding, compression, and 0x20."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dnswire.name import (
    NameCompressor,
    NameError_,
    apply_0x20,
    decode_name,
    encode_name,
    matches_0x20,
    normalize_name,
    random_0x20_bits,
    recover_0x20_bits,
    split_labels,
)

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=20).filter(
                    lambda s: not s.startswith("-"))
NAME = st.lists(LABEL, min_size=1, max_size=5).map(".".join)


class TestNormalize:
    def test_lowercases(self):
        assert normalize_name("WWW.Example.COM") == "www.example.com"

    def test_strips_trailing_dot(self):
        assert normalize_name("example.com.") == "example.com"

    def test_empty(self):
        assert normalize_name("") == ""

    def test_root(self):
        assert normalize_name(".") == ""


class TestSplitLabels:
    def test_basic(self):
        assert split_labels("a.b.c") == ["a", "b", "c"]

    def test_trailing_dot(self):
        assert split_labels("a.b.") == ["a", "b"]

    def test_empty(self):
        assert split_labels("") == []


class TestEncodeDecode:
    def test_simple_roundtrip(self):
        wire = encode_name("www.example.com")
        name, offset = decode_name(wire, 0)
        assert name == "www.example.com"
        assert offset == len(wire)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        name, offset = decode_name(b"\x00", 0)
        assert name == ""
        assert offset == 1

    def test_encoding_structure(self):
        assert encode_name("ab.c") == b"\x02ab\x01c\x00"

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            encode_name("a" * 64 + ".com")

    def test_name_too_long(self):
        with pytest.raises(NameError_):
            encode_name(".".join(["a" * 60] * 5))

    def test_truncated_decode(self):
        with pytest.raises(NameError_):
            decode_name(b"\x05ab", 0)

    def test_case_preserved_on_wire(self):
        name, __ = decode_name(encode_name("WwW.ExAmPle.com"), 0)
        assert name == "WwW.ExAmPle.com"

    @given(NAME)
    def test_roundtrip_property(self, name):
        decoded, offset = decode_name(encode_name(name), 0)
        assert decoded == name
        assert offset == len(encode_name(name))


class TestCompression:
    def test_pointer_reuse(self):
        compressor = NameCompressor()
        first = compressor.encode("example.com", 12)
        second = compressor.encode("www.example.com", 12 + len(first))
        # The suffix should have become a 2-byte pointer.
        assert len(second) < len(encode_name("www.example.com"))
        message = b"\x00" * 12 + first + second
        name, __ = decode_name(message, 12 + len(first))
        assert name == "www.example.com"

    def test_identical_name_is_pure_pointer(self):
        compressor = NameCompressor()
        first = compressor.encode("example.com", 12)
        second = compressor.encode("example.com", 12 + len(first))
        assert len(second) == 2

    @pytest.mark.parametrize("name", ["a..example.com",
                                      ".".join(["a" * 60] * 5)],
                             ids=["empty label", "305 bytes"])
    def test_refuses_what_encode_name_refuses(self, name):
        compressor = NameCompressor()
        compressor.encode("example.com", 12)
        with pytest.raises(NameError_):
            encode_name(name)
        with pytest.raises(NameError_):
            compressor.encode(name, 25)

    def test_decode_rejects_forward_pointer(self):
        # Pointer at offset 0 pointing to offset 10 (forward).
        data = bytes([0xC0, 10]) + b"\x00" * 12
        with pytest.raises(NameError_):
            decode_name(data, 0)

    def test_decode_rejects_pointer_loop(self):
        # Two pointers pointing at each other.
        data = bytes([0xC0, 2, 0xC0, 0])
        with pytest.raises(NameError_):
            decode_name(data, 2)


class Test0x20:
    def test_apply_all_ones(self):
        assert apply_0x20("abc.com", 0b111111) == "ABC.COM"

    def test_apply_all_zeros(self):
        assert apply_0x20("ABC.COM", 0) == "abc.com"

    def test_digits_skip_bits(self):
        # Digits consume no bits: bit 0 applies to 'a', bit 1 to 'b'.
        assert apply_0x20("a1b.com", 0b10) == "a1B.com"

    def test_recover_inverse(self):
        name = apply_0x20("facebook.com", 0b101010101)
        bits, count = recover_0x20_bits(name)
        assert bits == 0b101010101
        assert count == len("facebookcom")

    @given(NAME, st.integers(min_value=0, max_value=2 ** 30))
    def test_roundtrip_property(self, name, bits):
        cased = apply_0x20(name, bits)
        recovered, count = recover_0x20_bits(cased)
        assert recovered == bits & ((1 << count) - 1)
        assert normalize_name(cased) == normalize_name(name)

    def test_random_bits_cover_name(self):
        rng = random.Random(1)
        bits = random_0x20_bits("example.com", rng)
        assert 0 <= bits < (1 << len("examplecom"))

    def test_random_bits_no_alpha(self):
        rng = random.Random(1)
        assert random_0x20_bits("123.456", rng) == 0

    def test_matches_exact(self):
        assert matches_0x20("ExAmple.com", "ExAmple.com")
        assert not matches_0x20("ExAmple.com", "example.com")
