"""Tests for 512-bit circular key-space arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.keyspace import (
    KEY_BITS,
    KEY_BYTES,
    KEY_SPACE,
    MAX_KEY,
    distance,
    hash_to_key,
    in_interval,
    interval_width,
    key_to_bytes,
    validate_key,
)
from tests.oracles import key_from_bytes

keys = st.integers(min_value=0, max_value=MAX_KEY)


class TestConstants:
    def test_key_width(self):
        assert KEY_BYTES == 64
        assert KEY_BITS == 512
        assert KEY_SPACE == 1 << 512


class TestValidation:
    def test_accepts_bounds(self):
        assert validate_key(0) == 0
        assert validate_key(MAX_KEY) == MAX_KEY

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_key(-1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            validate_key(KEY_SPACE)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            validate_key("abc")


class TestBytesRoundTrip:
    def test_zero(self):
        assert key_from_bytes(key_to_bytes(0)) == 0

    def test_max(self):
        assert key_from_bytes(key_to_bytes(MAX_KEY)) == MAX_KEY

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            key_from_bytes(b"\x00" * 63)

    @given(keys)
    def test_roundtrip(self, key):
        assert key_from_bytes(key_to_bytes(key)) == key

    @given(keys, keys)
    def test_byte_order_preserves_comparison(self, a, b):
        # Big-endian byte comparison must agree with integer comparison —
        # this is what makes lexicographic name order become ring order.
        assert (key_to_bytes(a) < key_to_bytes(b)) == (a < b)


class TestHashToKey:
    def test_in_range(self):
        assert 0 <= hash_to_key(b"anything") < KEY_SPACE

    def test_deterministic(self):
        assert hash_to_key(b"x") == hash_to_key(b"x")

    def test_distinct_inputs_differ(self):
        assert hash_to_key(b"x") != hash_to_key(b"y")


class TestDistance:
    def test_self_distance_zero(self):
        assert distance(5, 5) == 0

    def test_forward(self):
        assert distance(10, 15) == 5

    def test_wraps(self):
        assert distance(MAX_KEY, 0) == 1

    @given(keys, keys)
    def test_antisymmetry(self, a, b):
        if a != b:
            assert distance(a, b) + distance(b, a) == KEY_SPACE

    @given(keys, keys, keys)
    def test_triangle_on_circle(self, a, b, c):
        # Going a->b->c covers a->c plus possibly whole laps.
        assert (distance(a, b) + distance(b, c)) % KEY_SPACE == distance(a, c)


class TestInInterval:
    def test_simple_interval(self):
        assert in_interval(5, 3, 7)
        assert in_interval(7, 3, 7)  # hi inclusive
        assert not in_interval(3, 3, 7)  # lo exclusive
        assert not in_interval(8, 3, 7)

    def test_wrapping_interval(self):
        assert in_interval(MAX_KEY, MAX_KEY - 5, 5)
        assert in_interval(0, MAX_KEY - 5, 5)
        assert in_interval(5, MAX_KEY - 5, 5)
        assert not in_interval(6, MAX_KEY - 5, 5)
        assert not in_interval(MAX_KEY - 5, MAX_KEY - 5, 5)

    def test_full_ring_when_equal(self):
        assert in_interval(123, 77, 77)
        assert in_interval(77, 77, 77)

    @given(keys, keys, keys)
    def test_partition(self, key, lo, hi):
        # Every key is in exactly one of (lo, hi] and (hi, lo] unless lo==hi.
        if lo != hi:
            assert in_interval(key, lo, hi) != in_interval(key, hi, lo)

    @given(keys, keys)
    def test_hi_always_in(self, lo, hi):
        assert in_interval(hi, lo, hi)


class TestWidthAndFraction:
    def test_width(self):
        assert interval_width(0, 10) == 10
        assert interval_width(7, 7) == KEY_SPACE
