"""Tests for the Figure-4 locality-preserving key encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keys import (
    FIRST_USABLE_SLOT,
    MAX_PATH_LEVELS,
    SLOT_SPACE,
    BlockKey,
    KeyEncodingError,
    compose_block_key,
    compose_block_run,
    decode_key,
    encode_path_key,
    hash_slot,
    version_hash,
    volume_id,
)
from repro.dht.keyspace import KEY_SPACE

VOL = volume_id("test-volume")
OTHER_VOL = volume_id("other-volume")

slots = st.integers(min_value=FIRST_USABLE_SLOT, max_value=SLOT_SPACE - 1)
slot_paths = st.lists(slots, min_size=0, max_size=MAX_PATH_LEVELS)


class TestVolumeId:
    def test_twenty_bytes(self):
        assert len(VOL) == 20

    def test_deterministic(self):
        assert volume_id("v") == volume_id("v")

    def test_distinct(self):
        assert VOL != OTHER_VOL


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        key = encode_path_key(VOL, [1, 2, 3], block_number=7, version=9)
        parts = decode_key(key)
        assert parts.volume == VOL
        assert parts.slots[:3] == (1, 2, 3)
        assert parts.slots[3:] == (0,) * (MAX_PATH_LEVELS - 3)
        assert parts.block_number == 7
        assert parts.version == 9

    def test_key_in_ring_range(self):
        key = encode_path_key(VOL, [5])
        assert 0 <= key < KEY_SPACE

    @given(slot_paths, st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, path, block, version):
        key = encode_path_key(VOL, path, block_number=block, version=version)
        parts = decode_key(key)
        assert list(parts.slots[: len(path)]) == path
        assert parts.block_number == block
        assert parts.version == version

    def test_reencode_matches(self):
        key = encode_path_key(VOL, [4, 4], block_number=2, version=1)
        assert decode_key(key).encode() == key


class TestValidation:
    def test_slot_zero_rejected_in_path(self):
        with pytest.raises(KeyEncodingError):
            encode_path_key(VOL, [0])

    def test_slot_overflow_rejected(self):
        with pytest.raises(KeyEncodingError):
            encode_path_key(VOL, [SLOT_SPACE])

    def test_path_too_deep_rejected(self):
        with pytest.raises(KeyEncodingError):
            encode_path_key(VOL, [1] * (MAX_PATH_LEVELS + 1))

    def test_overflow_requires_full_path(self):
        with pytest.raises(KeyEncodingError):
            encode_path_key(VOL, [1, 2], overflow_components=["deep"])

    def test_bad_volume_length(self):
        with pytest.raises(KeyEncodingError):
            BlockKey(b"short", (0,) * MAX_PATH_LEVELS, 0, 0, 0)


class TestNamespaceOrdering:
    """The core property: keys sort in preorder-traversal order."""

    def test_directory_before_children(self):
        directory = encode_path_key(VOL, [3], block_number=0)
        child = encode_path_key(VOL, [3, 1], block_number=0)
        assert directory < child

    def test_directory_metadata_blocks_before_children(self):
        meta9 = encode_path_key(VOL, [3], block_number=9)
        child = encode_path_key(VOL, [3, 1], block_number=0)
        assert meta9 < child

    def test_sibling_order_follows_slots(self):
        a = encode_path_key(VOL, [3, 1])
        b = encode_path_key(VOL, [3, 2])
        assert a < b

    def test_file_blocks_contiguous(self):
        inode = encode_path_key(VOL, [3, 1], block_number=0)
        b1 = encode_path_key(VOL, [3, 1], block_number=1)
        b2 = encode_path_key(VOL, [3, 1], block_number=2)
        next_file = encode_path_key(VOL, [3, 2], block_number=0)
        assert inode < b1 < b2 < next_file

    def test_subtree_is_contiguous(self):
        """All keys under /a sort between /a and /b for sibling slots a<b."""
        under_a = [
            encode_path_key(VOL, [2] + suffix, block_number=n)
            for suffix in ([], [1], [1, 5], [9])
            for n in (0, 1, 3)
        ]
        b = encode_path_key(VOL, [3])
        assert all(key < b for key in under_a)

    def test_versions_adjacent_to_block(self):
        v0 = encode_path_key(VOL, [2], block_number=1, version=0)
        v1 = encode_path_key(VOL, [2], block_number=1, version=1)
        next_block = encode_path_key(VOL, [2], block_number=2, version=0)
        assert abs(v0 - v1) < next_block - min(v0, v1)

    @given(slot_paths, slot_paths)
    def test_key_order_equals_path_order(self, p1, p2):
        k1 = encode_path_key(VOL, p1)
        k2 = encode_path_key(VOL, p2)
        # Pad with 0 (the reserved slot) to compare as the encoding does.
        pad1 = tuple(p1) + (0,) * (MAX_PATH_LEVELS - len(p1))
        pad2 = tuple(p2) + (0,) * (MAX_PATH_LEVELS - len(p2))
        if pad1 == pad2:
            assert k1 == k2
        else:
            assert (k1 < k2) == (pad1 < pad2)


class TestVolumeSeparation:
    def test_volumes_occupy_disjoint_arcs(self):
        lo1 = encode_path_key(VOL, [])
        hi1 = encode_path_key(VOL, [SLOT_SPACE - 1] * MAX_PATH_LEVELS,
                              block_number=2**64 - 1, version=2**32 - 1)
        other = encode_path_key(OTHER_VOL, [5])
        assert not (lo1 <= other <= hi1)


class TestOverflow:
    def test_deep_paths_encode(self):
        full = [1] * MAX_PATH_LEVELS
        key = encode_path_key(VOL, full, overflow_components=["a", "b"])
        assert decode_key(key).remainder != 0

    def test_overflow_distinguishes_names(self):
        full = [1] * MAX_PATH_LEVELS
        k1 = encode_path_key(VOL, full, overflow_components=["a"])
        k2 = encode_path_key(VOL, full, overflow_components=["b"])
        assert k1 != k2

    def test_no_overflow_means_zero_remainder(self):
        key = encode_path_key(VOL, [1, 2])
        assert decode_key(key).remainder == 0


class TestHashSlot:
    def test_never_reserved(self):
        for name in ("", "a", "index.html", "zzz"):
            assert hash_slot(name) >= FIRST_USABLE_SLOT

    def test_in_range(self):
        assert hash_slot("component") < SLOT_SPACE

    def test_deterministic(self):
        assert hash_slot("x") == hash_slot("x")


class TestChild:
    def test_child_extends_depth(self):
        parent = decode_key(encode_path_key(VOL, [1, 2]))
        child = parent.child(slot=5)
        assert child.depth == 3
        assert child.slots[2] == 5

    def test_child_of_full_path_rejected(self):
        parent = decode_key(encode_path_key(VOL, [1] * MAX_PATH_LEVELS))
        with pytest.raises(KeyEncodingError):
            parent.child(slot=5)

    def test_child_reserved_slot_rejected(self):
        parent = decode_key(encode_path_key(VOL, [1]))
        with pytest.raises(KeyEncodingError):
            parent.child(slot=0)


class TestVersionHash:
    def test_four_bytes(self):
        assert 0 <= version_hash(12345) < 2**32

    def test_distinct_versions_differ(self):
        assert version_hash(1) != version_hash(2)


class TestComposeFromPrefix:
    """Both composers fill the trailing fields of an encoded prefix."""

    @given(slot_paths, st.integers(0, 40), st.integers(0, 50),
           st.dictionaries(st.integers(0, 90), st.integers(0, 99), max_size=30),
           st.integers(0, 99))
    def test_run_equals_full_encode(self, path, first, count, block_versions, version):
        blocks = range(first, first + count)
        expected = [
            encode_path_key(VOL, path, block_number=n,
                            version=version_hash(block_versions.get(n, version)))
            for n in blocks
        ]
        prefix = encode_path_key(VOL, path)
        assert compose_block_run(prefix, blocks, block_versions, version) == expected
        assert [
            compose_block_key(prefix, n, version_hash(block_versions.get(n, version)))
            for n in blocks
        ] == expected

    def test_prefix_must_have_zero_trailing_fields(self):
        for dirty in (encode_path_key(VOL, [1], block_number=1),
                      encode_path_key(VOL, [1], version=1)):
            with pytest.raises(KeyEncodingError):
                compose_block_key(dirty, 0, 0)
            with pytest.raises(KeyEncodingError):
                compose_block_run(dirty, range(1), {}, 0)
            with pytest.raises(KeyEncodingError):
                compose_block_run(dirty, range(0), {}, 0)
