"""Tests for the D2-FS block model (sizes and coverage)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fs.blocks import (
    BLOCK_SIZE,
    DIRECTORY_ENTRY_BYTES,
    INLINE_DATA_THRESHOLD,
    blocks_covering,
    data_block_count,
    data_block_sizes,
    directory_block_count,
    directory_block_sizes,
    inode_size,
)


class TestDataBlockCount:
    def test_inline_files_have_no_blocks(self):
        assert data_block_count(0) == 0
        assert data_block_count(INLINE_DATA_THRESHOLD) == 0

    def test_one_block(self):
        assert data_block_count(INLINE_DATA_THRESHOLD + 1) == 1
        assert data_block_count(BLOCK_SIZE) == 1

    def test_partial_last_block(self):
        assert data_block_count(BLOCK_SIZE + 1) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            data_block_count(-1)

    @given(st.integers(min_value=INLINE_DATA_THRESHOLD + 1, max_value=10 * BLOCK_SIZE))
    def test_sizes_sum_to_file_size(self, size):
        sizes = data_block_sizes(size)
        assert sum(sizes) == size
        assert all(0 < s <= BLOCK_SIZE for s in sizes)
        assert len(sizes) == data_block_count(size)

    def test_all_but_last_full(self):
        sizes = data_block_sizes(3 * BLOCK_SIZE + 100)
        assert sizes[:-1] == [BLOCK_SIZE] * 3
        assert sizes[-1] == 100


class TestBlocksCovering:
    def test_inline_file_covers_nothing(self):
        assert list(blocks_covering(0, 100, INLINE_DATA_THRESHOLD)) == []

    def test_whole_file(self):
        size = 3 * BLOCK_SIZE
        assert list(blocks_covering(0, size, size)) == [1, 2, 3]

    def test_single_block_region(self):
        size = 3 * BLOCK_SIZE
        assert list(blocks_covering(BLOCK_SIZE, 10, size)) == [2]

    def test_straddles_boundary(self):
        size = 3 * BLOCK_SIZE
        assert list(blocks_covering(BLOCK_SIZE - 5, 10, size)) == [1, 2]

    def test_clamped_to_file_size(self):
        size = 2 * BLOCK_SIZE
        assert list(blocks_covering(0, 100 * BLOCK_SIZE, size)) == [1, 2]

    def test_offset_beyond_file_empty(self):
        assert list(blocks_covering(10 * BLOCK_SIZE, 100, BLOCK_SIZE)) == []

    def test_zero_length_empty(self):
        assert list(blocks_covering(0, 0, 10 * BLOCK_SIZE)) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            blocks_covering(-1, 10, BLOCK_SIZE)

    @given(
        st.integers(min_value=0, max_value=20 * BLOCK_SIZE),
        st.integers(min_value=1, max_value=5 * BLOCK_SIZE),
        st.integers(min_value=INLINE_DATA_THRESHOLD + 1, max_value=20 * BLOCK_SIZE),
    )
    def test_covering_blocks_exist(self, offset, length, size):
        numbers = list(blocks_covering(offset, length, size))
        total = data_block_count(size)
        assert all(1 <= n <= total for n in numbers)
        assert numbers == sorted(numbers)


class TestInodeSize:
    def test_inline_data_in_inode(self):
        assert inode_size(100) > inode_size(0)
        assert inode_size(100) <= BLOCK_SIZE

    def test_grows_with_block_refs(self):
        assert inode_size(10 * BLOCK_SIZE) > inode_size(BLOCK_SIZE)

    def test_capped_at_block_size(self):
        assert inode_size(10**9) <= BLOCK_SIZE


class TestDirectoryBlocks:
    def test_empty_directory_one_block(self):
        assert directory_block_count(0) == 1

    def test_entries_per_block(self):
        per_block = BLOCK_SIZE // DIRECTORY_ENTRY_BYTES
        assert directory_block_count(per_block) == 1
        assert directory_block_count(per_block + 1) == 2

    def test_sizes_consistent(self):
        for entries in (0, 1, 100, 500):
            sizes = directory_block_sizes(entries)
            assert len(sizes) == directory_block_count(entries)
            assert all(0 < s <= BLOCK_SIZE for s in sizes)

