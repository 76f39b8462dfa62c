"""Tests for the three key-assignment schemes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import (
    FIRST_USABLE_SLOT,
    MAX_BLOCK_NUMBER,
    MAX_PATH_LEVELS,
    SLOT_SPACE,
    KeyEncodingError,
    encode_path_key,
    version_hash,
)
from repro.dht.keyspace import KEY_SPACE
from repro.fs.keyschemes import (
    D2KeyScheme,
    TraditionalFileKeyScheme,
    TraditionalKeyScheme,
    make_scheme,
)
from repro.fs.namespace import Directory, Namespace, storage_identity
from tests.oracles import create_file, mkdir, remove, rename, resolve_dir

SCHEMES = ("d2", "traditional", "traditional-file")


def sample_namespace():
    ns = Namespace()
    for path in ("/home", "/home/alice", "/home/alice/src"):
        mkdir(ns, path)
    files = [
        create_file(ns, "/home/alice/src/a.c", size=30000),
        create_file(ns, "/home/alice/src/b.c", size=30000),
    ]
    mkdir(ns, "/home/bob")
    other = create_file(ns, "/home/bob/z.txt", size=30000)
    return ns, files, other


class TestFactory:
    def test_known_systems(self):
        assert isinstance(make_scheme("d2", "v"), D2KeyScheme)
        assert isinstance(make_scheme("traditional", "v"), TraditionalKeyScheme)
        assert isinstance(make_scheme("traditional-file", "v"), TraditionalFileKeyScheme)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("chord", "v")


class TestD2Scheme:
    def test_file_blocks_contiguous(self):
        ns, (a, b), _ = sample_namespace()
        scheme = D2KeyScheme("vol")
        keys = [scheme.file_block_key(a, n, 1) for n in range(5)]
        assert keys == sorted(keys)

    def test_sibling_files_adjacent(self):
        """Blocks of files in one directory cluster; other dirs sort away."""
        ns, (a, b), other = sample_namespace()
        scheme = D2KeyScheme("vol")
        a_keys = [scheme.file_block_key(a, n, 1) for n in range(4)]
        b_keys = [scheme.file_block_key(b, n, 1) for n in range(4)]
        o_key = scheme.file_block_key(other, 0, 1)
        lo, hi = min(a_keys + b_keys), max(a_keys + b_keys)
        assert not (lo <= o_key <= hi)

    def test_directory_key_precedes_children(self):
        ns, (a, _), _ = sample_namespace()
        scheme = D2KeyScheme("vol")
        src = resolve_dir(ns, "/home/alice/src")
        assert scheme.directory_block_keys(src, 1, 1)[0] < scheme.file_block_key(a, 0, 1)

    def test_root_key_lowest_in_volume(self):
        ns, (a, _), _ = sample_namespace()
        scheme = D2KeyScheme("vol")
        assert scheme.root_key() < scheme.file_block_key(a, 0, 1)

    def test_rename_does_not_change_keys(self):
        ns, (a, _), _ = sample_namespace()
        scheme = D2KeyScheme("vol")
        before = scheme.file_block_key(a, 1, 1)
        rename(ns, "/home/alice/src/a.c", "/home/bob/moved.c")
        assert scheme.file_block_key(a, 1, 1) == before


class TestTraditionalScheme:
    def test_blocks_scatter(self):
        """Adjacent blocks of one file land far apart (uniform hashing)."""
        ns, (a, _), _ = sample_namespace()
        scheme = TraditionalKeyScheme("vol")
        keys = [scheme.file_block_key(a, n, 1) for n in range(8)]
        assert keys != sorted(keys)  # astronomically unlikely if uniform
        assert len(set(keys)) == 8

    def test_versions_change_keys(self):
        ns, (a, _), _ = sample_namespace()
        scheme = TraditionalKeyScheme("vol")
        assert scheme.file_block_key(a, 1, 1) != scheme.file_block_key(a, 1, 2)

    def test_rename_stable(self):
        """Hashed keys mimic content hashes: renames keep keys."""
        ns, (a, _), _ = sample_namespace()
        scheme = TraditionalKeyScheme("vol")
        before = scheme.file_block_key(a, 1, 1)
        rename(ns, "/home/alice/src/a.c", "/home/bob/moved.c")
        assert scheme.file_block_key(a, 1, 1) == before


class TestTraditionalFileScheme:
    def test_all_blocks_share_key(self):
        ns, (a, _), _ = sample_namespace()
        scheme = TraditionalFileKeyScheme("vol")
        keys = {scheme.file_block_key(a, n, v) for n in range(8) for v in range(3)}
        assert len(keys) == 1

    def test_distinct_files_differ(self):
        ns, (a, b), _ = sample_namespace()
        scheme = TraditionalFileKeyScheme("vol")
        assert scheme.file_block_key(a, 0, 1) != scheme.file_block_key(b, 0, 1)


@st.composite
def versioned_file(draw):
    """A file 1-15 levels deep (past 12 its keys hash the path remainder)
    whose blocks were rewritten at assorted versions."""
    depth = draw(st.integers(1, 15))
    ns = Namespace()
    parent = ""
    for level in range(depth - 1):
        parent += f"/d{level}"
        mkdir(ns, parent)
    for sibling in range(draw(st.integers(0, 3))):  # move the file's slot
        create_file(ns, f"{parent}/s{sibling}")
    node = create_file(ns, f"{parent}/f", size=draw(st.integers(0, 40 * 8192)))
    node.version = draw(st.integers(1, 12))
    node.block_versions.update(draw(st.dictionaries(
        st.integers(1, 48), st.integers(1, node.version), max_size=24)))
    return node


_RUNS = st.builds(range, st.integers(0, 48), st.integers(0, 60))  # some empty


class TestFileBlockKeys:
    """A read keys its blocks as one run under the file's memoised prefix;
    the run must be exactly the block-by-block keys."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @settings(deadline=None, max_examples=60)
    @given(node=versioned_file(), blocks=_RUNS)
    def test_matches_file_block_key(self, scheme_name, node, blocks):
        scheme = make_scheme(scheme_name, "vol")
        versions = [node.block_versions.get(n, node.version) for n in blocks]
        run = scheme.file_block_keys(node, blocks)
        assert run == [
            scheme.file_block_key(node, n, v) for n, v in zip(blocks, versions)
        ]
        # The memoised prefix is a pure function of the storage identity.
        assert run == make_scheme(scheme_name, "vol").file_block_keys(node, blocks)
        if scheme_name == "d2":  # independent reference: the full re-encode
            assert len(node.slot_path) <= MAX_PATH_LEVELS
            assert run == [
                encode_path_key(
                    scheme.volume, node.slot_path, overflow_components=node.overflow,
                    block_number=n, version=version_hash(v),
                )
                for n, v in zip(blocks, versions)
            ]

    @settings(deadline=None, max_examples=30)
    @given(node=versioned_file(), number=st.integers(0, 4), version=st.integers(0, 9))
    def test_d2_metadata_keys_match_full_encode(self, node, number, version):
        """Directory blocks share the path: prefix + fields == re-encode."""
        scheme = D2KeyScheme("vol")
        directory = Directory(name="d", slot_path=node.slot_path, overflow=node.overflow)
        expected = encode_path_key(
            scheme.volume, node.slot_path, overflow_components=node.overflow,
            block_number=number, version=version_hash(version),
        )
        assert scheme.directory_block_keys(directory, version, number + 1)[number] == expected
        assert scheme.file_block_key(node, number, version) == expected

    def test_keys_stay_in_keyspace(self):
        ns, (a, _), _ = sample_namespace()
        for scheme_name in SCHEMES:
            scheme = make_scheme(scheme_name, "vol")
            assert all(0 <= key < KEY_SPACE for key in scheme.file_block_keys(a, range(5)))

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_empty_run(self, scheme_name):
        ns, (a, _), _ = sample_namespace()
        assert make_scheme(scheme_name, "vol").file_block_keys(a, range(0)) == []

    def test_block_number_out_of_range(self):
        ns, (a, _), _ = sample_namespace()
        scheme = D2KeyScheme("vol")
        top = MAX_BLOCK_NUMBER
        assert scheme.file_block_keys(a, range(top, top + 1)) == [
            scheme.file_block_key(a, top, a.version)
        ]
        for bad in (range(top, top + 2), range(-1, 2), range(3, -2, -1)):
            with pytest.raises(KeyEncodingError):
                scheme.file_block_keys(a, bad)
        with pytest.raises(KeyEncodingError):
            scheme.file_block_key(a, top + 1, 1)
        with pytest.raises(TypeError):  # only a range's ends bound its middle
            scheme.file_block_keys(a, [1, -2, 3])

    def test_slot_reuse_gets_a_fresh_schemes_prefix(self):
        """Delete-and-recreate in the same slot: same identity, same keys."""
        ns = Namespace()
        scheme = D2KeyScheme("vol")
        old = create_file(ns, "/a", size=30000)
        before = scheme.file_block_keys(old, range(4))
        remove(ns, "/a")
        new = create_file(ns, "/b", size=30000)
        assert (new.slot_path, new.overflow) == (old.slot_path, old.overflow)
        assert scheme.file_block_keys(new, range(4)) == before
        assert D2KeyScheme("vol").file_block_keys(new, range(4)) == before


class TestDerivedPrefix:
    """A D2 object placed in its parent gets the parent's prefix with its
    slot OR-ed in one level down; past level 12 its path remainder is
    hashed.  Either way the prefix is the full Figure-4 encode."""

    @settings(deadline=None, max_examples=80)
    @given(slots=st.lists(st.integers(FIRST_USABLE_SLOT, SLOT_SPACE - 1),
                          min_size=1, max_size=MAX_PATH_LEVELS + 4),
           version=st.integers(0, 9))
    def test_placed_prefix_is_the_full_encode(self, slots, version):
        scheme = D2KeyScheme("vol")
        parent = Directory(name="/", slot_path=(), overflow=())
        for depth, slot in enumerate(slots):
            name = f"d{depth}"
            if depth < MAX_PATH_LEVELS:
                child = Directory(name=name, slot_path=parent.slot_path + (slot,), overflow=())
            else:  # the namespace's overflow rule: the names past level 12
                child = Directory(name=name, slot_path=parent.slot_path,
                                  overflow=parent.overflow + (name,))
            scheme.place(child, parent)
            expected = encode_path_key(
                scheme.volume, child.slot_path, overflow_components=child.overflow,
                block_number=0, version=version_hash(version),
            )
            assert scheme.directory_block_keys(child, version, 1) == [expected]
            parent = child


class TestStorageIdentity:
    def test_distinct_paths_differ(self):
        assert storage_identity((1, 2), ()) != storage_identity((1, 3), ())

    def test_overflow_included(self):
        assert storage_identity((1,), ("x",)) != storage_identity((1,), ("y",))
