"""Tests for the namespace tree and 2-byte slot allocation."""

import pytest

from repro.core.keys import FIRST_USABLE_SLOT, MAX_PATH_LEVELS
from repro.fs.fslayer import DhtFileSystem
from repro.fs.keyschemes import make_scheme
from repro.fs.namespace import Directory, Namespace, NamespaceError, split_path
from tests.oracles import create_file, mkdir, remove, rename, resolve_dir, walk
def makedirs(ns, path):
    """mkdir -p on *ns*, through the one a run calls: ``DhtFileSystem.makedirs``."""
    fs = DhtFileSystem(make_scheme("d2", "vol"))
    fs.namespace = ns
    return fs.makedirs(path)


class TestSplitPath:
    def test_simple(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_root(self):
        assert split_path("/") == []

    def test_trailing_slash(self):
        assert split_path("/a/b/") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(NamespaceError):
            split_path("a/b")


class TestCreate:
    def test_mkdir_and_resolve(self):
        ns = Namespace()
        mkdir(ns, "/home")
        assert isinstance(resolve_dir(ns, "/home"), Directory)

    def test_create_file(self):
        ns = Namespace()
        mkdir(ns, "/home")
        node = create_file(ns, "/home/f.txt", size=100)
        assert node.size == 100
        assert ns.resolve_file("/home/f.txt") is node

    def test_duplicate_rejected(self):
        ns = Namespace()
        mkdir(ns, "/home")
        with pytest.raises(NamespaceError):
            mkdir(ns, "/home")

    def test_missing_parent_rejected(self):
        with pytest.raises(NamespaceError):
            create_file(Namespace(), "/no/such/file")

    def test_makedirs(self):
        ns = Namespace()
        makedirs(ns, "/a/b/c")
        assert isinstance(resolve_dir(ns, "/a/b/c"), Directory)

    def test_makedirs_idempotent(self):
        ns = Namespace()
        makedirs(ns, "/a/b")
        makedirs(ns, "/a/b/c")
        assert ns.exists("/a/b/c")

    def test_makedirs_through_file_rejected(self):
        ns = Namespace()
        create_file(ns, "/f")
        with pytest.raises(NamespaceError):
            makedirs(ns, "/f/sub")

    def test_resolve_file_on_dir_rejected(self):
        ns = Namespace()
        mkdir(ns, "/d")
        with pytest.raises(NamespaceError):
            ns.resolve_file("/d")


class TestSlots:
    def test_slots_start_at_first_usable(self):
        ns = Namespace()
        mkdir(ns, "/a")
        assert ns.root.child_slots["a"] == FIRST_USABLE_SLOT

    def test_sequential_slots(self):
        ns = Namespace()
        for i in range(5):
            create_file(ns, f"/f{i}")
        slots = [ns.root.child_slots[f"f{i}"] for i in range(5)]
        assert slots == sorted(slots)
        assert len(set(slots)) == 5

    def test_slot_path_extends_parent(self):
        ns = Namespace()
        makedirs(ns, "/a/b")
        node = create_file(ns, "/a/b/f")
        b = resolve_dir(ns, "/a/b")
        assert node.slot_path[:-1] == b.slot_path
        assert len(node.slot_path) == 3

    def test_removed_slot_reused(self):
        ns = Namespace()
        create_file(ns, "/f")
        slot = ns.root.child_slots["f"]
        remove(ns, "/f")
        create_file(ns, "/g")
        assert ns.root.child_slots["g"] == slot

    def test_deep_path_overflows(self):
        ns = Namespace()
        path = ""
        for i in range(MAX_PATH_LEVELS + 2):
            path += f"/d{i}"
            mkdir(ns, path)
        leaf = resolve_dir(ns, path)
        assert len(leaf.slot_path) == MAX_PATH_LEVELS
        assert len(leaf.overflow) == 2

    def test_overflow_children_inherit(self):
        ns = Namespace()
        path = ""
        for i in range(MAX_PATH_LEVELS):
            path += f"/d{i}"
            mkdir(ns, path)
        node = create_file(ns, path + "/deep.txt")
        assert len(node.slot_path) == MAX_PATH_LEVELS
        assert node.overflow == ("deep.txt",)


class TestRemove:
    def test_remove_file(self):
        ns = Namespace()
        create_file(ns, "/f")
        remove(ns, "/f")
        assert not ns.exists("/f")

    def test_remove_empty_dir(self):
        ns = Namespace()
        mkdir(ns, "/d")
        remove(ns, "/d")
        assert not ns.exists("/d")

    def test_remove_nonempty_dir_rejected(self):
        ns = Namespace()
        makedirs(ns, "/d")
        create_file(ns, "/d/f")
        with pytest.raises(NamespaceError):
            remove(ns, "/d")

    def test_remove_missing_rejected(self):
        with pytest.raises(NamespaceError):
            remove(Namespace(), "/ghost")


class TestRename:
    def test_rename_keeps_slot_path(self):
        """The core D2 property: renamed objects keep their original keys."""
        ns = Namespace()
        makedirs(ns, "/a")
        makedirs(ns, "/b")
        node = create_file(ns, "/a/f")
        original = node.slot_path
        rename(ns, "/a/f", "/b/g")
        assert ns.resolve_file("/b/g") is node
        assert node.slot_path == original
        assert not ns.exists("/a/f")

    def test_vacated_slot_stays_reserved(self):
        ns = Namespace()
        makedirs(ns, "/a")
        makedirs(ns, "/b")
        node = create_file(ns, "/a/f")
        slot = resolve_dir(ns, "/a").child_slots["f"]
        rename(ns, "/a/f", "/b/f")
        fresh = create_file(ns, "/a/new")
        # The new file must NOT reuse the renamed-away slot: the moved
        # file's keys still embed it.
        assert resolve_dir(ns, "/a").child_slots["new"] != slot

    def test_rename_directory_moves_subtree(self):
        ns = Namespace()
        makedirs(ns, "/a/sub")
        create_file(ns, "/a/sub/f")
        makedirs(ns, "/b")
        rename(ns, "/a/sub", "/b/sub")
        assert ns.exists("/b/sub/f")
        assert not ns.exists("/a/sub")

    def test_rename_into_self_rejected(self):
        ns = Namespace()
        makedirs(ns, "/a/b")
        with pytest.raises(NamespaceError):
            rename(ns, "/a", "/a/b/a")

    def test_rename_over_existing_rejected(self):
        ns = Namespace()
        create_file(ns, "/f")
        create_file(ns, "/g")
        with pytest.raises(NamespaceError):
            rename(ns, "/f", "/g")

    def test_rename_counter(self):
        ns = Namespace()
        create_file(ns, "/f")
        rename(ns, "/f", "/g")
        assert ns.renames == 1


class TestTraversal:
    def build(self):
        ns = Namespace()
        makedirs(ns, "/home/alice")
        create_file(ns, "/home/alice/a.txt", size=10)
        create_file(ns, "/home/alice/b.txt", size=20)
        makedirs(ns, "/srv")
        return ns

    def test_walk_preorder(self):
        # The traversal the model-based tests enumerate paths with.
        ns = self.build()
        paths = [path for path, _ in walk(ns)]
        assert paths[0] == "/"
        assert paths.index("/home") < paths.index("/home/alice")
        assert paths.index("/home/alice") < paths.index("/home/alice/a.txt")

    def test_ancestors_of(self):
        ns = self.build()
        chain, name = ns.parent_chain("/home/alice/a.txt")
        assert [d.name for d in chain] == ["/", "home", "alice"] and name == "a.txt"
        with pytest.raises(NamespaceError):
            ns.parent_chain("/")
        with pytest.raises(NamespaceError):  # a file is no directory on the way
            ns.parent_chain("/home/alice/a.txt/x")
