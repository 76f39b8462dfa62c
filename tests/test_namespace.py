"""Tests for the namespace tree and 2-byte slot allocation."""

import pytest

from repro.core.keys import FIRST_USABLE_SLOT, MAX_PATH_LEVELS
from repro.fs.namespace import Directory, Namespace, NamespaceError, split_path


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
        ns.mkdir("/home")
        assert isinstance(ns.resolve_dir("/home"), Directory)

    def test_create_file(self):
        ns = Namespace()
        ns.mkdir("/home")
        node = ns.create_file("/home/f.txt", size=100)
        assert node.size == 100
        assert ns.resolve_file("/home/f.txt") is node

    def test_duplicate_rejected(self):
        ns = Namespace()
        ns.mkdir("/home")
        with pytest.raises(NamespaceError):
            ns.mkdir("/home")

    def test_missing_parent_rejected(self):
        with pytest.raises(NamespaceError):
            Namespace().create_file("/no/such/file")

    def test_makedirs(self):
        ns = Namespace()
        ns.makedirs("/a/b/c")
        assert isinstance(ns.resolve_dir("/a/b/c"), Directory)

    def test_makedirs_idempotent(self):
        ns = Namespace()
        ns.makedirs("/a/b")
        ns.makedirs("/a/b/c")
        assert ns.exists("/a/b/c")

    def test_makedirs_through_file_rejected(self):
        ns = Namespace()
        ns.create_file("/f")
        with pytest.raises(NamespaceError):
            ns.makedirs("/f/sub")

    def test_resolve_file_on_dir_rejected(self):
        ns = Namespace()
        ns.mkdir("/d")
        with pytest.raises(NamespaceError):
            ns.resolve_file("/d")


class TestSlots:
    def test_slots_start_at_first_usable(self):
        ns = Namespace()
        ns.mkdir("/a")
        assert ns.root.child_slots["a"] == FIRST_USABLE_SLOT

    def test_sequential_slots(self):
        ns = Namespace()
        for i in range(5):
            ns.create_file(f"/f{i}")
        slots = [ns.root.child_slots[f"f{i}"] for i in range(5)]
        assert slots == sorted(slots)
        assert len(set(slots)) == 5

    def test_slot_path_extends_parent(self):
        ns = Namespace()
        ns.makedirs("/a/b")
        node = ns.create_file("/a/b/f")
        b = ns.resolve_dir("/a/b")
        assert node.slot_path[:-1] == b.slot_path
        assert len(node.slot_path) == 3

    def test_removed_slot_reused(self):
        ns = Namespace()
        ns.create_file("/f")
        slot = ns.root.child_slots["f"]
        ns.remove("/f")
        ns.create_file("/g")
        assert ns.root.child_slots["g"] == slot

    def test_deep_path_overflows(self):
        ns = Namespace()
        path = ""
        for i in range(MAX_PATH_LEVELS + 2):
            path += f"/d{i}"
            ns.mkdir(path)
        leaf = ns.resolve_dir(path)
        assert len(leaf.slot_path) == MAX_PATH_LEVELS
        assert len(leaf.overflow) == 2

    def test_overflow_children_inherit(self):
        ns = Namespace()
        path = ""
        for i in range(MAX_PATH_LEVELS):
            path += f"/d{i}"
            ns.mkdir(path)
        node = ns.create_file(path + "/deep.txt")
        assert len(node.slot_path) == MAX_PATH_LEVELS
        assert node.overflow == ("deep.txt",)


class TestRemove:
    def test_remove_file(self):
        ns = Namespace()
        ns.create_file("/f")
        ns.remove("/f")
        assert not ns.exists("/f")

    def test_remove_empty_dir(self):
        ns = Namespace()
        ns.mkdir("/d")
        ns.remove("/d")
        assert not ns.exists("/d")

    def test_remove_nonempty_dir_rejected(self):
        ns = Namespace()
        ns.makedirs("/d")
        ns.create_file("/d/f")
        with pytest.raises(NamespaceError):
            ns.remove("/d")

    def test_remove_missing_rejected(self):
        with pytest.raises(NamespaceError):
            Namespace().remove("/ghost")


class TestRename:
    def test_rename_keeps_slot_path(self):
        """The core D2 property: renamed objects keep their original keys."""
        ns = Namespace()
        ns.makedirs("/a")
        ns.makedirs("/b")
        node = ns.create_file("/a/f")
        original = node.slot_path
        ns.rename("/a/f", "/b/g")
        assert ns.resolve_file("/b/g") is node
        assert node.slot_path == original
        assert not ns.exists("/a/f")

    def test_vacated_slot_stays_reserved(self):
        ns = Namespace()
        ns.makedirs("/a")
        ns.makedirs("/b")
        node = ns.create_file("/a/f")
        slot = ns.resolve_dir("/a").child_slots["f"]
        ns.rename("/a/f", "/b/f")
        fresh = ns.create_file("/a/new")
        # The new file must NOT reuse the renamed-away slot: the moved
        # file's keys still embed it.
        assert ns.resolve_dir("/a").child_slots["new"] != slot

    def test_rename_directory_moves_subtree(self):
        ns = Namespace()
        ns.makedirs("/a/sub")
        ns.create_file("/a/sub/f")
        ns.makedirs("/b")
        ns.rename("/a/sub", "/b/sub")
        assert ns.exists("/b/sub/f")
        assert not ns.exists("/a/sub")

    def test_rename_into_self_rejected(self):
        ns = Namespace()
        ns.makedirs("/a/b")
        with pytest.raises(NamespaceError):
            ns.rename("/a", "/a/b/a")

    def test_rename_over_existing_rejected(self):
        ns = Namespace()
        ns.create_file("/f")
        ns.create_file("/g")
        with pytest.raises(NamespaceError):
            ns.rename("/f", "/g")

    def test_rename_counter(self):
        ns = Namespace()
        ns.create_file("/f")
        ns.rename("/f", "/g")
        assert ns.renames == 1


class TestTraversal:
    def build(self):
        ns = Namespace()
        ns.makedirs("/home/alice")
        ns.create_file("/home/alice/a.txt", size=10)
        ns.create_file("/home/alice/b.txt", size=20)
        ns.makedirs("/srv")
        return ns

    def test_walk_preorder(self):
        ns = self.build()
        paths = [path for path, _ in ns.walk()]
        assert paths[0] == "/"
        assert paths.index("/home") < paths.index("/home/alice")
        assert paths.index("/home/alice") < paths.index("/home/alice/a.txt")

    def test_files_listing(self):
        ns = self.build()
        files = dict(ns.files())
        assert set(files) == {"/home/alice/a.txt", "/home/alice/b.txt"}

    def test_totals(self):
        ns = self.build()
        assert ns.total_file_bytes() == 30

    def test_ancestors_of(self):
        ns = self.build()
        chain = ns.ancestors_of("/home/alice/a.txt")
        assert [d.name for d in chain] == ["/", "home", "alice"]
