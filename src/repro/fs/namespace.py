"""Directory-tree namespace with per-directory 2-byte slot allocation.

Every file or directory created inside a directory is assigned an unused
2-byte *slot* (Section 4.2: "an unused value is found by examining the
existing file list in the directory block"), and the concatenation of slots
from the root is the file's position in the key encoding.  Two properties
matter and are enforced here:

* **Slots are never reused while their keys may be live.**  A rename keeps
  the object's original keys ("the file's new parent directory simply
  points to the file's original location"), so a renamed-away slot stays
  reserved in its original parent; reusing it would collide with the
  renamed file's blocks.
* **Depth overflow.**  Only 12 path levels fit the key; deeper components
  are carried as *overflow* strings and hashed into the key's remainder
  field, sacrificing locality past level 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.core.keys import FIRST_USABLE_SLOT, MAX_PATH_LEVELS, SLOT_SPACE


class NamespaceError(Exception):
    """Raised on invalid path operations (missing files, duplicates, ...)."""


def storage_identity(slot_path: Tuple[int, ...], overflow: Tuple[str, ...]) -> str:
    """Stable logical identity of a namespace object.

    Derived from the object's *original* storage location, which rename
    preserves — so, like a content hash, it never changes when the file
    moves.  Made once, when the object is: see ``FileNode.ident``.
    """
    slots = ".".join(map(str, slot_path))
    extra = "/".join(overflow)
    return f"{slots}|{extra}"


def split_path(path: str) -> List[str]:
    """Normalize an absolute path into its components."""
    if not path.startswith("/"):
        raise NamespaceError(f"path must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


@dataclass
class FileNode:
    """A regular file.  ``slot_path``/``overflow`` locate its blocks forever,
    and ``ident`` is their :func:`storage_identity`.

    ``block_versions`` maps data-block number → the file version at which
    that block was last rewritten, so readers fetch the live version of
    every block even when later writes only touched part of the file.
    """

    name: str
    slot_path: Tuple[int, ...]
    overflow: Tuple[str, ...]
    size: int = 0
    version: int = 0
    block_versions: Dict[int, int] = field(default_factory=dict)
    ident: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ident = storage_identity(self.slot_path, self.overflow)


@dataclass
class Directory:
    """A directory and its slot table (``ident`` as for :class:`FileNode`)."""

    name: str
    slot_path: Tuple[int, ...]
    overflow: Tuple[str, ...]
    version: int = 0
    children: Dict[str, Union["Directory", FileNode]] = field(default_factory=dict)
    child_slots: Dict[str, int] = field(default_factory=dict)
    _used_slots: set = field(default_factory=set)
    _freed_slots: List[int] = field(default_factory=list)
    _next_slot: int = FIRST_USABLE_SLOT
    ident: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ident = storage_identity(self.slot_path, self.overflow)

    def allocate_slot(self) -> int:
        """An unused slot, preferring freed ones (the paper examines the
        existing file list for an unused value); raises when full."""
        while self._freed_slots:
            slot = self._freed_slots.pop()
            if slot not in self._used_slots:
                self._used_slots.add(slot)
                return slot
        if len(self._used_slots) >= SLOT_SPACE - FIRST_USABLE_SLOT:
            raise NamespaceError(f"directory {self.name!r} is full (64K entries)")
        slot = self._next_slot
        while slot in self._used_slots:
            slot += 1
            if slot >= SLOT_SPACE:
                slot = FIRST_USABLE_SLOT
        self._used_slots.add(slot)
        self._next_slot = slot + 1 if slot + 1 < SLOT_SPACE else FIRST_USABLE_SLOT
        return slot

    def release_slot(self, slot: int) -> None:
        """Free a slot whose keys are provably dead (true delete, not rename)."""
        if slot in self._used_slots:
            self._used_slots.discard(slot)
            self._freed_slots.append(slot)


class Namespace:
    """The mutable directory tree of one D2 volume."""

    def __init__(self) -> None:
        self.root = Directory(name="/", slot_path=(), overflow=())
        self.renames = 0

    # ------------------------------------------------------------------
    # resolution

    def resolve(self, path: str) -> Union[Directory, FileNode]:
        """Walk *path* from the root; raises NamespaceError when missing."""
        node: Union[Directory, FileNode] = self.root
        for part in split_path(path):
            if not isinstance(node, Directory):
                raise NamespaceError(f"{path!r}: not a directory at {part!r}")
            try:
                node = node.children[part]
            except KeyError:
                raise NamespaceError(f"{path!r}: no entry {part!r}") from None
        return node

    def resolve_file(self, path: str) -> FileNode:
        node = self.resolve(path)
        if not isinstance(node, FileNode):
            raise NamespaceError(f"{path!r} is a directory, not a file")
        return node

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except NamespaceError:
            return False

    def parent_chain(self, path: str) -> Tuple[List[Directory], str]:
        """Directories from the root down to the parent of *path*, and the
        name *path* has there, in one walk: the metadata blocks re-versioned
        on every flushed write (Section 3: "inserts new versions of all the
        metadata blocks along the full path to the root")."""
        parts = split_path(path)
        if not parts:
            raise NamespaceError("the root has no parent")
        chain = [self.root]
        for part in parts[:-1]:
            node = chain[-1].children.get(part)
            if not isinstance(node, Directory):
                raise NamespaceError(f"{path!r}: no directory {part!r}")
            chain.append(node)
        return chain, parts[-1]

    # ------------------------------------------------------------------
    # mutation

    def _storage_location(
        self, parent: Directory, slot: int, name: str
    ) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """Where a fresh child's keys live, honoring the 12-level limit."""
        if len(parent.slot_path) < MAX_PATH_LEVELS and not parent.overflow:
            return parent.slot_path + (slot,), ()
        return parent.slot_path, parent.overflow + (name,)

    def add(self, parent: Directory, name: str, kind, **fields) -> Union[Directory, FileNode]:
        """A new *kind* (:class:`Directory` or :class:`FileNode`) called
        *name* in *parent*, in a freshly allocated slot."""
        if name in parent.children:
            raise NamespaceError(f"{name!r} already exists in {parent.name!r}")
        slot = parent.allocate_slot()
        slot_path, overflow = self._storage_location(parent, slot, name)
        node = kind(name=name, slot_path=slot_path, overflow=overflow, **fields)
        parent.children[name] = node
        parent.child_slots[name] = slot
        return node

    def unlink(self, parent: Directory, name: str) -> Union[Directory, FileNode]:
        """Unlink a file or an empty directory from *parent*; frees its slot."""
        node = parent.children.get(name)
        if node is None:
            raise NamespaceError(f"{name!r} does not exist in {parent.name!r}")
        if isinstance(node, Directory) and node.children:
            raise NamespaceError(f"{name!r} is a non-empty directory")
        slot = parent.child_slots.pop(name)
        del parent.children[name]
        # The slot may be reused only when the dying object's keys embedded
        # it: either the object was created here (its last slot-path entry
        # is this slot) or it is an overflow child whose keys embed names,
        # not slots.  A renamed-in object's keys use its *original* parent's
        # slot, so this slot never appeared in any key and is safe to free;
        # a renamed-away object's slot was already preserved by move().
        if node.overflow or (node.slot_path and node.slot_path[-1] == slot):
            parent.release_slot(slot)
        return node

    def move(self, src_parent: Directory, src_name: str, dst_chain: List[Directory],
             dst_name: str) -> Union[Directory, FileNode]:
        """Move *src_name* of *src_parent* to *dst_name* in the last directory
        of *dst_chain* (the root first), keeping the object's original keys:
        none of its blocks move (Section 4.2), and its vacated slot in the
        source parent stays reserved because the keys still use it."""
        node = src_parent.children.get(src_name)
        if node is None:
            raise NamespaceError(f"{src_name!r} does not exist in {src_parent.name!r}")
        dst_parent = dst_chain[-1]
        if dst_name in dst_parent.children:
            raise NamespaceError(f"{dst_name!r} already exists in {dst_parent.name!r}")
        if any(directory is node for directory in dst_chain):
            raise NamespaceError("cannot rename a directory into itself")
        del src_parent.children[src_name]
        src_parent.child_slots.pop(src_name)
        # NOTE: the slot is deliberately NOT released — the moved object's
        # keys still embed it.
        dst_slot = dst_parent.allocate_slot()
        node.name = dst_name
        dst_parent.children[dst_name] = node
        dst_parent.child_slots[dst_name] = dst_slot
        self.renames += 1
        return node
