"""Key-assignment schemes: D2 locality keys vs consistent-hashing baselines.

The three systems the paper compares differ *only* in how blocks map to DHT
keys; the file-system organization above them is identical (Section 7: "the
traditional DHT we compare D2 against uses the same code base ... but uses
hashed keys").  Each scheme maps a block's *logical identity* — its storage
location in the namespace (which rename never changes, mimicking content
hashes) plus block number and version — to a 64-byte ring key:

* :class:`D2KeyScheme` — the Figure-4 locality-preserving encoding: blocks
  of one file, and files of one directory, get contiguous keys.
* :class:`TraditionalKeyScheme` — every block hashes to an independent
  uniform key (CFS-style; one key per 8 KB block).
* :class:`TraditionalFileKeyScheme` — all blocks of a file share one hashed
  key (PAST-style; a whole file lands on one replica group, but distinct
  files scatter).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Union

from repro.core.keys import (
    child_prefix,
    compose_block_key,
    compose_block_run,
    compose_version_run,
    encode_path_key,
    version_hash,
    volume_id,
)
from repro.dht.consistent_hashing import hashed_key
from repro.fs.namespace import Directory, FileNode


class KeyScheme(ABC):
    """Maps FS blocks to ring keys.  One instance per volume per system.

    Everything in a key except block number and version is a pure function
    of the object's storage identity ``(slot_path, overflow)``.  That part —
    the *prefix* — is made once per identity and memoised here, so reads
    and writes key blocks the same way: prefix, then the per-block fields.
    Rename keeps the identity and therefore the keys; a recreated object
    that reuses a slot has the same identity and the same (correct) prefix.
    """

    name: str

    def __init__(self, volume_name: str) -> None:
        self.volume_name = volume_name
        self._prefixes: Dict[str, Any] = {}  # by storage identity: an int (D2) or a str

    @abstractmethod
    def _make_prefix(self, obj: Union[FileNode, Directory], parent: Optional[Directory]):
        """The version- and block-independent part of an object's keys
        (*parent*: the directory it was made in, when known)."""

    def _prefix(self, obj: Union[FileNode, Directory], parent: Optional[Directory] = None):
        prefix = self._prefixes.get(obj.ident)
        if prefix is None:
            prefix = self._prefixes[obj.ident] = self._make_prefix(obj, parent)
        return prefix

    def place(self, obj: Union[FileNode, Directory], parent: Directory) -> None:
        """Make the prefix of *obj*, just made in *parent*, before its keys
        (a scheme may derive it from the parent's)."""
        self._prefix(obj, parent)

    @abstractmethod
    def file_block_key(self, node: FileNode, block_number: int, version: int) -> int:
        """Key of one block of a file (block 0 is the inode)."""

    @abstractmethod
    def directory_block_keys(self, directory: Directory, version: int, count: int) -> List[int]:
        """Keys of the *count* metadata blocks of a directory at *version*."""

    @abstractmethod
    def root_key(self) -> int:
        """Key of the volume's root block (stable; updated in place)."""

    def file_block_keys(self, node: FileNode, blocks: range) -> List[int]:
        """Keys of the live versions of the run *blocks* of one file.

        Always ``[file_block_key(node, n, node.block_versions.get(n,
        node.version)) for n in blocks]``; schemes whose keys share work
        across a run override it.
        """
        version_of = node.block_versions.get
        return [
            self.file_block_key(node, number, version_of(number, node.version))
            for number in blocks
        ]


class D2KeyScheme(KeyScheme):
    """Locality-preserving keys (the paper's contribution, Section 4.2)."""

    name = "d2"

    def __init__(self, volume_name: str) -> None:
        super().__init__(volume_name)
        self.volume = volume_id(volume_name)

    def _make_prefix(self, obj: Union[FileNode, Directory], parent: Optional[Directory]) -> int:
        # The Figure-4 key with zeroed block-number and version fields: one
        # level below the parent's, unless the path overflowed level 12.
        if parent is not None and not obj.overflow:
            return child_prefix(self._prefix(parent), len(parent.slot_path), obj.slot_path[-1])
        return encode_path_key(self.volume, obj.slot_path, overflow_components=obj.overflow)

    def file_block_key(self, node: FileNode, block_number: int, version: int) -> int:
        return compose_block_key(self._prefix(node), block_number, version_hash(version))

    def directory_block_keys(self, directory: Directory, version: int, count: int) -> List[int]:
        # The memo probed inline: a flush asks this twice per ancestor.
        prefix = self._prefixes.get(directory.ident) or self._prefix(directory)
        return compose_version_run(prefix, count, version)

    def file_block_keys(self, node: FileNode, blocks: range) -> List[int]:
        return compose_block_run(self._prefix(node), blocks, node.block_versions, node.version)

    def root_key(self) -> int:
        # Block 0 / version 0 at the empty slot path: the volume's lowest
        # key, immediately before all of its contents on the ring.
        return encode_path_key(self.volume, (), block_number=0, version=0)


class _HashedKeyScheme(KeyScheme):
    """Shared by the hashed baselines: the prefix is ``volume|identity``."""

    def _make_prefix(self, obj: Union[FileNode, Directory], parent: Optional[Directory]) -> str:
        return f"{self.volume_name}|{obj.ident}"

    def root_key(self) -> int:
        return hashed_key(f"{self.volume_name}|<root>")


class TraditionalKeyScheme(_HashedKeyScheme):
    """One uniform hashed key per block (the paper's *traditional* DHT)."""

    name = "traditional"

    def file_block_key(self, node: FileNode, block_number: int, version: int) -> int:
        return hashed_key(f"{self._prefix(node)}|b{block_number}|v{version}")

    def directory_block_keys(self, directory: Directory, version: int, count: int) -> List[int]:
        prefix = self._prefix(directory)
        return [hashed_key(f"{prefix}|d{number}|v{version}") for number in range(count)]


class TraditionalFileKeyScheme(_HashedKeyScheme):
    """One hashed key per *file* (the paper's *traditional-file* DHT).

    Every block of a file shares the file's key, so the whole file lives on
    one replica group and a single lookup locates it; partial reads and
    writes still transfer only the touched blocks (Section 9.1).
    Directory metadata likewise keys by directory.
    """

    name = "traditional-file"

    def file_block_key(self, node: FileNode, block_number: int, version: int) -> int:
        return hashed_key(f"{self._prefix(node)}|file")

    def directory_block_keys(self, directory: Directory, version: int, count: int) -> List[int]:
        return [hashed_key(f"{self._prefix(directory)}|dir")] * count

    def file_block_keys(self, node: FileNode, blocks: range) -> List[int]:
        return [self.file_block_key(node, 0, 0)] * len(blocks)


def make_scheme(system: str, volume_name: str) -> KeyScheme:
    """Factory keyed by the system names used throughout the evaluation."""
    schemes = {
        "d2": D2KeyScheme,
        "traditional": TraditionalKeyScheme,
        "traditional-file": TraditionalFileKeyScheme,
    }
    try:
        return schemes[system](volume_name)
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; expected one of {sorted(schemes)}"
        ) from None
