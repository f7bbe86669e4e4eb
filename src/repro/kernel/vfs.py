"""The virtual file system: a directory tree over inodes.

Implements POSIX path semantics at the depth the paper's use cases
need: path resolution with symlink following, link counts,
unlink-while-open orphans, rename over existing targets, and inode
number recycling (see :mod:`repro.kernel.inode`).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.errno import Errno, KernelError
from repro.kernel.inode import FileType, Inode, InodeAllocator

#: Maximum symlink traversals before ELOOP, mirroring Linux.
MAX_SYMLINK_DEPTH = 40
#: Maximum length of a single path component.
NAME_MAX = 255


class VirtualFileSystem:
    """A single mounted filesystem identified by a device number."""

    def __init__(self, dev: int = 0x700000, clock=None):
        """``clock`` is a zero-argument callable returning time in ns."""
        self.dev = dev
        self._clock = clock or (lambda: 0)
        self._allocator = InodeAllocator()
        ino, gen = self._allocator.allocate()  # ino 2 for "/"
        self.root = Inode(ino, dev, FileType.DIRECTORY, gen, self._now())
        self.root.nlink = 2
        #: Inodes with nlink == 0 kept alive by open file descriptions.
        self._orphans: set[int] = set()
        #: Total inodes ever created, for stats.
        self.inodes_created = 1
        #: Mount table: path prefix -> device number.  New inodes under
        #: a mounted prefix get that device number; cross-device renames
        #: fail with EXDEV, as POSIX requires.
        self._mounts: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Mounts

    def mount(self, prefix: str, dev: int) -> None:
        """Assign ``dev`` to every file created under ``prefix``."""
        if not prefix.startswith("/"):
            raise KernelError(Errno.EINVAL, f"mount prefix {prefix!r}")
        self._mounts.append((prefix.rstrip("/") or "/", dev))
        # Longest prefix wins on lookup.
        self._mounts.sort(key=lambda entry: -len(entry[0]))

    def dev_for_path(self, path: str) -> int:
        """The device number governing ``path``."""
        for prefix, dev in self._mounts:
            if path == prefix or path.startswith(prefix + "/"):
                return dev
        return self.dev

    def _now(self) -> int:
        return self._clock()

    # ------------------------------------------------------------------
    # Path handling

    @staticmethod
    def split(path: str) -> list[str]:
        """Split an absolute path into components, ignoring empties."""
        return [part for part in path.split("/") if part and part != "."]

    def resolve(self, path: str, follow_symlinks: bool = True,
                _depth: int = 0) -> Inode:
        """Resolve ``path`` to an inode or raise ``ENOENT``/``ENOTDIR``."""
        parent, name = self._resolve_parent(path, _depth)
        if name is None:
            return parent
        inode = parent.children.get(name)
        if inode is None:
            raise KernelError(Errno.ENOENT, path)
        if inode.file_type is FileType.SYMLINK and follow_symlinks:
            return self._follow(inode, _depth)
        return inode

    def _follow(self, symlink: Inode, depth: int) -> Inode:
        if depth >= MAX_SYMLINK_DEPTH:
            raise KernelError(Errno.ELOOP, symlink.symlink_target or "")
        return self.resolve(symlink.symlink_target, True, depth + 1)

    def _resolve_parent(self, path: str,
                        depth: int = 0) -> tuple[Inode, Optional[str]]:
        """Resolve to ``(parent_dir_inode, final_component)``.

        For the root path the final component is ``None``.
        """
        if not path.startswith("/"):
            raise KernelError(Errno.EINVAL, f"relative path {path!r}")
        parts = self.split(path)
        if not parts:
            return self.root, None
        current = self.root
        for part in parts[:-1]:
            if len(part) > NAME_MAX:
                raise KernelError(Errno.ENAMETOOLONG, part)
            child = current.children.get(part) if current.is_dir else None
            if current.file_type is FileType.SYMLINK:
                current = self._follow(current, depth)
                child = current.children.get(part) if current.is_dir else None
            if not current.is_dir:
                raise KernelError(Errno.ENOTDIR, path)
            if child is None:
                raise KernelError(Errno.ENOENT, path)
            if child.file_type is FileType.SYMLINK:
                child = self._follow(child, depth)
            current = child
        if not current.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        name = parts[-1]
        if len(name) > NAME_MAX:
            raise KernelError(Errno.ENAMETOOLONG, name)
        return current, name

    def lookup(self, path: str) -> Optional[Inode]:
        """Resolve ``path`` or return ``None`` instead of raising."""
        try:
            return self.resolve(path)
        except KernelError:
            return None

    # ------------------------------------------------------------------
    # Creation / removal

    def create(self, path: str, file_type: FileType = FileType.REGULAR,
               exclusive: bool = False) -> Inode:
        """Create a file of ``file_type`` at ``path``.

        Returns the existing inode for non-exclusive regular creation
        (the ``open(O_CREAT)`` path); raises ``EEXIST`` otherwise.
        """
        parent, name = self._resolve_parent(path)
        if name is None:
            raise KernelError(Errno.EEXIST, path)
        existing = parent.children.get(name)
        if existing is not None:
            if exclusive or file_type is not FileType.REGULAR:
                raise KernelError(Errno.EEXIST, path)
            return existing
        ino, gen = self._allocator.allocate()
        inode = Inode(ino, self.dev_for_path(path), file_type, gen,
                      self._now())
        parent.children[name] = inode
        if file_type is FileType.DIRECTORY:
            inode.nlink = 2
            parent.nlink += 1
        parent.mtime_ns = self._now()
        self.inodes_created += 1
        return inode

    def mkdir(self, path: str) -> Inode:
        """Create a directory; raises ``EEXIST`` if the path exists."""
        parent, name = self._resolve_parent(path)
        if name is None or name in parent.children:
            raise KernelError(Errno.EEXIST, path)
        return self.create(path, FileType.DIRECTORY)

    def symlink(self, target: str, path: str) -> Inode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        inode = self.create(path, FileType.SYMLINK, exclusive=True)
        inode.symlink_target = target
        return inode

    def unlink(self, path: str) -> Inode:
        """Remove a directory entry; the inode survives while open."""
        parent, name = self._resolve_parent(path)
        if name is None:
            raise KernelError(Errno.EISDIR, path)
        inode = parent.children.get(name)
        if inode is None:
            raise KernelError(Errno.ENOENT, path)
        if inode.is_dir:
            raise KernelError(Errno.EISDIR, path)
        del parent.children[name]
        parent.mtime_ns = self._now()
        inode.nlink -= 1
        inode.ctime_ns = self._now()
        if inode.nlink == 0:
            if inode.open_count > 0:
                self._orphans.add(inode.ino)
            else:
                self._allocator.free(inode.ino)
        return inode

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._resolve_parent(path)
        if name is None:
            raise KernelError(Errno.EBUSY, path)
        inode = parent.children.get(name)
        if inode is None:
            raise KernelError(Errno.ENOENT, path)
        if not inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        if inode.children:
            raise KernelError(Errno.ENOTEMPTY, path)
        del parent.children[name]
        parent.nlink -= 1
        parent.mtime_ns = self._now()
        self._allocator.free(inode.ino)

    def rename(self, old_path: str, new_path: str) -> Inode:
        """Atomically move ``old_path`` to ``new_path``.

        An existing non-directory target is replaced, as POSIX requires.
        """
        old_parent, old_name = self._resolve_parent(old_path)
        if old_name is None or old_name not in old_parent.children:
            raise KernelError(Errno.ENOENT, old_path)
        inode = old_parent.children[old_name]
        if self.dev_for_path(new_path) != inode.dev:
            raise KernelError(Errno.EXDEV, new_path)
        new_parent, new_name = self._resolve_parent(new_path)
        if new_name is None:
            raise KernelError(Errno.EBUSY, new_path)
        target = new_parent.children.get(new_name)
        if target is inode:
            return inode
        if target is not None:
            if target.is_dir:
                if not inode.is_dir:
                    raise KernelError(Errno.EISDIR, new_path)
                if target.children:
                    raise KernelError(Errno.ENOTEMPTY, new_path)
                new_parent.nlink -= 1
                self._allocator.free(target.ino)
            else:
                if inode.is_dir:
                    raise KernelError(Errno.ENOTDIR, new_path)
                target.nlink -= 1
                if target.nlink == 0:
                    if target.open_count > 0:
                        self._orphans.add(target.ino)
                    else:
                        self._allocator.free(target.ino)
            del new_parent.children[new_name]
        del old_parent.children[old_name]
        new_parent.children[new_name] = inode
        if inode.is_dir and old_parent is not new_parent:
            old_parent.nlink -= 1
            new_parent.nlink += 1
        now = self._now()
        old_parent.mtime_ns = now
        new_parent.mtime_ns = now
        inode.ctime_ns = now
        return inode

    # ------------------------------------------------------------------
    # Open-file lifetime

    def inode_opened(self, inode: Inode) -> None:
        """Record one more open file description for ``inode``."""
        inode.open_count += 1

    def inode_closed(self, inode: Inode) -> None:
        """Drop an open file description; free orphaned inodes."""
        inode.open_count -= 1
        if inode.open_count == 0 and inode.ino in self._orphans:
            self._orphans.discard(inode.ino)
            self._allocator.free(inode.ino)
