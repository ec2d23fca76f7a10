"""The one seam every durable write in a data directory goes through.

Seven operations, each naming its file by path so that a log of them
replays (``create`` truncates, ``rename`` replaces); ``atomic_write`` and
``makedirs`` are built on them.  Production passes :data:`PLAIN`;
:class:`RecordingIO` also logs each operation with its bytes and can die
at operation *k* -- how ``doublerun --durability`` makes every prefix of
a run a crash state.  A temporary a killed process leaves behind
(:func:`is_temporary`) is removed by the engine's and the lake's garbage
passes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, NamedTuple, Optional

from .._util import stable_hash

#: Operations that carry bytes (the ones a cut can tear).
WRITES = ("create", "append")


class SimulatedCrash(RuntimeError):
    """The process died at durable operation ``index``: nothing may
    retry past it (not a transient error); recover from disk instead."""

    def __init__(self, index: int, kind: str, path: Path):
        super().__init__(f"simulated crash at operation {index} "
                         f"({kind} {path})")
        self.index = index
        self.kind = kind


class Op(NamedTuple):
    """One logged durable operation (``target``: a rename's destination)."""

    kind: str
    path: Path
    data: bytes = b""
    target: Optional[Path] = None


def is_temporary(name: str) -> bool:
    """True for an :meth:`DurableIO.atomic_write` temporary's file name."""
    return name.startswith(".") and name.endswith(".tmp")


def torn_offset(size: int, *parts: object) -> int:
    """How many of ``size`` bytes a crash lets reach the file: seeded by
    ``parts``, and always short of whole (0 for an empty write)."""
    return stable_hash("torn", *parts) % size if size else 0


def apply_op(op: Op) -> None:
    """Perform one operation on the real file system."""
    if op.kind in WRITES:
        with open(op.path, "wb" if op.kind == "create" else "ab") as fh:
            fh.write(op.data)
    elif op.kind == "rename":
        os.replace(op.path, op.target)
    elif op.kind == "unlink":
        os.unlink(op.path)
    elif op.kind == "mkdir":
        os.mkdir(op.path)
    else:  # fsync, fsync_dir
        try:
            fd = os.open(op.path, os.O_RDONLY)
        except OSError:
            if op.kind == "fsync":
                raise
            return  # Windows cannot open a directory to fsync it
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class DurableIO:
    """The plain seam: every operation goes straight to the file system."""

    def _do(self, op: Op) -> None:
        apply_op(op)

    def create(self, path: Path, data: bytes) -> None:
        self._do(Op("create", Path(path), data))

    def append(self, path: Path, data: bytes) -> None:
        """Append ``data``, creating the file if it is missing."""
        self._do(Op("append", Path(path), data))

    def fsync(self, path: Path) -> None:
        self._do(Op("fsync", Path(path)))

    def rename(self, path: Path, target: Path) -> None:
        self._do(Op("rename", Path(path), target=Path(target)))

    def unlink(self, path: Path) -> None:
        self._do(Op("unlink", Path(path)))

    def mkdir(self, path: Path) -> None:
        self._do(Op("mkdir", Path(path)))

    def fsync_dir(self, path: Path) -> None:
        """Make the directory's entries (creates, renames, unlinks)
        survive power loss; a rename alone is atomic only for readers."""
        self._do(Op("fsync_dir", Path(path)))

    def atomic_write(self, path: Path, data: bytes) -> None:
        """Publish ``data`` at ``path``: readers see the old file or the
        new one, and the closing directory fsync makes it durable."""
        path = Path(path)
        temporary = path.with_name(f".{path.name}.tmp")
        self.create(temporary, data)
        self.fsync(temporary)
        self.rename(temporary, path)
        self.fsync_dir(path.parent)

    def makedirs(self, path: Path) -> None:
        """Create ``path`` and its missing parents, each made durable by
        an fsync of the directory that holds it."""
        missing = []
        path = Path(path)
        while not path.exists():
            missing.append(path)
            path = path.parent
        for directory in reversed(missing):
            self.mkdir(directory)
            self.fsync_dir(directory.parent)


#: The production seam (stateless: one instance serves every caller).
PLAIN = DurableIO()


class RecordingIO(DurableIO):
    """The plain seam plus a log of every operation it performed.

    Armed with ``cut=k`` it dies at operation ``k``: a write there is
    torn at :func:`torn_offset` bytes, anything else never happens, and
    :class:`SimulatedCrash` is raised -- for every later operation too,
    since a dead process writes nothing more.
    """

    def __init__(self, cut: Optional[int] = None, seed: int = 0):
        self.log: List[Op] = []
        self.cut = cut
        self.seed = seed
        #: the operation the cut fell at (None while alive)
        self.fired: Optional[Op] = None

    def _do(self, op: Op) -> None:
        index = len(self.log)
        if self.fired is None and index == self.cut:
            self.fired = op
            if op.kind in WRITES:
                apply_op(op._replace(data=op.data[:torn_offset(
                    len(op.data), self.seed, index)]))
        if self.fired is not None:
            raise SimulatedCrash(index, op.kind, op.path)
        apply_op(op)
        self.log.append(op)
