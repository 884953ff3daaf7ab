"""Filesystem durability and naming helpers shared across layers.

Both durable stores -- the campaign shard journals
(:mod:`repro.measure.checkpoint`) and the stage records
(:mod:`repro.core.stages`) -- keep their state in one format, the
*record file*: append-only JSON lines.  The first line is a header
``{"version", "fingerprint"}``; every following line is one JSON object
(a row).  The fingerprint names what the rows were computed for, so a
file written for other inputs, or under another format version, reads
as empty instead of being trusted.

One reader, :func:`read_records`, and one writer, :class:`RecordLog`.
A process killed mid-append leaves a *torn tail*: bytes after the last
complete line.  The reader drops it; the writer cuts it before resuming,
so new rows never land on torn bytes.  Rows reach the OS on every
append, so they survive the process being killed;
:meth:`RecordLog.sync` makes them durable against a host crash too.

The helpers live here, at the bottom of the layer stack next to
:mod:`repro.errors`, so neither store reaches across layers for them.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["RECORD_FORMAT_VERSION", "RecordLog", "read_records", "safe_name"]

#: Format version of every record file.  Bumped whenever the header or a
#: row changes shape -- including the fields of a dataclass a stage
#: payload carries -- so a file written under the old shape is discarded
#: and recomputed, never misread.
RECORD_FORMAT_VERSION = 6

Record = Dict[str, Any]


def safe_name(label: str, fallback: str) -> str:
    """``vpi:google`` -> ``vpi_google`` (filesystem-safe, collision-poor)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label) or fallback


def _header(fingerprint: str) -> Record:
    return {"version": RECORD_FORMAT_VERSION, "fingerprint": fingerprint}


def _line(record: Record) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def _parse(line: bytes) -> Optional[Record]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _scan(path: Path, fingerprint: str) -> Tuple[Optional[List[Record]], int]:
    """A record file's intact rows and the byte length of the prefix holding them.

    The rows are ``None`` when the file holds bytes but no header for
    this format version and ``fingerprint``; a missing or empty file has
    no rows.  The rows end at the first line that is not a JSON object
    followed by a newline: that line starts the torn tail.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return [], 0
    # What follows the last newline is a torn tail (or nothing).
    lines = data.split(b"\n")[:-1]
    if not lines or _parse(lines[0]) != _header(fingerprint):
        return (None if data else []), 0
    rows: List[Record] = []
    end = len(lines[0]) + 1
    for line in lines[1:]:
        row = _parse(line)
        if row is None:
            break
        rows.append(row)
        end += len(line) + 1
    return rows, end


def read_records(path: Union[str, Path], fingerprint: str) -> List[Record]:
    """The rows of a record file written for ``fingerprint``; a pure read.

    A missing file, or one with another format version or fingerprint,
    has no rows; a torn tail is dropped.
    """
    return _scan(Path(path), fingerprint)[0] or []


class RecordLog:
    """The writer of one record file.

    Resuming keeps the rows an existing file holds for ``fingerprint``
    (:attr:`rows`) and cuts its torn tail.  A stale file -- another
    format version or fingerprint -- or any file when not resuming is
    replaced by a fresh header.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str, resume: bool = True) -> None:
        self.path = Path(path)
        rows, end = _scan(self.path, fingerprint) if resume else ([], 0)
        #: an existing file was discarded because its header did not match.
        self.stale = rows is None
        #: the rows a resumed file already held, in file order.
        self.rows: List[Record] = rows or []
        if end:
            os.truncate(self.path, end)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.write(_line(_header(fingerprint)))

    def append(self, row: Record) -> None:
        """Append one row; it reaches the OS before this returns."""
        with open(self.path, "ab") as fh:
            fh.write(_line(row))

    def sync(self) -> None:
        """fsync the file, then its directory (best effort): every row is durable."""
        with open(self.path, "ab") as fh:
            os.fsync(fh.fileno())
        try:
            fd = os.open(str(self.path.parent), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)
