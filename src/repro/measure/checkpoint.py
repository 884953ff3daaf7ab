"""Crash-resilient campaign checkpoints.

A weeks-long sweep (§3) must survive the driver being killed.  The
executor appends every completed shard -- its wire tuple, whose packed
traces (``traceroute.pack_traces``) ride base64-encoded -- to a journal
as soon as it merges; a restarted run replays finished shards from disk
and re-probes only the rest.  Because a shard's traces are a pure
function of ``(engine seed, cloud, region, dst)`` plus the
observation-fault plan, the replayed stream is bit-identical to what a
clean uninterrupted run would have produced.

Layout: one ``<label>.jsonl`` record file (:mod:`repro.fsutil`) per
campaign under the checkpoint directory.  Its header carries a
*fingerprint* of the campaign identity (cloud, seed, regions, targets,
shard size, and the observation-fault signature); every row is one
completed shard, ``{"shard", "packed"}``, appended as it merges.  A
journal whose fingerprint does not match the new run -- e.g. round-2
targets changed because round 1 found different CBIs -- is discarded
rather than trusted.  A torn final line (the process died mid-write) is
cut before the resumed run appends.  The executor fsyncs the journal
when its campaign exits, normally or by interrupt.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.fsutil import RecordLog, safe_name


class CampaignCheckpoint:
    """The shard journal of one campaign.

    A row's ``packed`` value is opaque here: any JSON value, stored and
    returned as is.  The executor stores its wire tuple's first four
    elements, the traces' blob base64-encoded (``executor._journal_row``),
    so the journal never holds live objects.  Tracing span rows never
    enter the journal either, so a resumed run can never replay another
    run's stale wall-clock.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str, resume: bool = True) -> None:
        self._log = RecordLog(path, fingerprint, resume=resume)
        self.path = self._log.path
        self.stale = self._log.stale  # an existing journal was discarded
        self._shards: Dict[int, Sequence[Any]] = {
            row["shard"]: row["packed"]
            for row in self._log.rows
            if "shard" in row and "packed" in row
        }

    @property
    def completed_shards(self) -> int:
        return len(self._shards)

    def has(self, shard_index: int) -> bool:
        return shard_index in self._shards

    def get(self, shard_index: int) -> Optional[Sequence[Any]]:
        return self._shards.get(shard_index)

    def put(self, shard_index: int, packed: Sequence[Any]) -> None:
        """Journal one completed shard (one appended row)."""
        if shard_index in self._shards:
            return
        self._log.append({"shard": shard_index, "packed": packed})
        self._shards[shard_index] = packed

    def finalize(self) -> None:
        """Make every journalled shard durable: fsync the file and its directory."""
        self._log.sync()


class CheckpointStore:
    """A directory of per-campaign journals for one study run."""

    def __init__(self, root: Union[str, Path], resume: bool = False) -> None:
        self.root = Path(root)
        self.resume = resume
        self.root.mkdir(parents=True, exist_ok=True)

    def campaign(self, label: str, fingerprint: str) -> CampaignCheckpoint:
        path = self.root / (safe_name(label, "campaign") + ".jsonl")
        return CampaignCheckpoint(path, fingerprint, resume=self.resume)
