"""Disk-persistent model cache: the batch scanner's shared parse store.

The in-memory :class:`~repro.core.cache.ModelCache` dies with the
process, so CI runs, the history workflow and ``timing_repetitions``
all re-parse every unchanged file.  :class:`DiskModelCache` layers a
content-addressed pickle store under the memory LRU: every parsed file
model (and every cached parse *failure*) is also written to
``cache_dir/objects/<aa>/<sha256>.pkl``, and a memory miss probes disk
before re-parsing.  Because objects are keyed by a content digest, the
store needs no invalidation — a changed file simply hashes to a new
object, and a front-end change bumps
:data:`~repro.core.cache.FRONTEND_FORMAT` so older objects miss — and
writes are atomic (temp file + ``os.replace``), so any
number of worker processes can share one cache directory.

The memory tier keeps its ``max_entries`` (and, when configured,
``max_bytes``) LRU bounds; the disk tier is unbounded and survives
across runs (``clear()`` drops both).  An entry too large for the
memory budget still lands on disk, so it is served persistently without
ever being pinned in RAM.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Optional

from ..core.cache import ModelCache, _Slot


class DiskModelCache(ModelCache):
    """A :class:`ModelCache` backed by a persistent cache directory."""

    def __init__(
        self,
        cache_dir: str,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(max_entries=max_entries, max_bytes=max_bytes)
        self.cache_dir = cache_dir
        self._objects_dir = os.path.join(cache_dir, "objects")
        os.makedirs(self._objects_dir, exist_ok=True)

    # -- tiering -----------------------------------------------------------

    def _load(self, key: str) -> Optional[_Slot]:
        slot = super()._load(key)
        if slot is not None:
            return slot
        slot = self._read_object(key)
        if slot is not None:
            self.stats.disk_hits += 1
            # promote into the memory LRU without re-writing the object
            super()._insert(key, slot)
        return slot

    def _insert(self, key: str, slot: _Slot) -> None:
        super()._insert(key, slot)
        self._write_object(key, slot)

    def clear(self) -> None:
        """Drop the memory tier *and* the persistent objects."""
        super().clear()
        for dirpath, _dirnames, filenames in os.walk(self._objects_dir):
            for filename in filenames:
                try:
                    os.remove(os.path.join(dirpath, filename))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    def disk_len(self) -> int:
        """Number of objects currently persisted."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self._objects_dir):
            count += sum(1 for name in filenames if name.endswith(".pkl"))
        return count

    # -- object store ------------------------------------------------------

    def _object_path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self._objects_dir, digest[:2], digest + ".pkl")

    def _read_object(self, key: str) -> Optional[_Slot]:
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                model, error = pickle.load(handle)
            return model, error
        except FileNotFoundError:
            return None
        except Exception:
            # truncated/corrupted/stale-format object: quarantine it
            # (unlink so the next store rewrites a clean one) and count
            # the incident so batch telemetry surfaces silent cache rot
            self.stats.corrupt += 1
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - already gone
                pass
            return None

    def _write_object(self, key: str, slot: _Slot) -> None:
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(tuple(slot), handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)  # atomic under concurrent writers
        except Exception:
            # unpicklable model or full disk: keep the memory entry,
            # skip persistence
            try:
                os.remove(tmp_path)
            except OSError:
                pass
