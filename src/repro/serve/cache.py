"""The config-hash result cache behind ``repro serve``.

A results-directory store (one JSON document per campaign point, the
sdn-loadbalance MetricsCollector layout): entry ``<hash>`` lives at
``<cache_dir>/<hash[:2]>/<hash>.json`` and holds the campaign's result
payload wrapped in a run manifest, so a cache hit returns exactly what
the original run returned — provenance included.  Writes are atomic
(temp file + ``os.replace``) so a crashed daemon never leaves a torn
entry, and reads treat unparseable files as misses (the entry is simply
recomputed).

Keys come from :func:`repro.obs.manifest.config_hash` version 2 — the
strict canonicalizer — which is what makes "same campaign, any client,
any key order" dedup sound.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.manifest import CONFIG_HASH_VERSION, build_manifest

#: Cache entry schema version; bump on incompatible payload changes so a
#: newer daemon never serves an older daemon's entries as fresh.
ENTRY_SCHEMA = 1


class ResultCache:
    """Directory-backed result store keyed by canonical config hash.

    Unbounded by default (the historical behaviour).  ``max_entries``
    caps the entry count: after each write the least-recently-used
    entries — by file mtime, which :meth:`get` refreshes on every hit —
    are pruned until the cap holds.  ``ttl_s`` expires entries by age:
    a hit on an entry stored longer ago than the TTL deletes it and
    reports a miss, so the campaign is recomputed fresh.  Every removal
    either way increments :attr:`evictions`.
    ``len()`` is a kept count -- listed at construction, then followed
    through this instance's stores, removals and prunes -- not a scan.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.cache_dir = Path(cache_dir)
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def _evict(self, path: Path) -> None:
        """Remove one entry file, tolerating concurrent removal."""
        with self._lock:
            try:
                path.unlink()
            except OSError:
                return
            self.evictions += 1
            self._entries -= 1

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The cached entry for ``key``, or ``None``.  Counts hit/miss."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            with self._lock:
                self.misses += 1
            return None
        if entry.get("schema") != ENTRY_SCHEMA or entry.get("config_hash") != key:
            with self._lock:
                self.misses += 1
            return None
        if self.ttl_s is not None:
            stored = entry.get("stored_unix")
            if not isinstance(stored, (int, float)) or (
                time.time() - stored > self.ttl_s
            ):
                self._evict(path)
                with self._lock:
                    self.misses += 1
                return None
        # LRU touch: pruning orders by mtime, so a hit must refresh it.
        # Explicit times — the default takes the kernel's coarse clock,
        # whose ~10 ms granularity ties back-to-back hits.
        now = time.time()
        try:
            os.utime(path, times=(now, now))
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return entry

    def _prune(self) -> None:
        """Drop least-recently-used entries until ``max_entries`` holds."""
        if self.max_entries is None:
            return
        entries = []
        with self._lock:
            for path in self.cache_dir.glob("*/*.json"):
                try:
                    entries.append((path.stat().st_mtime, path))
                except OSError:
                    continue  # concurrently removed
            self._entries = len(entries)
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, path in entries[:excess]:
            self._evict(path)

    def put(
        self,
        key: str,
        config: dict[str, Any],
        result: dict[str, Any],
        *,
        seed: Optional[int] = None,
    ) -> Path:
        """Store ``result`` under ``key``, wrapped in a run manifest.

        Atomic: the entry appears complete or not at all.
        """
        manifest = build_manifest(config, seed=seed, extra={"result": result})
        entry = {
            "schema": ENTRY_SCHEMA,
            "config_hash": key,
            "config_hash_version": CONFIG_HASH_VERSION,
            "stored_unix": time.time(),
            "manifest": manifest,
            "result": result,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, indent=1, default=str)
                handle.write("\n")
            with self._lock:
                existed = path.exists()
                os.replace(tmp, path)
                if not existed:
                    self._entries += 1
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._prune()
        return path

    def __len__(self) -> int:
        return self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": self._entries,
            }
