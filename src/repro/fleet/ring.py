"""Consistent-hash session→shard assignment for the fleet frontend.

A classic hash ring: every shard contributes :data:`REPLICAS` virtual
points placed by a stable hash (blake2b — salted per replica, identical
across processes and Python runs, unlike ``hash()``), and a routing
key lands on the first point clockwise from its own hash.  Two
properties matter here:

* **Determinism** — the same key always maps to the same shard while
  the membership is unchanged, so a :class:`~repro.serve.resilient.
  ResilientServeClient` that reconnects with its ``routing_key``
  lands back on the shard that holds nothing of value (sessions are
  process-state) but the *assignment* stays honored — the frontend
  can route a resume identically without any session table shared
  across frontends.
* **Minimal remap** — removing a shard (drain, crash) moves only the
  keys that hashed to its points; everything else keeps its shard, so
  a drain migrates exactly the draining shard's sessions.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

__all__ = ["HashRing", "stable_hash"]

#: Virtual points per shard.  64 keeps the assignment spread within a
#: few percent of uniform for small fleets while the ring stays tiny
#: (N*64 ints).
REPLICAS = 64


def stable_hash(key: str) -> int:
    """A 64-bit process-stable hash of ``key`` (blake2b prefix)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Deterministic consistent hashing over named shards."""

    def __init__(self, shards: Iterable[str] = ()):
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._shards: set[str] = set()
        for shard in shards:
            self.add(shard)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> list[str]:
        """Current members, sorted."""
        return sorted(self._shards)

    def add(self, shard: str) -> None:
        """Add a shard's virtual points (idempotent)."""
        if shard in self._shards:
            return
        self._shards.add(shard)
        for replica in range(REPLICAS):
            point = stable_hash(f"{shard}#{replica}")
            # A (vanishingly unlikely) 64-bit collision between two
            # shards' points would make removal order-dependent; keep
            # the first owner deterministically by shard name.
            owner = self._owners.get(point)
            if owner is not None and owner <= shard:
                continue
            if owner is None:
                bisect.insort(self._points, point)
            self._owners[point] = shard

    def remove(self, shard: str) -> None:
        """Remove a shard's points (idempotent); its keys remap."""
        if shard not in self._shards:
            return
        self._shards.discard(shard)
        for replica in range(REPLICAS):
            point = stable_hash(f"{shard}#{replica}")
            if self._owners.get(point) == shard:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                if index < len(self._points) and self._points[index] == point:
                    del self._points[index]

    def lookup(self, key: str) -> str:
        """The shard owning ``key`` (first point clockwise).

        Raises:
            LookupError: the ring is empty.
        """
        if not self._points:
            raise LookupError("hash ring has no shards")
        point = stable_hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]
