# simlint: hot-path
"""A set-associative cache with pluggable replacement and data payloads.

Caches here are keyed by *line tags* — globally unique integers derived
from the physical (or overlay) line address.  The overlay framework's
dual-address trick (Section 3.2) means an overlay line and its physical
twin have different tags, so they coexist in the hierarchy exactly as the
paper intends, and the "retag" step of an overlaying write (Section 4.3.3
step 1: "simply updating the cache tag") is a tag rewrite on a resident
line, implemented by :meth:`SetAssociativeCache.retag`.

Lines optionally carry a 64-byte payload so data-fidelity experiments
(deduplication, checkpointing, speculation) can move real bytes through
the hierarchy; timing-only workloads pass ``None``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .replacement import LRUPolicy, make_policy
from .stats import CacheStats
from ..config import DEFAULT_CONFIG
from ..engine.component import Component


class CacheLine:
    """One resident line: tag, dirtiness, and optional payload."""

    __slots__ = ("tag", "dirty", "data", "prefetched")

    def __init__(self, tag: int, dirty: bool = False,
                 data: Optional[bytes] = None, prefetched: bool = False):
        self.tag = tag
        self.dirty = dirty
        self.data = data
        self.prefetched = prefetched

    def __repr__(self) -> str:
        return (f"CacheLine(tag={self.tag}, dirty={self.dirty}, "
                f"data={self.data!r}, prefetched={self.prefetched})")


class EvictedLine:
    """What falls out of a cache on a fill."""

    __slots__ = ("tag", "dirty", "data")

    def __init__(self, tag: int, dirty: bool, data: Optional[bytes]):
        self.tag = tag
        self.dirty = dirty
        self.data = data

    def __repr__(self) -> str:
        return (f"EvictedLine(tag={self.tag}, dirty={self.dirty}, "
                f"data={self.data!r})")


class SetAssociativeCache(Component):
    """A single cache level.

    Parameters mirror Table 2: size, associativity, tag/data latencies and
    whether tag and data lookups are performed in parallel (L1, L2) or
    serially (L3).
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_size: int = DEFAULT_CONFIG.cache_line_bytes,
                 tag_latency: int = DEFAULT_CONFIG.l1_tag_latency,
                 data_latency: int = DEFAULT_CONFIG.l1_data_latency,
                 serial_tag_data: bool = False,
                 policy: str = "lru", parent: Component = None):
        super().__init__(name.lower(), parent=parent)
        if size_bytes % (ways * line_size):
            raise ValueError("cache size must divide evenly into sets")
        self.name = name
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_size)
        self.tag_latency = tag_latency
        self.data_latency = data_latency
        self.serial_tag_data = serial_tag_data
        self._policy = make_policy(policy, self.num_sets, ways)
        # access() and fill() inline LRU bookkeeping; any other policy
        # goes through the policy object's methods.
        self._policy_is_lru = type(self._policy) is LRUPolicy
        self._lines: List[List[Optional[CacheLine]]] = [
            [None] * ways for _ in range(self.num_sets)]
        self._where: Dict[int, Tuple[int, int]] = {}
        # Lines resident per set: lets fill() skip the free-way scan once
        # a set is full (the steady state), going straight to eviction.
        self._occupancy: List[int] = [0] * self.num_sets
        # Precomputed ints so hot paths avoid the property dispatch.
        if serial_tag_data:
            self.hit_latency = tag_latency + data_latency
        else:
            self.hit_latency = max(tag_latency, data_latency)
        self.miss_latency = tag_latency
        self.stats = CacheStats(name=name)
        self.stats_scope.own_block(self.stats)

    # -- core operations -------------------------------------------------------

    def _set_index(self, tag: int) -> int:
        return tag % self.num_sets

    def lookup(self, tag: int) -> Optional[CacheLine]:
        """Probe without any side effects (no stats, no LRU update)."""
        where = self._where.get(tag)
        if where is None:
            return None
        set_index, way = where
        return self._lines[set_index][way]

    def access(self, tag: int, write: bool = False,
               data: Optional[bytes] = None) -> Tuple[bool, int]:
        """Access *tag*; return ``(hit, latency)``.

        On a write hit the line is marked dirty and its payload replaced
        when *data* is given.  Misses cost only the tag latency here; the
        hierarchy adds the lower levels' time and then calls :meth:`fill`.
        """
        where = self._where.get(tag)
        if where is None:
            self.stats.misses += 1
            return False, self.miss_latency
        set_index, way = where
        line = self._lines[set_index][way]
        if self._policy_is_lru:
            policy = self._policy
            policy._clock += 1
            policy._last_use[set_index][way] = policy._clock
        else:
            self._policy.on_hit(set_index, way)
        self.stats.hits += 1
        if line.prefetched:
            self.stats.prefetch_hits += 1
            line.prefetched = False
        if write:
            line.dirty = True
            if data is not None:
                line.data = data
        return True, self.hit_latency

    def fill(self, tag: int, data: Optional[bytes] = None,
             dirty: bool = False, prefetch: bool = False) -> Optional[EvictedLine]:
        """Install *tag*, returning the evicted line if one fell out."""
        where_map = self._where
        where = where_map.get(tag)
        if where is not None:
            # Refill of a resident line (e.g. prefetch raced demand): merge.
            line = self._lines[where[0]][where[1]]
            if dirty:
                line.dirty = True
            if data is not None:
                line.data = data
            return None
        set_index = tag % self.num_sets
        bucket = self._lines[set_index]
        policy = self._policy
        stats = self.stats
        is_lru = self._policy_is_lru
        evicted = None
        occupancy = self._occupancy
        if occupancy[set_index] < self.ways:
            way = bucket.index(None)  # first free way, as victim() picks
            occupancy[set_index] += 1
            bucket[way] = CacheLine(tag=tag, dirty=dirty, data=data,
                                    prefetched=prefetch)
        else:
            if is_lru:
                # Inlined LRUPolicy.victim_full: oldest stamp,
                # first-of-equals (matching min()'s tie-break).
                stamps = policy._last_use[set_index]
                way = 0
                best = stamps[0]
                for i in range(1, self.ways):
                    stamp = stamps[i]
                    if stamp < best:
                        best = stamp
                        way = i
            else:
                way = policy.victim_full(set_index)
            victim = bucket[way]
            del where_map[victim.tag]
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            evicted = EvictedLine(tag=victim.tag, dirty=victim.dirty,
                                  data=victim.data)
            # Reuse the victim's CacheLine object for the incoming line.
            victim.tag = tag
            victim.dirty = dirty
            victim.data = data
            victim.prefetched = prefetch
        where_map[tag] = (set_index, way)
        if is_lru:
            policy._clock += 1
            policy._last_use[set_index][way] = policy._clock
        else:
            policy.on_fill(set_index, way, prefetch=prefetch)
        stats.fills += 1
        if prefetch:
            stats.prefetch_fills += 1
        return evicted

    def invalidate(self, tag: int) -> Optional[EvictedLine]:
        """Remove *tag*; returns the line (with dirtiness) if present."""
        where = self._where.pop(tag, None)
        if where is None:
            return None
        set_index, way = where
        line = self._lines[set_index][way]
        self._lines[set_index][way] = None
        self._occupancy[set_index] -= 1
        self.stats.invalidations += 1
        return EvictedLine(tag=line.tag, dirty=line.dirty, data=line.data)

    def retag(self, old_tag: int, new_tag: int) -> bool:
        """Rewrite a resident line's tag in place (overlaying-write step 1).

        The line keeps its data and dirtiness but now answers to
        *new_tag*.  Returns False when *old_tag* is not resident or the
        new tag's set already holds it.  When old and new tags land in
        different sets the line is physically moved (hardware would make
        an explicit copy in that case — Section 4.3.3).
        """
        where = self._where.get(old_tag)
        if where is None or new_tag in self._where:
            return False
        set_index, way = where
        line = self._lines[set_index][way]
        new_set = self._set_index(new_tag)
        line.tag = new_tag
        if new_set == set_index:
            del self._where[old_tag]
            self._where[new_tag] = (set_index, way)
            return True
        # Cross-set move: evict from the old slot, fill into the new set.
        self._lines[set_index][way] = None
        self._occupancy[set_index] -= 1
        del self._where[old_tag]
        self.fill(new_tag, data=line.data, dirty=line.dirty)
        return True

    def dirty_lines(self) -> List[CacheLine]:
        """All dirty resident lines (checkpoint/speculation flushes)."""
        return [line for bucket in self._lines for line in bucket
                if line is not None and line.dirty]

    def resident_tags(self) -> List[int]:
        return list(self._where)

    def __contains__(self, tag: int) -> bool:
        return tag in self._where

    def __len__(self) -> int:
        return len(self._where)
