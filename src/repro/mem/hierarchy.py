"""The three-level cache hierarchy of Table 2, glued to DRAM.

* L1: 64KB, 4-way, tag/data 1/2 cycles, parallel lookup, LRU.
* L2: 512KB, 8-way, tag/data 2/8 cycles, parallel lookup, LRU.
* L3: 2MB, 16-way, tag/data 10/24 cycles, serial lookup, DRRIP.
* Stream prefetcher monitoring L2 misses, prefetching into L3.
* Inclusion is not enforced at any level (Section 5).

Every Table 2 default above is *derived from*
:class:`~repro.config.SystemConfig` through
:class:`~repro.engine.builder.SystemBuilder` — this module holds no
numeric configuration of its own.  Per-level ``l?_kwargs`` still
override individual fields (ablations, small test hierarchies).

The hierarchy works on line *tags*.  Regular physical tags resolve to a
DRAM byte address as ``tag * 64``; overlay tags carry the overlay marker
bit and are resolved by the memory controller through the OMT — the
controller serves the hierarchy's three typed ports
(:attr:`MemoryHierarchy.miss_port`, :attr:`~MemoryHierarchy.fetch_port`,
:attr:`~MemoryHierarchy.writeback_port`) for that (Section 4.3.1: the
Overlay Memory Store is accessed only when an access misses the entire
hierarchy).
"""

# simlint: hot-path
from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .cache import EvictedLine, SetAssociativeCache
from .dram import DRAM
from .prefetcher import StreamPrefetcher
from ..engine.component import Component
from ..engine.port import FetchPort, MissPort, MissResolution, WritebackPort
from ..engine.tracing import HOOKS

#: Hook resolving a line tag to ``(dram_byte_address, extra_latency)``.
#: (Legacy alias — handlers now connect to :attr:`MemoryHierarchy.miss_port`.)
MissResolver = Callable[[int], Tuple[Optional[int], int]]
#: Hook returning the backing bytes for a line tag on a full miss.
DataFetcher = Callable[[int], Optional[bytes]]
#: Hook consuming a dirty line evicted from the L3;
#: returns extra latency charged to background writeback traffic.
WritebackHandler = Callable[[int, Optional[bytes]], int]


class AccessResult:
    """Outcome of one hierarchy access."""

    __slots__ = ("latency", "level")

    def __init__(self, latency: int, level: str):
        self.latency = latency
        self.level = level  # "L1", "L2", "L3", or "MEM"

    @property
    def hit_in_cache(self) -> bool:
        return self.level != "MEM"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AccessResult):
            return (self.latency == other.latency
                    and self.level == other.level)
        return NotImplemented

    def __repr__(self) -> str:
        return f"AccessResult(latency={self.latency}, level={self.level!r})"


class MemoryHierarchy(Component):
    """L1/L2/L3 + prefetcher + DRAM, with overlay-aware miss ports."""

    def __init__(self, dram: Optional[DRAM] = None,
                 resolve_miss: Optional[MissResolver] = None,
                 handle_writeback: Optional[WritebackHandler] = None,
                 fetch_data: Optional[DataFetcher] = None,
                 l1_kwargs: Optional[dict] = None,
                 l2_kwargs: Optional[dict] = None,
                 l3_kwargs: Optional[dict] = None,
                 prefetcher: Optional[StreamPrefetcher] = None,
                 config=None,
                 parent: Optional[Component] = None):
        super().__init__("hierarchy", parent=parent)
        from ..engine.builder import SystemBuilder
        builder = SystemBuilder(config)
        levels = {}
        for level, overrides in (("l1", l1_kwargs), ("l2", l2_kwargs),
                                 ("l3", l3_kwargs)):
            params = builder.cache_params(level)
            params.update(overrides or {})
            levels[level] = SetAssociativeCache(level.upper(), parent=self,
                                                **params)
        self.l1 = levels["l1"]
        self.l2 = levels["l2"]
        self.l3 = levels["l3"]
        self.dram = dram if dram is not None else builder.build_dram()
        self.prefetcher = prefetcher or builder.build_prefetcher()
        self.stats_scope.register_block("prefetcher", self.prefetcher.stats)
        #: Typed channels to the memory controller (or whatever backs the
        #: hierarchy); unconnected ports fall back to a flat physical
        #: address space over ``self.dram``.
        self.miss_port = MissPort("resolve_miss",
                                  resolve_miss or self._default_resolve,
                                  scope=self.stats_scope)
        self.fetch_port = FetchPort("fetch_data",
                                    fetch_data or (lambda tag: None),
                                    scope=self.stats_scope)
        self.writeback_port = WritebackPort(
            "writeback", handle_writeback or self._default_writeback,
            scope=self.stats_scope)
        self._now = 0

    # -- default handlers: plain physical address space ------------------------

    @staticmethod
    def _default_resolve(tag: int) -> MissResolution:
        return MissResolution(address=tag * 64, latency=0)

    def _default_writeback(self, tag: int, data: Optional[bytes]) -> int:
        address, extra = self.miss_port.resolve(tag)
        if address is None:
            return extra
        return extra + self.dram.write(address, self._now)

    # -- eviction plumbing ---------------------------------------------------------

    def _spill(self, level: SetAssociativeCache,
               evicted: Optional[EvictedLine]) -> None:
        """Push a dirty eviction one level down (non-inclusive hierarchy)."""
        if evicted is None or not evicted.dirty:
            return
        if level is self.l1:
            victim = self.l2.fill(evicted.tag, data=evicted.data, dirty=True)
            self._spill(self.l2, victim)
        elif level is self.l2:
            victim = self.l3.fill(evicted.tag, data=evicted.data, dirty=True)
            self._spill(self.l3, victim)
        else:
            self.writeback_port.writeback(evicted.tag, evicted.data)

    def _fill_upward(self, tag: int, data: Optional[bytes],
                     dirty: bool = False) -> None:
        """Install a fetched line into L3, L2 and L1, spilling victims."""
        evicted = self.l3.fill(tag, data=data, dirty=False)
        if evicted is not None and evicted.dirty:
            self._spill(self.l3, evicted)
        evicted = self.l2.fill(tag, data=data, dirty=False)
        if evicted is not None and evicted.dirty:
            self._spill(self.l2, evicted)
        evicted = self.l1.fill(tag, data=data, dirty=dirty)
        if evicted is not None and evicted.dirty:
            self._spill(self.l1, evicted)

    # -- the demand path --------------------------------------------------------

    def access(self, tag: int, write: bool = False,
               data: Optional[bytes] = None, now: Optional[int] = None) -> AccessResult:
        """Perform one demand access for line *tag*.

        Writes are write-back/write-allocate: a write miss fetches the
        line and dirties it in the L1.
        """
        if now is not None:
            self._now = now

        hit, cycles = self.l1.access(tag, write=write, data=data)
        if hit:
            return AccessResult(latency=cycles, level="L1")
        below, level = self._access_below_l1(tag, write, data)
        return AccessResult(latency=cycles + below, level=level)

    def _access_below_l1(self, tag: int, write: bool,
                         data: Optional[bytes]) -> Tuple[int, str]:
        """The post-L1-miss demand path: L2, L3, then memory.

        The common all-levels-miss case is inlined: the L2/L3 miss probes
        and the port dispatch avoid method-call layers while performing
        exactly the operations (stats, LRU touches, hook emissions) the
        un-inlined calls would.
        """
        l2 = self.l2
        if l2._where.get(tag) is not None:
            _hit, latency = l2.access(tag, write=False)
            line = l2.lookup(tag)
            # Dirty ownership moves *up* with the data: leaving the L2
            # copy dirty would create a stale dirty duplicate that a
            # later flush or eviction writes back over fresher data.
            promoted_dirty = write or line.dirty
            line.dirty = False
            evicted = self.l1.fill(tag, data=line.data, dirty=promoted_dirty)
            if evicted is not None and evicted.dirty:
                self._spill(self.l1, evicted)
            if data is not None and write:
                self.l1.access(tag, write=True, data=data)
            return latency, "L2"
        l2.stats.misses += 1
        latency = l2.miss_latency

        # L2 miss: train the prefetcher (it prefetches into the L3).
        for pf_tag in self.prefetcher.on_miss(tag):
            self._prefetch(pf_tag)

        l3 = self.l3
        if l3._where.get(tag) is not None:
            _hit, cycles = l3.access(tag, write=False)
            latency += cycles
            line = l3.lookup(tag)
            promoted_dirty = write or line.dirty
            line.dirty = False
            evicted = l2.fill(tag, data=line.data, dirty=False)
            if evicted is not None and evicted.dirty:
                self._spill(l2, evicted)
            evicted = self.l1.fill(tag, data=line.data, dirty=promoted_dirty)
            if evicted is not None and evicted.dirty:
                self._spill(self.l1, evicted)
            if data is not None and write:
                self.l1.access(tag, write=True, data=data)
            return latency, "L3"
        l3.stats.misses += 1
        latency += l3.miss_latency

        # Full-hierarchy miss: resolve (possibly via the OMT) and go to
        # DRAM.  The port round-trips are inlined (request/latency
        # counters, handler call, hook emission — MissPort.resolve and
        # FetchPort.fetch verbatim, minus the response wrapper).
        miss_port = self.miss_port
        miss_port._requests.value += 1
        response = miss_port._handler(tag)
        if isinstance(response, MissResolution):
            address, extra = response.address, response.latency
        else:
            address, extra = response
        miss_port._latency.value += extra
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", miss_port.name,
                              {"op": "resolve", "tag": tag,
                               "latency": extra})
        latency += extra
        if address is not None:
            latency += self.dram.read(address, self._now + latency)
        fetch_port = self.fetch_port
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", fetch_port.name,
                              {"op": "fetch", "tag": tag})
        fetch_port._requests.value += 1
        fill_data = fetch_port._handler(tag)
        self._fill_upward(tag, data=fill_data, dirty=write)
        if data is not None and write:
            self.l1.access(tag, write=True, data=data)
        return latency, "MEM"

    def _prefetch(self, tag: int) -> None:
        """Fetch *tag* into the L3 off the demand path."""
        if tag < 0:
            return
        l3 = self.l3
        if l3._where.get(tag) is not None:
            return
        # Inlined MissPort.resolve / FetchPort.fetch (as in
        # _access_below_l1): same counters, handlers, hook emissions.
        miss_port = self.miss_port
        miss_port._requests.value += 1
        response = miss_port._handler(tag)
        if isinstance(response, MissResolution):
            address, extra = response.address, response.latency
        else:
            address, extra = response
        miss_port._latency.value += extra
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", miss_port.name,
                              {"op": "resolve", "tag": tag,
                               "latency": extra})
        if address is not None:
            self.dram.read(address, self._now)
        fetch_port = self.fetch_port
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "port", fetch_port.name,
                              {"op": "fetch", "tag": tag})
        fetch_port._requests.value += 1
        evicted = l3.fill(tag, data=fetch_port._handler(tag), prefetch=True)
        if evicted is not None and evicted.dirty:
            self._spill(l3, evicted)

    # -- maintenance operations ----------------------------------------------------

    def retag(self, old_tag: int, new_tag: int) -> bool:
        """Rewrite a resident line's tag in whichever levels hold it."""
        changed = False
        for level in (self.l1, self.l2, self.l3):
            changed = level.retag(old_tag, new_tag) or changed
        return changed

    def invalidate(self, tag: int, writeback: bool = True) -> None:
        """Drop *tag* everywhere, spilling dirty data to memory if asked."""
        for level in (self.l1, self.l2, self.l3):
            evicted = level.invalidate(tag)
            if evicted is not None and evicted.dirty and writeback:
                self.writeback_port.writeback(evicted.tag, evicted.data)

    def flush_dirty(self) -> int:
        """Write back every dirty line (checkpoint barrier); returns count."""
        flushed = 0
        for level in (self.l1, self.l2, self.l3):
            for line in level.dirty_lines():
                self.writeback_port.writeback(line.tag, line.data)
                line.dirty = False
                flushed += 1
        return flushed

    def lookup_data(self, tag: int) -> Optional[bytes]:
        """Return the freshest cached payload for *tag*, if any."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None and line.data is not None:
                return line.data
        return None

    def dirty_data(self, tag: int) -> Optional[bytes]:
        """Return the payload of the freshest *dirty* copy of *tag*, or
        None when no cached copy is dirty."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None and line.dirty:
                return line.data
        return None

    def clean(self, tag: int) -> None:
        """Clear the dirty bit on every cached copy of *tag* (after the
        caller has written the data back itself)."""
        for level in (self.l1, self.l2, self.l3):
            line = level.lookup(tag)
            if line is not None:
                line.dirty = False

    def caches(self) -> List[SetAssociativeCache]:
        return [self.l1, self.l2, self.l3]
