# simlint: hot-path
"""Two-level TLB extended with the overlay bit vector (Ì in Figure 6).

Each TLB entry is widened by the 64-bit ``OBitVector`` of its virtual page
(Section 3.1, Challenge 1) so the processor can decide on the L1-cache
path whether an access goes to the overlay or to the regular physical
page.  Table 2 gives the structure modelled here: a 64-entry 4-way L1 TLB
(1 cycle), a 1024-entry L2 TLB (10 cycles), and a 1000-cycle miss
(page-table plus OMT fill) penalty.

Entries hold private *copies* of the OBitVector.  Keeping those copies
coherent on a line remap without a full shootdown is exactly the problem
Section 4.3.3 solves with the *overlaying read exclusive* coherence
message; :meth:`TLB.snoop_overlaying_write` is the receiving end of that
message, and :meth:`TLB.shootdown` is the expensive page-granularity
baseline it replaces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .obitvector import OBitVector
from ..engine.tracing import HOOKS
from .page_table import PTE
from ..config import DEFAULT_CONFIG
from ..engine.component import Component


class TLBEntry:
    """A cached translation plus its overlay state.

    A slotted value type: one is allocated per TLB fill, and every
    access reads its fields.
    """

    __slots__ = ("asid", "vpn", "pte", "obitvector")

    def __init__(self, asid: int, vpn: int, pte: PTE,
                 obitvector: Optional[OBitVector] = None):
        self.asid = asid
        self.vpn = vpn
        self.pte = pte
        self.obitvector = obitvector if obitvector is not None else OBitVector()

    @property
    def key(self) -> Tuple[int, int]:
        return (self.asid, self.vpn)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TLBEntry):
            return (self.asid == other.asid and self.vpn == other.vpn
                    and self.pte == other.pte
                    and self.obitvector == other.obitvector)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"TLBEntry(asid={self.asid}, vpn={self.vpn:#x}, "
                f"pte={self.pte!r}, obitvector={self.obitvector!r})")


@dataclass
class TLBStats:
    l1_hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    shootdowns: int = 0
    snoop_updates: int = 0

    @property
    def accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class _SetAssociativeArray:
    """A set-associative array of TLB entries with per-set LRU.

    Each set is an :class:`~collections.OrderedDict` keyed by
    ``(asid, vpn)`` in LRU order (least recent first): a hit is one
    ``get`` plus ``move_to_end``, an eviction is ``popitem(last=False)``
    — the same LRU semantics as the previous per-set lists, without the
    linear probe.
    """

    __slots__ = ("_sets", "_ways", "_buckets")

    def __init__(self, entries: int, ways: int):
        if entries % ways:
            raise ValueError("entry count must be a multiple of associativity")
        self._sets = entries // ways
        self._ways = ways
        self._buckets: List["OrderedDict[Tuple[int, int], TLBEntry]"] = [
            OrderedDict() for _ in range(self._sets)]

    def _set_for(self, key: Tuple[int, int]) -> int:
        asid, vpn = key
        return (vpn ^ asid) % self._sets

    def lookup(self, key: Tuple[int, int]) -> Optional[TLBEntry]:
        bucket = self._buckets[(key[1] ^ key[0]) % self._sets]
        entry = bucket.get(key)
        if entry is not None:
            bucket.move_to_end(key)
        return entry

    def insert(self, entry: TLBEntry) -> Optional[TLBEntry]:
        """Insert *entry*; return the victim evicted, if any."""
        key = (entry.asid, entry.vpn)
        bucket = self._buckets[(key[1] ^ key[0]) % self._sets]
        victim = None
        if key in bucket:
            del bucket[key]
        elif len(bucket) >= self._ways:
            victim = bucket.popitem(last=False)[1]
        bucket[key] = entry
        return victim

    def invalidate(self, key: Tuple[int, int]) -> bool:
        bucket = self._buckets[(key[1] ^ key[0]) % self._sets]
        return bucket.pop(key, None) is not None

    def entries(self) -> List[TLBEntry]:
        return [entry for bucket in self._buckets
                for entry in bucket.values()]

    def flush(self) -> None:
        for bucket in self._buckets:
            bucket.clear()


class TLB(Component):
    """A per-core, two-level TLB with overlay-aware entries."""

    def __init__(self, l1_entries: int = 64, l1_ways: int = 4,
                 l2_entries: int = 1024, l2_ways: int = 8,
                 l1_latency: int = DEFAULT_CONFIG.l1_tlb_latency,
                 l2_latency: int = DEFAULT_CONFIG.l2_tlb_latency,
                 miss_latency: int = DEFAULT_CONFIG.tlb_miss_latency,
                 name: str = "tlb",
                 parent: Optional[Component] = None):
        super().__init__(name, parent=parent)
        self._l1 = _SetAssociativeArray(l1_entries, l1_ways)
        self._l2 = _SetAssociativeArray(l2_entries, l2_ways)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.miss_latency = miss_latency
        self.stats = TLBStats()
        self.stats_scope.own_block(self.stats)

    def lookup(self, asid: int, vpn: int) -> Tuple[Optional[TLBEntry], int]:
        """Probe both levels; return ``(entry, latency_cycles)``.

        A miss returns ``(None, miss_latency)`` — the caller performs the
        page-table and OMT walk and then calls :meth:`fill`.
        """
        key = (asid, vpn)
        entry = self._l1.lookup(key)
        if entry is not None:
            self.stats.l1_hits += 1
            return entry, self.l1_latency
        entry = self._l2.lookup(key)
        if entry is not None:
            self.stats.l2_hits += 1
            self._l1.insert(entry)  # promote; L2 keeps it (inclusive)
            return entry, self.l1_latency + self.l2_latency
        self.stats.misses += 1
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "tlb", f"{self.component_name}.miss",
                              {"asid": asid, "vpn": vpn,
                               "latency": self.miss_latency})
        return None, self.miss_latency

    def fill(self, asid: int, vpn: int, pte: PTE,
             obitvector: Optional[OBitVector] = None) -> TLBEntry:
        """Install a translation after a miss; OBitVector is copied in.

        The OBitVector fetch is what makes overlay TLB fills slightly more
        expensive (Section 4.3: "this potentially increases the cost of
        each TLB miss"); the extra latency is charged by the MMU, not here.
        """
        entry = TLBEntry(asid=asid, vpn=vpn, pte=pte,
                         obitvector=(obitvector or OBitVector()).copy())
        # Fault-injection site: the widened entry is written into the TLB
        # array; a transient error corrupts this TLB's private copy only.
        if HOOKS.faults is not None:
            HOOKS.faults.on_tlb_fill(entry)
        self._l2.insert(entry)
        self._l1.insert(entry)
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "tlb", f"{self.component_name}.fill",
                              {"asid": asid, "vpn": vpn,
                               "overlay": obitvector is not None})
        return entry

    # -- coherence (Section 4.3.3) -----------------------------------------

    def snoop_overlaying_write(self, asid: int, vpn: int, line: int) -> bool:
        """Handle an *overlaying read exclusive* snoop for one cache line.

        If this TLB caches the mapping, only the corresponding OBitVector
        bit is set — no invalidation, no shootdown.  Returns True when the
        entry was present and updated.
        """
        updated = False
        for array in (self._l1, self._l2):
            entry = array.lookup((asid, vpn))
            if entry is not None:
                entry.obitvector.set(line)
                updated = True
        if updated:
            self.stats.snoop_updates += 1
        return updated

    def snoop_commit(self, asid: int, vpn: int) -> bool:
        """Clear the OBitVector when an overlay is promoted (Section 4.3.4)."""
        updated = False
        for array in (self._l1, self._l2):
            entry = array.lookup((asid, vpn))
            if entry is not None:
                entry.obitvector.clear_all()
                updated = True
        return updated

    def shootdown(self, asid: int, vpn: int) -> bool:
        """Invalidate a whole page mapping — the classic TLB shootdown the
        baseline copy-on-write remap requires (Section 2.2, Ë in Fig. 3a)."""
        hit1 = self._l1.invalidate((asid, vpn))
        hit2 = self._l2.invalidate((asid, vpn))
        if hit1 or hit2:
            self.stats.shootdowns += 1
        if HOOKS.active is not None:
            HOOKS.active.emit(None, "tlb", f"{self.component_name}.shootdown",
                              {"asid": asid, "vpn": vpn,
                               "invalidated": hit1 or hit2})
        return hit1 or hit2

    def flush(self) -> None:
        self._l1.flush()
        self._l2.flush()

    def cached_entry(self, asid: int, vpn: int) -> Optional[TLBEntry]:
        """Peek (no stats, no LRU effect beyond lookup) for tests/snoops."""
        return self._l1.lookup((asid, vpn)) or self._l2.lookup((asid, vpn))

    def cached_entries(self) -> List[TLBEntry]:
        """Every cached entry, deduplicated across levels (both levels
        share entry objects — the TLB is inclusive) and sorted by
        ``(asid, vpn)`` so invariant sweeps are deterministic."""
        unique = {entry.key: entry
                  for entry in self._l1.entries() + self._l2.entries()}
        return [unique[key] for key in sorted(unique)]
