# simlint: hot-path
"""The MMU (per-core translation path) and the overlay-aware memory
controller — the microarchitecture of Figure 6.

Three hardware changes over a conventional system (Section 4.3):

Ê  Main memory is split between regular physical pages and the Overlay
   Memory Store; the split lives in :class:`MemoryController`.
Ë  The memory controller gains the OMT cache
   (:class:`~repro.core.omt.OMTCache`).
Ì  TLB entries are widened with the ``OBitVector``; the fill path fetches
   it from the OMT, which is the extra TLB-miss cost the paper accepts.

The controller is the only component that ever touches the Overlay Memory
Store: overlay lines are located through the OMT exclusively on a full
cache-hierarchy miss (Section 4.3.1), and overlay memory is allocated
*lazily*, when a dirty overlay line is written back (Section 4.3.3) —
never on the store's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .address import (LINE_SIZE, LINES_PER_PAGE, OVERLAY_BIT_MASK,
                      overlay_page_number, tag_is_overlay)
from .obitvector import OBitVector
from .omt import OMTCache, OMTEntry, OverlayMappingTable
from .oms import OverlayMemoryStore, ZERO_LINE
from .page_table import PageTable
from .tlb import TLB, TLBEntry
from ..config import DEFAULT_CONFIG
from ..mem.dram import DRAM
from ..mem.mainmemory import MainMemory
from ..engine.component import Component

#: Cycles per table-walk memory access (an uncontended row-miss DRAM
#: read).  Owned by Table 2's SystemConfig.
MEMORY_ACCESS_CYCLES = DEFAULT_CONFIG.table_walk_access_cycles

#: The overlay bit's position within a line *tag* (a tag is the line
#: address shifted right by 6) — ``tag & _OVERLAY_TAG_BIT`` is
#: :func:`~repro.core.address.tag_is_overlay` without the call.
_OVERLAY_TAG_BIT = OVERLAY_BIT_MASK >> 6


@dataclass
class ControllerStats:
    overlay_reads: int = 0
    overlay_writebacks: int = 0
    physical_writebacks: int = 0
    zero_line_fills: int = 0


class MemoryController(Component):
    """Resolves full-hierarchy misses, managing the OMT and the OMS.

    Installed into :class:`~repro.mem.hierarchy.MemoryHierarchy` as its
    ``resolve_miss`` / ``fetch_data`` / ``handle_writeback`` hooks.
    """

    def __init__(self, main_memory: MainMemory, dram: DRAM,
                 oms: OverlayMemoryStore,
                 omt: Optional[OverlayMappingTable] = None,
                 omt_cache_entries: int = 64,
                 parent: Optional[Component] = None):
        super().__init__("controller", parent=parent)
        self.main_memory = main_memory
        self.dram = dram
        self.oms = oms
        self.omt = omt or OverlayMappingTable()
        self.omt_cache = OMTCache(self.omt, capacity=omt_cache_entries)
        self.stats = ControllerStats()
        self.stats_scope.own_block(self.stats)
        self.stats_scope.register_block("omt_cache", self.omt_cache.stats)
        if isinstance(oms, Component) and oms.parent is None:
            self.attach_child(oms)
        self._now = 0

    # -- tag decomposition ---------------------------------------------------

    @staticmethod
    def _split(tag: int) -> Tuple[int, int]:
        """Return (page_number, line_index) of a line tag."""
        return tag // LINES_PER_PAGE, tag % LINES_PER_PAGE

    # -- hierarchy hooks -------------------------------------------------------

    def resolve_miss(self, tag: int) -> Tuple[Optional[int], int]:
        """Map a missing line tag to a DRAM address plus lookup latency.

        For a regular physical line the address is implicit in the tag.
        For an overlay line the controller consults the OMT cache; a miss
        there costs an OMT walk's worth of memory accesses (Section 4.4.4).
        Returns ``(None, latency)`` when the line has no backing yet (a
        remapped line whose only copy is still dirty in some cache, or a
        never-written overlay line, which reads as zero).
        """
        if not tag & _OVERLAY_TAG_BIT:
            return tag * LINE_SIZE, 0
        opn, line = tag >> 6, tag & 63
        entry, accesses = self.omt_cache.lookup(opn)
        latency = accesses * MEMORY_ACCESS_CYCLES
        if entry is None or entry.segment is None or not entry.segment.has_line(line):
            return None, latency
        self.stats.overlay_reads += 1
        slot = entry.segment.slot_pointers[line]
        if entry.segment.is_direct_mapped:
            address = entry.segment.base + line * LINE_SIZE
        else:
            address = entry.segment.base + (slot + 1) * LINE_SIZE
        return address, latency

    def fetch_data(self, tag: int) -> Optional[bytes]:
        """Return backing bytes for a missing line (no latency charged —
        :meth:`resolve_miss` already accounted for the lookups)."""
        page, line = tag >> 6, tag & 63
        if not tag & _OVERLAY_TAG_BIT:
            # MainMemory.read_line inlined — ``line`` is 0..63 by
            # construction, so the bounds check is statically satisfied.
            frame = self.main_memory._frames.get(page)
            if frame is None:
                return ZERO_LINE
            start = line << 6
            return bytes(frame[start:start + LINE_SIZE])
        entry = self.omt.lookup(page)
        if entry is None or entry.segment is None or not entry.segment.has_line(line):
            self.stats.zero_line_fills += 1
            return ZERO_LINE
        return self.oms.read_line(entry.segment, line)

    def handle_writeback(self, tag: int, data: Optional[bytes]) -> int:
        """Accept a dirty line evicted from the L3.

        Physical lines go to their frame.  Overlay lines trigger the lazy
        allocation path: ensure an OMT entry, allocate or grow the
        overlay's segment, store the line, and update the OMT — all off
        the execution critical path (Section 4.4: "these operations are
        rare and are not on the critical path of execution").
        """
        page, line = tag >> 6, tag & 63
        payload = data if data is not None else ZERO_LINE
        if not tag & _OVERLAY_TAG_BIT:
            self.main_memory.write_line(page, line, payload)
            self.stats.physical_writebacks += 1
            return self.dram.write(tag * LINE_SIZE, self._now)
        entry, accesses = self.omt_cache.lookup(page, create=True)
        latency = accesses * MEMORY_ACCESS_CYCLES
        if entry.segment is None:
            entry.segment = self.oms.allocate_segment(1)
        entry.segment = self.oms.write_line(entry.segment, line, payload)
        self.stats.overlay_writebacks += 1
        slot = entry.segment.slot_pointers[line]
        if entry.segment.is_direct_mapped:
            address = entry.segment.base + line * LINE_SIZE
        else:
            address = entry.segment.base + (slot + 1) * LINE_SIZE
        return latency + self.dram.write(address, self._now)

    # -- OMT management for the framework ---------------------------------------

    def omt_entry(self, opn: int, create: bool = False,
                  charge: bool = True) -> Tuple[Optional[OMTEntry], int]:
        """Fetch (and optionally create) the OMT entry for *opn*.

        With ``charge`` the OMT-cache lookup cost is converted to cycles;
        without, the raw table is consulted (used by data-fidelity views
        that must not perturb timing statistics).
        """
        if not charge:
            entry = self.omt.ensure(opn) if create else self.omt.lookup(opn)
            return entry, 0
        entry, accesses = self.omt_cache.lookup(opn, create=create)
        return entry, accesses * MEMORY_ACCESS_CYCLES

    def drop_overlay(self, opn: int) -> None:
        """Free an overlay's segment and OMT entry (commit/discard)."""
        entry = self.omt.remove(opn)
        self.omt_cache.invalidate(opn)
        if entry is not None and entry.segment is not None:
            self.oms.free_segment(entry.segment)


class TranslationResult:
    """What the MMU hands back to the load/store pipeline."""

    __slots__ = ("entry", "latency", "tlb_hit")

    def __init__(self, entry: TLBEntry, latency: int, tlb_hit: bool):
        self.entry = entry
        self.latency = latency
        self.tlb_hit = tlb_hit

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TranslationResult):
            return (self.entry == other.entry
                    and self.latency == other.latency
                    and self.tlb_hit == other.tlb_hit)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"TranslationResult(entry={self.entry!r}, "
                f"latency={self.latency}, tlb_hit={self.tlb_hit})")


class MMU:
    """Per-core address translation: TLB + page walk + OBitVector fill."""

    __slots__ = ("tlb", "page_tables", "controller")

    def __init__(self, tlb: TLB, page_tables: Dict[int, PageTable],
                 controller: MemoryController):
        self.tlb = tlb
        self.page_tables = page_tables
        self.controller = controller

    def translate(self, asid: int, vpn: int, write: bool = False) -> TranslationResult:
        """Translate (*asid*, *vpn*); may raise
        :class:`~repro.core.page_table.PageFault`.

        A TLB miss costs the Table 2 miss penalty (page walk) plus, for
        overlay-enabled mappings, the OMT lookup that fetches the
        OBitVector into the new TLB entry (Section 4.3, change Ì).
        """
        entry, latency = self.tlb.lookup(asid, vpn)
        if entry is not None:
            return TranslationResult(entry=entry, latency=latency, tlb_hit=True)
        table = self.page_tables.get(asid)
        if table is None:
            raise KeyError(f"no page table registered for ASID {asid}")
        pte, _walk_accesses = table.walk(vpn, write=write)
        obitvector: Optional[OBitVector] = None
        if pte.overlays_enabled:
            opn = overlay_page_number(asid, vpn)
            omt_entry, omt_latency = self.controller.omt_entry(opn, create=True)
            latency += omt_latency
            obitvector = omt_entry.obitvector
        entry = self.tlb.fill(asid, vpn, pte, obitvector)
        return TranslationResult(entry=entry, latency=latency, tlb_hit=False)

    def refresh(self, asid: int, vpn: int) -> None:
        """Drop a cached translation after the OS edits the PTE."""
        self.tlb.shootdown(asid, vpn)
