"""Unit tests for the three-level hierarchy and its overlay hooks."""

from functools import partial

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.mainmemory import MainMemory


class RecordingBackend:
    """A hand-rolled backend recording resolver/writeback traffic."""

    def __init__(self):
        self.memory = MainMemory()
        self.writebacks = []
        self.fetches = []

    def resolve(self, tag):
        return tag * 64, 0

    def fetch(self, tag):
        self.fetches.append(tag)
        return self.memory.read_line(tag // 64, tag % 64)

    def writeback(self, tag, data):
        self.writebacks.append((tag, data))
        if data is not None:
            self.memory.write_line(tag // 64, tag % 64, data)
        return 0


def make():
    backend = RecordingBackend()
    hierarchy = MemoryHierarchy(resolve_miss=backend.resolve,
                                handle_writeback=backend.writeback,
                                fetch_data=backend.fetch)
    return hierarchy, backend


class TestDemandPath:
    def test_miss_fills_all_levels(self):
        hierarchy, _ = make()
        result = hierarchy.access(100)
        assert result.level == "MEM"
        assert 100 in hierarchy.l1
        assert 100 in hierarchy.l2
        assert 100 in hierarchy.l3

    def test_l1_hit_is_fast(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        result = hierarchy.access(100)
        assert result.level == "L1"
        assert result.latency <= hierarchy.l1.hit_latency

    def test_latency_ordering(self):
        hierarchy, _ = make()
        mem = hierarchy.access(100).latency
        l1 = hierarchy.access(100).latency
        assert mem > l1

    def test_l2_hit_refills_l1(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        hierarchy.l1.invalidate(100)
        result = hierarchy.access(100)
        assert result.level == "L2"
        assert 100 in hierarchy.l1

    def test_l3_hit_refills_upper_levels(self):
        hierarchy, _ = make()
        hierarchy.access(100)
        hierarchy.l1.invalidate(100)
        hierarchy.l2.invalidate(100)
        result = hierarchy.access(100)
        assert result.level == "L3"
        assert 100 in hierarchy.l1 and 100 in hierarchy.l2

    def test_miss_carries_backing_data(self):
        hierarchy, backend = make()
        backend.memory.write_line(1, 4, b"k" * 64)
        hierarchy.access(100)  # tag 100 = page 1, line 36? (100//64=1,100%64=36)
        hierarchy.access(68)   # page 1, line 4
        assert hierarchy.lookup_data(68) == b"k" * 64

    def test_write_miss_allocates_and_dirties(self):
        hierarchy, _ = make()
        hierarchy.access(100, write=True, data=b"w" * 64)
        line = hierarchy.l1.lookup(100)
        assert line.dirty and line.data == b"w" * 64


class TestWritebackChain:
    def test_dirty_data_survives_eviction_chain(self):
        """A dirty line evicted from L1 spills to L2, L3, then memory."""
        hierarchy, backend = make()
        hierarchy.access(0, write=True, data=b"D" * 64)
        # Force the line down by thrashing L1's set 0 (256 sets in L1).
        for i in range(1, 6):
            hierarchy.access(i * 256, write=False)
        assert hierarchy.lookup_data(0) == b"D" * 64  # still in L2/L3

    def test_flush_dirty_reaches_backend(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"f" * 64)
        flushed = hierarchy.flush_dirty()
        assert flushed >= 1
        assert (100, b"f" * 64) in backend.writebacks
        assert backend.memory.read_line(1, 36) == b"f" * 64

    def test_invalidate_with_writeback(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"i" * 64)
        hierarchy.invalidate(100, writeback=True)
        assert hierarchy.lookup_data(100) is None
        assert backend.writebacks

    def test_invalidate_without_writeback_discards(self):
        hierarchy, backend = make()
        hierarchy.access(100, write=True, data=b"i" * 64)
        hierarchy.invalidate(100, writeback=False)
        assert not backend.writebacks


class TestRetag:
    def test_retag_moves_line_across_levels(self):
        hierarchy, _ = make()
        hierarchy.access(100, write=True, data=b"r" * 64)
        assert hierarchy.retag(100, 777)
        assert hierarchy.lookup_data(777) == b"r" * 64
        assert hierarchy.lookup_data(100) is None

    def test_retag_missing_line_fails(self):
        hierarchy, _ = make()
        assert not hierarchy.retag(1, 2)

    @pytest.mark.xfail(strict=True, reason=(
        "SetAssociativeCache.retag's cross-set fill drops the line it "
        "evicts: a dirty victim is neither spilled nor written back"))
    def test_cross_set_retag_keeps_the_dirty_victim(self):
        hierarchy, backend = make()
        sets = hierarchy.l1.num_sets
        old_tag, new_tag = 1, 2
        # Fill the new tag's L1 set with dirty lines; their only copy of
        # the written bytes is in the L1.
        victims = [new_tag + sets * way for way in range(1, 5)]
        for tag in victims:
            hierarchy.access(tag, write=True, data=b"V" * 64)
        hierarchy.access(old_tag, write=True, data=b"r" * 64)
        assert hierarchy.retag(old_tag, new_tag)
        for tag in victims:
            assert (hierarchy.dirty_data(tag) == b"V" * 64
                    or (tag, b"V" * 64) in backend.writebacks)


class TestPrefetcherIntegration:
    def test_streaming_misses_prefetch_into_l3(self):
        hierarchy, _ = make()
        for tag in range(1000, 1010):
            hierarchy.access(tag)
        assert hierarchy.l3.stats.prefetch_fills > 0

    def test_prefetched_lines_carry_data(self):
        hierarchy, backend = make()
        for line in range(64):
            backend.memory.write_line(20, line, bytes([line]) * 64)
        for line in range(6):
            hierarchy.access(20 * 64 + line)
        # A line beyond the demand stream was prefetched with its data.
        pf_tags = [tag for tag in hierarchy.l3.resident_tags()
                   if 20 * 64 + 5 < tag < 21 * 64]
        assert pf_tags
        for tag in pf_tags:
            line = hierarchy.l3.lookup(tag)
            assert line.data == bytes([tag % 64]) * 64


def reference_copy(hierarchy, memory, src_ppn, dst_ppn, now):
    """The per-line copy loop that MemoryHierarchy.copy_page replaced:
    two ``access`` calls per line, the destination frame written line
    by line, latency = completion of the slowest line."""
    finish = issue = now
    for line in range(64):
        src_tag = src_ppn * 64 + line
        dst_tag = dst_ppn * 64 + line
        read = hierarchy.access(src_tag, write=False, now=issue)
        data = (hierarchy.lookup_data(src_tag)
                or memory.read_line(src_ppn, line))
        write = hierarchy.access(dst_tag, write=True, data=data, now=issue)
        memory.write_line(dst_ppn, line, data)
        finish = max(finish, issue + read.latency + write.latency)
        issue += 2
    return finish - now


def resident(hierarchy):
    """Every level's resident lines as comparable tuples."""
    state = []
    for level in hierarchy.caches():
        lines = [level.lookup(tag) for tag in level.resident_tags()]
        state.append(sorted((line.tag, line.dirty, line.data, line.prefetched)
                            for line in lines))
    return state


SRC, DST = 3, 9


def dirty_sources(hierarchy):
    """Dirty source lines in the L1 and the L2 when the copy reads them:
    the first lines of the page, written last."""
    for line in range(12):
        hierarchy.access(SRC * 64 + line, write=True,
                         data=bytes([0x80 + line]) * 64, now=10)


def stale_destination(hierarchy):
    """Stale dirty destination lines, which the copy evicts and writes
    back mid-copy, besides dirty source lines."""
    for line in range(0, 64, 3):
        hierarchy.access(DST * 64 + line, write=True,
                         data=bytes([0xEE]) * 64, now=0)
    dirty_sources(hierarchy)


def descending_stream(hierarchy):
    """A descending prefetch stream just above the destination page: the
    copy's last store trains it, and it prefetches destination lines the
    copy has already written back from the destination frame."""
    dirty_sources(hierarchy)
    for line in (91, 89, 87):
        hierarchy.access(DST * 64 + line, now=20)


class TestCopyPage:
    """MemoryHierarchy.copy_page against the per-line loop it replaced."""

    CASES = {
        # L1 8 lines, L2 16, L3 32: destination lines spill and are
        # written back while the copy runs.
        "stale-destination": (dict(size_bytes=512, ways=2),
                              dict(size_bytes=1024, ways=2),
                              dict(size_bytes=2048, ways=4),
                              stale_destination),
        # A 4-line L3 below a 64-line L2: copied lines stay dirty above an
        # L3 that no longer holds them, so the prefetch refetches them.
        # Writing the destination frame only after the loop would leave
        # the old frame bytes in the L3 here.
        "prefetch-behind-copy": (dict(size_bytes=512, ways=2),
                                 dict(size_bytes=4096, ways=4),
                                 dict(size_bytes=256, ways=2),
                                 descending_stream),
    }

    def build(self, case):
        l1, l2, l3, prepare = self.CASES[case]
        backend = RecordingBackend()
        hierarchy = MemoryHierarchy(resolve_miss=backend.resolve,
                                    handle_writeback=backend.writeback,
                                    fetch_data=backend.fetch,
                                    l1_kwargs=l1, l2_kwargs=l2, l3_kwargs=l3)
        for line in range(64):
            backend.memory.write_line(SRC, line, bytes([line]) * 64)
            backend.memory.write_line(DST, line, bytes([0xDD]) * 64)
        prepare(hierarchy)
        return hierarchy, backend

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_line_loop(self, case):
        ref, ref_backend = self.build(case)
        new, new_backend = self.build(case)
        for level in (new.l1, new.l2):
            assert any(line.tag // 64 == SRC for line in level.dirty_lines())
        fetched = len(new_backend.fetches)
        ref_latency = reference_copy(ref, ref_backend.memory, SRC, DST, 100)
        memory = new_backend.memory
        latency = new.copy_page(SRC * 64, DST * 64, 100,
                                partial(memory.read_line, SRC),
                                partial(memory.write_line, DST))
        assert latency == ref_latency
        for ppn in (SRC, DST):
            assert memory.read_page(ppn) == ref_backend.memory.read_page(ppn)
        assert resident(new) == resident(ref)
        assert new.stats_scope.to_dict() == ref.stats_scope.to_dict()
        assert new.dram.stats_scope.to_dict() == ref.dram.stats_scope.to_dict()
        assert new_backend.fetches == ref_backend.fetches
        assert new_backend.writebacks == ref_backend.writebacks
        # The scenario exercised what it is named for.
        dst_writebacks = [tag for tag, _ in new_backend.writebacks
                          if tag // 64 == DST]
        dst_fetches = [tag % 64 for tag in new_backend.fetches[fetched:]
                       if tag // 64 == DST]
        if case == "stale-destination":
            assert dst_writebacks
        else:
            assert any(line < max(dst_fetches[:index])
                       for index, line in enumerate(dst_fetches) if index)
