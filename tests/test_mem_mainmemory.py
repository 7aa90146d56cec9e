"""Unit tests for the byte-accurate main memory."""

import pytest

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.mem.mainmemory import MainMemory


class TestLines:
    def test_unwritten_reads_zero(self):
        memory = MainMemory()
        assert memory.read_line(5, 0) == bytes(LINE_SIZE)
        assert memory.touched_frames == 0

    def test_write_then_read(self):
        memory = MainMemory()
        memory.write_line(5, 3, b"m" * 64)
        assert memory.read_line(5, 3) == b"m" * 64
        assert memory.read_line(5, 4) == bytes(64)

    def test_line_bounds_checked(self):
        memory = MainMemory()
        with pytest.raises(IndexError):
            memory.read_line(0, 64)
        with pytest.raises(IndexError):
            memory.write_line(0, -1, b"x" * 64)

    def test_wrong_size_rejected(self):
        memory = MainMemory()
        with pytest.raises(ValueError):
            memory.write_line(0, 0, b"short")


class TestPages:
    def test_page_round_trip(self):
        memory = MainMemory()
        payload = bytes(range(256)) * 16
        memory.write_page(3, payload)
        assert memory.read_page(3) == payload

    def test_copy_page(self):
        memory = MainMemory()
        memory.write_page(1, b"c" * PAGE_SIZE)
        memory.copy_page(1, 2)
        assert memory.read_page(2) == b"c" * PAGE_SIZE
        memory.write_line(1, 0, b"X" * 64)
        assert memory.read_line(2, 0) == b"c" * 64  # copies are independent

    def test_shared_page_contents_stay_private(self):
        """Frames written from one bytes object share it until a line
        write gives one of them its own copy."""
        memory = MainMemory()
        page = b"s" * PAGE_SIZE
        for ppn in (1, 2):
            memory.write_page(ppn, page)
        memory.copy_page(2, 3)
        memory.write_line(2, 5, b"Y" * 64)
        memory.write_bytes(3, 7, b"Z")
        assert memory.read_page(1) == page
        assert memory.read_line(2, 5) == b"Y" * 64
        assert memory.read_line(2, 4) == b"s" * 64
        assert memory.read_bytes(3, 6, 3) == b"sZs"
        assert memory.read_line(3, 5) == b"s" * 64

    def test_copy_unwritten_page_is_zero(self):
        memory = MainMemory()
        memory.copy_page(9, 10)
        assert memory.read_page(10) == bytes(PAGE_SIZE)

    def test_free_frame(self):
        memory = MainMemory()
        memory.write_page(1, b"f" * PAGE_SIZE)
        memory.free_frame(1)
        assert memory.read_page(1) == bytes(PAGE_SIZE)
        assert memory.touched_frames == 0

    def test_wrong_page_size_rejected(self):
        memory = MainMemory()
        with pytest.raises(ValueError):
            memory.write_page(0, b"small")


class TestBytes:
    def test_byte_round_trip(self):
        memory = MainMemory()
        memory.write_bytes(2, 100, b"hello")
        assert memory.read_bytes(2, 100, 5) == b"hello"

    def test_crossing_frame_rejected(self):
        memory = MainMemory()
        with pytest.raises(IndexError):
            memory.write_bytes(0, PAGE_SIZE - 2, b"abcd")
        with pytest.raises(IndexError):
            memory.read_bytes(0, PAGE_SIZE - 2, 4)

    def test_frames_iterates_touched(self):
        memory = MainMemory()
        memory.write_line(4, 0, b"a" * 64)
        memory.write_line(9, 0, b"b" * 64)
        assert sorted(memory.frames()) == [4, 9]
