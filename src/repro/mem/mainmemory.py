"""Byte-accurate main memory backing store.

Separate from the DRAM *timing* model (:mod:`repro.mem.dram`): this module
holds the actual bytes of regular physical pages so that data-fidelity
techniques (deduplication, checkpointing, speculation, overlay promotion)
can assert on contents.  Frames are 4KB, allocated lazily and
zero-filled, which also gives the sparse-data-structure technique its
zero page for free.  A frame written or copied whole is kept as an
immutable ``bytes`` object, which frames with the same contents share
(``Kernel.mmap``'s fill pattern, a copied page); the first line or byte
write to such a frame gives it a ``bytearray`` of its own.
"""

from __future__ import annotations

from typing import Dict, Iterator, Union

from ..core.address import LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE


class MainMemory:
    """A dictionary of physical frames holding real data bytes."""

    def __init__(self):
        self._frames: Dict[int, Union[bytes, bytearray]] = {}

    def _frame(self, ppn: int) -> bytearray:
        frame = self._frames.get(ppn)
        if type(frame) is not bytearray:
            frame = bytearray(PAGE_SIZE) if frame is None else bytearray(frame)
            self._frames[ppn] = frame
        return frame

    # -- line granularity ------------------------------------------------------

    def read_line(self, ppn: int, line: int) -> bytes:
        """Return the 64 bytes of cache line *line* in frame *ppn*."""
        if not 0 <= line < LINES_PER_PAGE:
            raise IndexError(f"line index {line} out of range")
        frame = self._frames.get(ppn)
        if frame is None:
            return bytes(LINE_SIZE)
        start = line * LINE_SIZE
        return bytes(frame[start:start + LINE_SIZE])

    def write_line(self, ppn: int, line: int, data: bytes) -> None:
        if len(data) != LINE_SIZE:
            raise ValueError(f"line data must be {LINE_SIZE} bytes")
        if not 0 <= line < LINES_PER_PAGE:
            raise IndexError(f"line index {line} out of range")
        start = line * LINE_SIZE
        self._frame(ppn)[start:start + LINE_SIZE] = data

    # -- page granularity ----------------------------------------------------

    def read_page(self, ppn: int) -> bytes:
        frame = self._frames.get(ppn)
        return bytes(frame) if frame is not None else bytes(PAGE_SIZE)

    def write_page(self, ppn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page data must be {PAGE_SIZE} bytes")
        self._frames[ppn] = bytes(data)

    def copy_page(self, src_ppn: int, dst_ppn: int) -> None:
        """Copy a whole frame (the copy-on-write baseline's page copy)."""
        self._frames[dst_ppn] = self.read_page(src_ppn)

    def free_frame(self, ppn: int) -> None:
        self._frames.pop(ppn, None)

    # -- byte granularity (convenience for examples) ----------------------------

    def read_bytes(self, ppn: int, offset: int, length: int) -> bytes:
        if not 0 <= offset <= PAGE_SIZE - length:
            raise IndexError("byte range crosses the frame boundary")
        frame = self._frames.get(ppn)
        if frame is None:
            return bytes(length)
        return bytes(frame[offset:offset + length])

    def write_bytes(self, ppn: int, offset: int, data: bytes) -> None:
        if not 0 <= offset <= PAGE_SIZE - len(data):
            raise IndexError("byte range crosses the frame boundary")
        self._frame(ppn)[offset:offset + len(data)] = data

    # -- accounting -------------------------------------------------------------

    @property
    def touched_frames(self) -> int:
        """Number of frames that have ever been written."""
        return len(self._frames)

    def frames(self) -> Iterator[int]:
        return iter(self._frames)
