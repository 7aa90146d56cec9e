# simlint: hot-path
"""Memory-access traces for the trace-driven CPU model.

A trace is a sequence of :class:`MemoryAccess` records.  Each record
carries the virtual address, the access kind, the payload (for stores,
when data fidelity matters) and ``gap`` — the number of non-memory
instructions executed since the previous record, which is what lets the
timing model reconstruct instruction counts and window occupancy without
simulating every ALU instruction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from ..engine.rng import derive_rng


class TraceParseError(ValueError):
    """Raised when a textual trace file is malformed.

    The message always carries the line number and the offending text so
    a bad trace pinpoints itself instead of surfacing later as a weird
    simulation result.
    """

    def __init__(self, line_number: int, line: str, reason: str):
        super().__init__(
            f"trace line {line_number}: {reason} (got {line!r})")
        self.line_number = line_number
        self.line = line
        self.reason = reason


class MemoryAccess:
    """One load or store in a trace.

    A slotted value type — traces hold millions of these, and the
    core reads their fields once per access.  Equality
    and hashing follow the old frozen-dataclass semantics (field
    tuples); treat instances as immutable.
    """

    __slots__ = ("vaddr", "write", "size", "data", "gap")

    def __init__(self, vaddr: int, write: bool = False, size: int = 8,
                 data: Optional[bytes] = None, gap: int = 3):
        self.vaddr = vaddr
        self.write = write
        self.size = size
        self.data = data
        self.gap = gap  # non-memory instructions preceding this access

    @property
    def instructions(self) -> int:
        """Instructions this record represents (the access + its gap)."""
        return self.gap + 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MemoryAccess):
            return (self.vaddr == other.vaddr and self.write == other.write
                    and self.size == other.size and self.data == other.data
                    and self.gap == other.gap)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vaddr, self.write, self.size, self.data, self.gap))

    def __repr__(self) -> str:
        return (f"MemoryAccess(vaddr={self.vaddr:#x}, write={self.write}, "
                f"size={self.size}, data={self.data!r}, gap={self.gap})")


@dataclass
class Trace:
    """A materialised access trace with convenience constructors."""

    accesses: List[MemoryAccess] = field(default_factory=list)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __len__(self) -> int:
        return len(self.accesses)

    @property
    def instructions(self) -> int:
        return sum(access.instructions for access in self.accesses)

    def append(self, access: MemoryAccess) -> None:
        self.accesses.append(access)

    def extend(self, accesses: Iterable[MemoryAccess]) -> None:
        self.accesses.extend(accesses)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def sequential(cls, base: int, count: int, stride: int = 64,
                   write: bool = False, gap: int = 3, size: int = 8) -> "Trace":
        """A streaming access pattern (what the prefetcher loves)."""
        return cls([MemoryAccess(vaddr=base + i * stride, write=write,
                                 gap=gap, size=size)
                    for i in range(count)])

    @classmethod
    def random_in_region(cls, base: int, span: int, count: int,
                         write_fraction: float = 0.3, gap: int = 3,
                         size: int = 8, seed: Optional[int] = None,
                         align: int = 8,
                         rng: Optional[random.Random] = None) -> "Trace":
        """Uniform random accesses across ``[base, base+span)``.

        Randomness is deterministic: an injected *rng* wins, else a
        fresh ``random.Random`` seeded from *seed* (default:
        ``SystemConfig.rng_seed``).
        """
        rng = derive_rng(rng, seed)
        accesses = []
        slots = max(1, (span - size) // align)
        for _ in range(count):
            vaddr = base + rng.randrange(slots) * align
            accesses.append(MemoryAccess(
                vaddr=vaddr, write=rng.random() < write_fraction,
                gap=gap, size=size))
        return cls(accesses)

    @classmethod
    def zipf_pages(cls, base: int, pages: int, count: int,
                   skew: float = 1.2, write_fraction: float = 0.3,
                   gap: int = 3, size: int = 8, seed: Optional[int] = None,
                   rng: Optional[random.Random] = None) -> "Trace":
        """Page-level Zipf-distributed accesses (hot/cold working sets).

        Real applications concentrate accesses on a few hot pages with a
        long cold tail; ``skew`` controls the concentration (larger =
        hotter head).  Offsets within a page are uniform.  Randomness is
        deterministic, as in :meth:`random_in_region`.
        """
        if pages < 1:
            raise ValueError("need at least one page")
        rng = derive_rng(rng, seed)
        weights = [1.0 / (rank ** skew) for rank in range(1, pages + 1)]
        page_order = list(range(pages))
        rng.shuffle(page_order)  # hot pages land anywhere in the region
        accesses = []
        for _ in range(count):
            page = page_order[rng.choices(range(pages),
                                          weights=weights, k=1)[0]]
            offset = rng.randrange((4096 - size) // size) * size
            accesses.append(MemoryAccess(
                vaddr=base + page * 4096 + offset,
                write=rng.random() < write_fraction, gap=gap, size=size))
        return cls(accesses)

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        """Parse the simple textual trace format, validating every line.

        One record per line: ``R|W <vaddr> [size] [gap]`` —  the kind
        letter (case-insensitive), a hex (``0x``-prefixed) or decimal
        virtual address, then optional decimal size and gap.  Blank
        lines and ``#`` comments are skipped.  Any other shape raises
        :class:`TraceParseError` naming the line; a malformed trace
        must fail loudly at load time, never feed garbage accesses
        into a run.
        """
        accesses: List[MemoryAccess] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2 or len(fields) > 4:
                raise TraceParseError(
                    number, raw, "expected 'R|W <vaddr> [size] [gap]'")
            kind = fields[0].upper()
            if kind not in ("R", "W"):
                raise TraceParseError(
                    number, raw, f"unknown access kind {fields[0]!r}; "
                    f"expected R or W")
            try:
                vaddr = int(fields[1], 0)
            except ValueError:
                raise TraceParseError(
                    number, raw, f"bad address {fields[1]!r}") from None
            if vaddr < 0:
                raise TraceParseError(
                    number, raw, "address cannot be negative")
            size, gap = 8, 3
            try:
                if len(fields) >= 3:
                    size = int(fields[2])
                if len(fields) == 4:
                    gap = int(fields[3])
            except ValueError:
                raise TraceParseError(
                    number, raw, "size and gap must be decimal "
                    "integers") from None
            if size < 1:
                raise TraceParseError(
                    number, raw, f"size must be positive, got {size}")
            if gap < 0:
                raise TraceParseError(
                    number, raw, f"gap cannot be negative, got {gap}")
            accesses.append(MemoryAccess(vaddr=vaddr, write=(kind == "W"),
                                         size=size, gap=gap))
        return cls(accesses)

    @classmethod
    def from_file(cls, path) -> "Trace":
        """Load :meth:`from_text` format from *path* (UTF-8)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def interleave(self, other: "Trace") -> "Trace":
        """Round-robin merge of two traces (multiprogrammed phases)."""
        merged: List[MemoryAccess] = []
        a, b = self.accesses, other.accesses
        for i in range(max(len(a), len(b))):
            if i < len(a):
                merged.append(a[i])
            if i < len(b):
                merged.append(b[i])
        return Trace(merged)
