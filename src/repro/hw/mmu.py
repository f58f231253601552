"""MMU machinery: TLB entries and banks, page tables, denylist tables.

This module implements the paper's memory-protection building blocks:

* :class:`TLBEntry` / :class:`TLB` — variable-page-size translation
  entries.  S-NIC gives each programmable core and each accelerator
  cluster a small bank of entries that ``nf_launch`` configures and then
  **locks read-only** (§4.2, §4.3).  After lockdown, a TLB miss is fatal
  by design ("any subsequent TLB misses represent a bug in the network
  function").
* :class:`PageTable` — an ordinary virtual→physical page table, used both
  as the ``nf_launch`` second argument (the NIC OS describes the new
  function's initial pages with it) and by commodity-NIC OS models.
* :class:`DenylistPageTable` — the dual page table of §4.2: a mapping
  whose *presence* means the management core must not touch that physical
  address.  The trusted hardware walks it whenever the management core
  tries to install a new TLB mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.hw.memory import AccessFault, PhysicalMemory
from repro.obs.auditlog import get_emitter

_AUDIT = get_emitter()


class TLBMiss(Exception):
    """No TLB entry covers the requested virtual address."""

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"TLB miss at {vaddr:#x}")
        self.vaddr = vaddr


class TLBLockedError(Exception):
    """Attempt to modify a TLB bank after ``nf_launch`` locked it."""


@dataclass(frozen=True)
class TLBEntry:
    """One translation: ``[vbase, vbase+size)`` → ``[pbase, pbase+size)``.

    ``size`` may be any of the variable page sizes the paper studies
    (128 KB … 128 MB); it must be a power of two and both bases must be
    size-aligned, as in real variable-page-size TLBs.
    """

    vbase: int
    pbase: int
    size: int
    writable: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size & (self.size - 1):
            raise ValueError(f"TLB page size must be a power of two: {self.size}")
        if self.vbase % self.size or self.pbase % self.size:
            raise ValueError("TLB entry bases must be size-aligned")

    def covers(self, vaddr: int) -> bool:
        return self.vbase <= vaddr < self.vbase + self.size

    def translate(self, vaddr: int) -> int:
        return self.pbase + (vaddr - self.vbase)

    def physical_range(self) -> Tuple[int, int]:
        return (self.pbase, self.pbase + self.size)


class TLB:
    """A fully-associative bank of :class:`TLBEntry` with lockdown.

    ``capacity`` mirrors the hardware sizing studied in Tables 2–5; a
    bank refuses to hold more entries than its capacity.
    """

    def __init__(self, capacity: int = 512, name: str = "tlb") -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: List[TLBEntry] = []
        self._locked = False
        self.lookups = 0
        self.misses = 0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def entries(self) -> Tuple[TLBEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, entry: TLBEntry) -> None:
        """Add a translation; rejected after lockdown or beyond capacity."""
        if self._locked:
            raise TLBLockedError(f"{self.name}: TLB bank is locked read-only")
        if len(self._entries) >= self.capacity:
            raise AccessFault(
                f"{self.name}: TLB bank full ({self.capacity} entries)"
            )
        for existing in self._entries:
            if _overlaps(existing, entry):
                raise ValueError(
                    f"{self.name}: entry overlaps existing virtual range"
                )
        self._entries.append(entry)
        if _AUDIT.active:
            _AUDIT.emit("tlb.install", bank=self.name, vbase=entry.vbase,
                        pbase=entry.pbase, size=entry.size,
                        writable=entry.writable)

    def lock(self) -> None:
        """Make the bank read-only (the end of ``nf_launch``)."""
        self._locked = True
        if _AUDIT.active:
            _AUDIT.emit("tlb.lock", bank=self.name,
                        entries=len(self._entries))

    def clear(self, force: bool = False) -> None:
        """Drop all entries.  Only trusted teardown may clear a locked bank."""
        if self._locked and not force:
            raise TLBLockedError(f"{self.name}: locked bank requires force-clear")
        dropped = len(self._entries)
        self._entries.clear()
        self._locked = False
        if _AUDIT.active:
            _AUDIT.emit("tlb.clear", bank=self.name, forced=bool(force),
                        dropped=dropped)

    def translate(self, vaddr: int, write: bool = False) -> int:
        """Translate ``vaddr``; raises :class:`TLBMiss` / :class:`AccessFault`."""
        self.lookups += 1
        for entry in self._entries:
            if entry.covers(vaddr):
                if write and not entry.writable:
                    raise AccessFault(
                        f"{self.name}: write to read-only mapping at {vaddr:#x}"
                    )
                return entry.translate(vaddr)
        self.misses += 1
        raise TLBMiss(vaddr)

    def translate_range(self, vaddr: int, size: int, write: bool = False) -> int:
        """Translate a range that must not straddle entries.

        Returns the physical base.  Used by accelerator clusters whose
        buffers always live inside a single large-page mapping.
        """
        start = self.translate(vaddr, write=write)
        if size > 1:
            end = self.translate(vaddr + size - 1, write=write)
            if end - start != size - 1:
                raise AccessFault(
                    f"{self.name}: range [{vaddr:#x},+{size}) is not contiguous"
                )
        return start

    def physical_pages(self, page_size: int) -> Set[int]:
        """All physical page indices reachable through this bank."""
        pages: Set[int] = set()
        for entry in self._entries:
            lo, hi = entry.physical_range()
            pages.update(range(lo // page_size, (hi + page_size - 1) // page_size))
        return pages


def _overlaps(a: TLBEntry, b: TLBEntry) -> bool:
    return a.vbase < b.vbase + b.size and b.vbase < a.vbase + a.size


class PageTable:
    """A simple virtual→physical page table (uniform page size)."""

    def __init__(self, page_size: int = 4096) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        self.page_size = page_size
        self._map: Dict[int, int] = {}

    def map(self, vpage: int, ppage: int) -> None:
        self._map[vpage] = ppage

    def map_range(self, vpage_start: int, ppages: Iterable[int]) -> None:
        for offset, ppage in enumerate(ppages):
            self.map(vpage_start + offset, ppage)

    def unmap(self, vpage: int) -> None:
        self._map.pop(vpage, None)

    def walk(self, vaddr: int) -> int:
        vpage, offset = divmod(vaddr, self.page_size)
        if vpage not in self._map:
            raise TLBMiss(vaddr)
        return self._map[vpage] * self.page_size + offset

    def physical_pages(self) -> List[int]:
        return sorted(set(self._map.values()))

    def virtual_pages(self) -> List[int]:
        return sorted(self._map)

    def __len__(self) -> int:
        return len(self._map)


class DenylistPageTable:
    """The §4.2 denylist: physical pages the management core must not map.

    "The denylist page table ... contains a mapping for a physical
    address if that address should not be accessed by the management
    core."  The trusted hardware consults :meth:`check` whenever the
    management core attempts to install a TLB mapping, and the walk cost
    is modelled akin to EPT (cheap).
    """

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self._denied: Set[int] = set()
        self.walks = 0

    def deny(self, ppages: Iterable[int]) -> None:
        self._denied.update(ppages)

    def allow(self, ppages: Iterable[int]) -> None:
        """Remove pages from the denylist (the teardown 'allowlisting')."""
        self._denied.difference_update(ppages)

    def check(self, paddr: int) -> bool:
        """True when ``paddr`` is allowed (not denylisted)."""
        self.walks += 1
        return paddr // self.page_size not in self._denied

    def check_page(self, ppage: int) -> bool:
        self.walks += 1
        return ppage not in self._denied

    def denied_pages(self) -> Set[int]:
        return set(self._denied)

    def __len__(self) -> int:
        return len(self._denied)


class GuardedAddressSpace:
    """A virtual address space: a TLB bank in front of physical memory.

    This is the only route S-NIC software has to RAM.  Every load/store
    translates through the bank; the denylist is *not* consulted here
    because denylisting constrains the management core's ability to
    create mappings, not data-path accesses (§4.2).
    """

    def __init__(self, tlb: TLB, memory: PhysicalMemory) -> None:
        self.tlb = tlb
        self.memory = memory

    def load(self, vaddr: int, size: int) -> bytes:
        parts: List[bytes] = []
        while size > 0:
            paddr = self.tlb.translate(vaddr)
            # Read at most to the end of the covering entry.
            entry = next(e for e in self.tlb.entries if e.covers(vaddr))
            chunk = min(size, entry.vbase + entry.size - vaddr)
            parts.append(self.memory.read(paddr, chunk))
            vaddr += chunk
            size -= chunk
        return b"".join(parts)

    def store(self, vaddr: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            paddr = self.tlb.translate(vaddr, write=True)
            entry = next(e for e in self.tlb.entries if e.covers(vaddr))
            chunk = min(len(view), entry.vbase + entry.size - vaddr)
            self.memory.write(paddr, bytes(view[:chunk]))
            vaddr += chunk
            view = view[chunk:]
