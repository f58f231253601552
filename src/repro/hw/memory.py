"""Physical memory with page-granular ownership.

The paper's central security object is on-NIC RAM: packets, switching
rules, accelerator queues, and all NF code/data live there (§4.2), and
S-NIC's goal is *single-owner semantics* for every page.

:class:`PhysicalMemory` models a byte-addressable DRAM as a sparse set of
pages.  Each page carries an owner tag (the trusted hardware's allocation
"bitmap" of §4.1).  Crucially, the memory itself does **not** enforce
ownership — exactly as in real hardware, enforcement lives in the MMU/TLB
layer in front of it.  The commodity-NIC models reach memory through
``xkphys``-style raw physical access (no checks, enabling the §3.3
attacks), while S-NIC routes every access through locked TLBs and
denylists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.obs.cell import CELL


#: Owner tag for pages not allocated to any network function.
FREE = None


class AccessFault(Exception):
    """Raised when an access violates a protection check."""


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied."""


@dataclass
class PageInfo:
    """Metadata the trusted hardware tracks per physical page.

    ``dirty_from`` records a stale-data hazard: the previous owner whose
    bytes still sit in the page because it was released with
    ``scrub=False``.  ``None`` means the page is clean (scrubbed, or
    never written).  Reassigning a dirty page without zeroing it first
    is exactly the §4.6 leak IsoSan flags.
    """

    owner: Optional[int] = FREE
    denylisted: bool = False
    dirty_from: Optional[int] = None


class PhysicalMemory:
    """Sparse byte-addressable physical memory in fixed-size pages.

    Pages materialize lazily on first write.  Reads of untouched memory
    return zeros (like freshly scrubbed DRAM).  An owner -> pages index
    mirrors ``PageInfo.owner``, so a teardown costs the departing
    owner's pages, not every page record the memory has created.
    """

    def __init__(self, size_bytes: int, page_size: int = 4096) -> None:
        if size_bytes <= 0 or page_size <= 0:
            raise ValueError("memory and page sizes must be positive")
        if size_bytes % page_size:
            raise ValueError("memory size must be a whole number of pages")
        self.size_bytes = size_bytes
        self.page_size = page_size
        self.n_pages = size_bytes // page_size
        self._pages: Dict[int, bytearray] = {}
        self._info: Dict[int, PageInfo] = {}
        #: owner -> indices of the pages it holds.  ``claim_pages`` and
        #: ``release_pages``, the only writers of ``PageInfo.owner``,
        #: keep it in step.
        self._owned: Dict[int, Set[int]] = {}
        #: What a read of an untouched page returns.  Kept as ``bytes``
        #: (a memoryview is taken at use) so the memory deep-copies.
        self._zero_page = bytes(page_size)

    # ------------------------------------------------------------------
    # Page bookkeeping (the §4.1 hardware allocation bitmap)
    # ------------------------------------------------------------------

    def page_info(self, page_index: int) -> PageInfo:
        self._check_page(page_index)
        if page_index not in self._info:
            self._info[page_index] = PageInfo()
        return self._info[page_index]

    def owner_of(self, page_index: int) -> Optional[int]:
        self._check_page(page_index)
        info = self._info.get(page_index)
        return info.owner if info else FREE

    def owner_of_addr(self, addr: int) -> Optional[int]:
        return self.owner_of(addr // self.page_size)

    def pages_owned_by(self, owner: int) -> List[int]:
        return sorted(self._owned.get(owner, ()))

    def claim_pages(self, owner: int, page_indices: Iterable[int]) -> None:
        """Bind pages to ``owner``; fails if any page is already owned.

        This is the check ``nf_launch`` performs while walking the new
        function's page table (§4.1): "if any of the physical pages ...
        already belong to a function, nf_launch fails".
        """
        indices = list(page_indices)
        for idx in indices:
            info = self.page_info(idx)
            if info.owner is not FREE:
                raise AccessFault(
                    f"page {idx} already owned by NF {info.owner}; "
                    f"cannot claim for NF {owner}"
                )
        for idx in indices:
            self._info[idx].owner = owner
        if indices:
            self._owned.setdefault(owner, set()).update(indices)

    def release_pages(self, owner: int, scrub: bool = True) -> int:
        """Release (and optionally zero) every page owned by ``owner``.

        Returns the number of pages released.  ``scrub=True`` is the
        ``nf_teardown`` behaviour: pages are zeroed *before* leaving the
        denylist so no data survives for the next owner (§4.6).
        ``scrub=False`` marks every still-materialized page with
        ``dirty_from=owner`` — a recorded stale-data hazard that
        :meth:`zero_page` clears and IsoSan checks on re-claim.
        """
        owned = self._owned.pop(owner, ())
        for idx in owned:
            info = self._info[idx]
            if scrub:
                self.zero_page(idx)
            elif idx in self._pages:
                info.dirty_from = owner
            info.owner = FREE
            info.denylisted = False
        released = len(owned)
        if CELL.audit.enabled:
            CELL.audit.append("memory.scrub", tenant=owner, pages=released,
                              scrubbed=bool(scrub))
        return released

    def zero_page(self, page_index: int) -> None:
        self._check_page(page_index)
        self._pages.pop(page_index, None)
        info = self._info.get(page_index)
        if info is not None:
            info.dirty_from = None

    def find_free_pages(self, count: int, start: int = 0) -> List[int]:
        """First-fit search for ``count`` free pages (need not be contiguous)."""
        found: List[int] = []
        for idx in range(start, self.n_pages):
            if self.owner_of(idx) is FREE:
                found.append(idx)
                if len(found) == count:
                    return found
        raise OutOfMemoryError(f"wanted {count} free pages, found {len(found)}")

    def find_free_range(self, count: int, start: int = 0) -> int:
        """First-fit search for ``count`` *contiguous* free pages."""
        run = 0
        for idx in range(start, self.n_pages):
            run = run + 1 if self.owner_of(idx) is FREE else 0
            if run == count:
                return idx - count + 1
        raise OutOfMemoryError(f"no contiguous run of {count} free pages")

    # ------------------------------------------------------------------
    # Raw physical access (no protection — callers enforce their own)
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Raw physical read; crosses page boundaries transparently.

        The result is assembled with one copy: a single ``join`` over
        views of the page backings (and of the zero page for untouched
        pages).  A read inside one page returns its slice directly.
        """
        self._check_range(addr, size)
        page_size = self.page_size
        page, offset = divmod(addr, page_size)
        pages = self._pages
        if offset + size <= page_size:
            backing = pages.get(page)
            if backing is None:
                return bytes(size)
            return bytes(backing[offset:offset + size])
        zero = memoryview(self._zero_page)
        parts: List[memoryview] = []
        while size > 0:
            chunk = min(size, page_size - offset)
            backing = pages.get(page)
            view = zero if backing is None else memoryview(backing)
            parts.append(view[offset:offset + chunk])
            size -= chunk
            page += 1
            offset = 0
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        """Raw physical write; crosses page boundaries transparently.

        A non-empty write inside one page stores its bytes with a single
        slice assignment.  An empty write materializes no page.
        """
        size = len(data)
        self._check_range(addr, size)
        page_size = self.page_size
        page, offset = divmod(addr, page_size)
        pages = self._pages
        if size and offset + size <= page_size:
            backing = pages.get(page)
            if backing is None:
                backing = pages[page] = bytearray(page_size)
            backing[offset:offset + size] = data
            return
        view = memoryview(data)
        while view:
            chunk = min(len(view), page_size - offset)
            backing = pages.get(page)
            if backing is None:
                backing = pages[page] = bytearray(page_size)
            backing[offset:offset + chunk] = view[:chunk]
            view = view[chunk:]
            page += 1
            offset = 0

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    # ------------------------------------------------------------------

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.n_pages:
            raise AccessFault(f"page index {page_index} out of range")

    def _check_range(self, addr: int, size: int) -> None:
        if size < 0:
            raise ValueError("negative size")
        if addr < 0 or addr + size > self.size_bytes:
            raise AccessFault(
                f"physical access [{addr:#x}, {addr + size:#x}) out of range"
            )


class HostMemory(PhysicalMemory):
    """The host machine's RAM, as seen across PCIe by the DMA engine.

    Identical mechanics to :class:`PhysicalMemory`; a distinct type keeps
    NIC-side and host-side address spaces from being confused.
    """
