"""The NIC OS: untrusted management software on a dedicated core.

Table 1's left column is the host-visible management API
(``NF_create``/``NF_destroy``); the right column is the trusted
instructions the OS invokes.  The crucial property (§4.2, §4.6): after
``nf_launch`` completes, the NIC OS "cannot even access those resources
due to memory denylisting" — every management-core access and every
attempted TLB mapping is checked against the denylist by trusted
hardware.

:class:`NICOS` also exposes the *malicious-OS* operations the test suite
uses to demonstrate that S-NIC blocks them: raw reads of function pages,
attempts to map function pages into the OS address space, and attempts
to reconfigure locked TLBs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.errors import FaultInjected, IsolationViolation
from repro.core.snic import NFConfig, SNIC
from repro.core.virtual_nic import VirtualNIC
from repro.hw.memory import HostMemory
from repro.hw.mmu import PageTable
from repro.obs.cell import CELL


class NICOS:
    """Datacenter-provided management software (untrusted by tenants)."""

    def __init__(self, snic: SNIC) -> None:
        self.snic = snic
        self.page_table = PageTable(page_size=snic.memory.page_size)
        self._vnics: Dict[int, VirtualNIC] = {}
        #: Fault-injection seam (``repro.faults``): while True the
        #: management core is wedged and every management operation
        #: fails.  On S-NIC the datapath keeps flowing regardless —
        #: the NIC OS sits *off* the datapath (§4.2) — which is exactly
        #: the property the chaos suite's NIC_OS_STALL class verifies.
        self.stalled = False

    def _check_stalled(self) -> None:
        if self.stalled:
            raise FaultInjected(
                "NIC OS management core is stalled",
                kind="nic_os_stall", tenant=None)

    # ------------------------------------------------------------------
    # The management API (Table 1, left column)
    # ------------------------------------------------------------------

    def NF_create(self, config: NFConfig) -> VirtualNIC:
        """Reserve resources and invoke ``nf_launch``."""
        self._check_stalled()
        nf_id = self.snic.nf_launch(config)
        vnic = VirtualNIC(self.snic, nf_id)
        self._vnics[nf_id] = vnic
        return vnic

    def NF_destroy(self, nf_id: int) -> None:
        """Invoke ``nf_teardown`` and forget the handle."""
        self._check_stalled()
        self.snic.nf_teardown(nf_id)
        self._vnics.pop(nf_id, None)

    def load_image_from_host(
        self, host: HostMemory, addr: int, size: int
    ) -> bytes:
        """Pull a function's initial image from host RAM over PCIe.

        "Management cores pull a function's initial code and data using
        DMA transfers from host memory" (§3.1).  The staging area is
        NIC-OS-owned; ``nf_launch`` later copies/claims it for the new
        function.
        """
        return host.read(addr, size)

    # ------------------------------------------------------------------
    # Management-core memory access (denylist-mediated)
    # ------------------------------------------------------------------

    def os_read(self, paddr: int, size: int) -> bytes:
        """A management-core load; trusted hardware walks the denylist."""
        self._check_stalled()
        self._check_denylist(paddr, size)
        return self.snic.memory.read(paddr, size)

    def os_write(self, paddr: int, data: bytes) -> None:
        """A management-core store; denylist-checked like reads."""
        self._check_stalled()
        self._check_denylist(paddr, len(data))
        self.snic.memory.write(paddr, data)

    def _check_denylist(self, paddr: int, size: int) -> None:
        page_size = self.snic.memory.page_size
        first = paddr // page_size
        last = (paddr + max(size, 1) - 1) // page_size
        for page in range(first, last + 1):
            if not self.snic.denylist.check_page(page):
                if CELL.audit.enabled:
                    CELL.audit.append("denylist.blocked", op="os_access",
                                      page=page,
                                      owner=self.snic.memory.owner_of(page))
                raise IsolationViolation(
                    f"management core blocked: physical page {page} belongs "
                    "to a live network function (denylisted)"
                )

    def try_install_mapping(self, vpage: int, ppage: int) -> None:
        """The OS asks to install a TLB mapping for its own core.

        "When the management core tries to install a virtual-to-physical
        mapping, the trusted hardware uses the physical address in the
        new mapping to walk the denylist page table" (§4.2).
        """
        if not self.snic.denylist.check_page(ppage):
            if CELL.audit.enabled:
                CELL.audit.append("denylist.blocked", op="tlb_update",
                                  page=ppage,
                                  owner=self.snic.memory.owner_of(ppage))
            raise IsolationViolation(
                f"trusted hardware rejected TLB update: physical page "
                f"{ppage} is denylisted"
            )
        self.page_table.map(vpage, ppage)

    # ------------------------------------------------------------------
    # Malicious-OS probes (used by tests/benchmarks to show S-NIC wins)
    # ------------------------------------------------------------------

    def attempt_function_state_read(self, nf_id: int) -> bytes:
        """Try to snoop a live function's memory (must be blocked)."""
        record = self.snic.record(nf_id)
        return self.os_read(record.extent_base, 4096)

    def scan_for_foreign_buffers(self, scan_pages: int = 512) -> List[int]:
        """Scan physical memory for other tenants' data (the S-NIC
        analogue of the LiquidIO allocator-metadata walk).  Every page
        belonging to a live function raises; the scan can only ever see
        OS-owned or free pages, so it returns nothing useful."""
        readable: List[int] = []
        page_size = self.snic.memory.page_size
        for page in range(min(scan_pages, self.snic.memory.n_pages)):
            try:
                self.os_read(page * page_size, 64)
                readable.append(page)
            except IsolationViolation:
                continue
        return readable
