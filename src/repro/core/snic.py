"""The S-NIC device: trusted hardware implementing §4.

:class:`SNIC` owns the physical resources (cores, RAM, caches, bus,
accelerator clusters, ports, DMA banks) and exposes the three trusted
instructions of Table 1:

* :meth:`SNIC.nf_launch` — atomically install a function on a virtual
  smart NIC: validate + claim cores and pages, denylist the pages
  against the management core, configure and lock per-core TLBs,
  accelerator-cluster TLBs, the VPP, and DMA banks, repartition the
  cache, re-derive bus epochs, and compute the cumulative SHA-256 hash
  of the initial state.
* :meth:`SNIC.nf_attest` — sign the state hash + Diffie–Hellman
  parameters with the attestation key.
* :meth:`SNIC.nf_teardown` — atomically destroy a function: scrub its
  pages, caches and registers, release every resource, and remove the
  denylist entries.

Failures are atomic: every validation happens before any mutation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.attestation import FunctionAttestationSession, build_quote
from repro.core.cache_policy import NIC_OS_OWNER, StaticPartitionPolicy
from repro.core.egress import DRREgressScheduler
from repro.core.errors import LaunchError, TeardownError
from repro.core.timing import DEFAULT_TIMING, InstructionTimingModel
from repro.core.vpp import VPPConfig, VirtualPacketPipeline
from repro.cost.pages import FLEX_HIGH_MENU, PageMenu, pack_region
from repro.crypto.dh import DEFAULT_DH_PARAMS, DHParams
from repro.crypto.keys import AttestationKey, EndorsementKey, VendorCA
from repro.crypto.sha256 import sha256
from repro.hw.accelerator import AcceleratorCluster, AcceleratorEngine, AcceleratorKind
from repro.hw.bus import IOBus, TemporalPartitioningArbiter
from repro.hw.cache import Cache, CacheConfig
from repro.hw.cores import ProgrammableCore
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import DenylistPageTable, TLBEntry
from repro.hw.packet_io import RingFullError, RXPort, TXPort
from repro.net.packet import Packet
from repro.obs.auditlog import get_emitter
from repro.obs.tracer import get_tracer

_TRACER = get_tracer()
_AUDIT = get_emitter()

_DESC_BYTES = 16


@dataclass(frozen=True)
class NFConfig:
    """Everything ``nf_launch`` needs (the Table 1 arguments).

    ``core_ids`` plays the role of the core-bitmask argument;
    ``initial_image`` the page-table-described initial code/data;
    ``vpp`` the ``pkt_pipeline_config``; ``accelerators`` the
    ``accel_mask``.
    """

    name: str
    core_ids: Tuple[int, ...]
    memory_bytes: int
    initial_image: bytes = b""
    vpp: VPPConfig = field(default_factory=VPPConfig)
    accelerators: Tuple[Tuple[AcceleratorKind, int], ...] = ()
    page_menu: PageMenu = FLEX_HIGH_MENU
    host_window: Optional[DMAWindow] = None
    ring_data_bytes: int = 256 * 1024

    def core_mask(self) -> int:
        mask = 0
        for core in self.core_ids:
            mask |= 1 << core
        return mask

    def descriptor(self) -> bytes:
        """Canonical config bytes folded into the cumulative hash."""
        accel = ",".join(f"{k.value}:{n}" for k, n in self.accelerators)
        text = (
            f"name={self.name};cores={self.core_mask():#x};"
            f"mem={self.memory_bytes};accel={accel};"
            f"menu={self.page_menu.name}"
        )
        return text.encode()


@dataclass
class LaunchRecord:
    """What the hardware keeps in private memory after ``nf_launch``
    succeeds (§4.6: "it stores the arguments in hardware-private
    memory")."""

    nf_id: int
    config: NFConfig
    extent_base: int
    extent_bytes: int
    pages: List[int]
    tlb_entries: List[TLBEntry]
    clusters: List[AcceleratorCluster]
    vpp: VirtualPacketPipeline
    state_hash: bytes


class SNIC:
    """The trusted S-NIC hardware."""

    def __init__(
        self,
        n_cores: int = 8,
        dram_bytes: int = 512 * 1024 * 1024,
        ownership_page: int = 64 * 1024,
        l2_config: Optional[CacheConfig] = None,
        core_tlb_entries: int = 512,
        accel_threads: int = 64,
        accel_cluster_threads: int = 16,
        bus_epoch_ns: float = 1000.0,
        bus_dead_time_ns: float = 100.0,
        bus_bandwidth: float = 12.8,
        vendor_ca: Optional[VendorCA] = None,
        device_id: str = "snic-0",
        key_seed: Optional[int] = 42,
        timing: InstructionTimingModel = DEFAULT_TIMING,
        cache_policy=None,
    ) -> None:
        self.memory = PhysicalMemory(dram_bytes, page_size=ownership_page)
        self.cores = [
            ProgrammableCore(i, self.memory, tlb_capacity=core_tlb_entries)
            for i in range(n_cores)
        ]
        self.denylist = DenylistPageTable(page_size=ownership_page)
        self.l2 = Cache(l2_config or CacheConfig(size_bytes=4 * 1024 * 1024, ways=16))
        # §4.2 gives two options: hard static partitioning (default) or
        # SecDCP-style dynamic partitioning with one-way information flow.
        self.cache_policy = cache_policy or StaticPartitionPolicy()
        self._cache_allocation: Dict[int, int] = {}
        # Port buffers sized so each core's function can hold the
        # LiquidIO-style 2 MB reservation (§5.2) simultaneously.
        port_bytes = max(4, n_cores) * 4 * 1024 * 1024
        self.rx_port = RXPort(capacity_bytes=port_bytes)
        self.tx_port = TXPort(capacity_bytes=port_bytes)
        self.egress_scheduler = DRREgressScheduler()
        self.dma = DMAController(n_banks=n_cores)
        self.engines: Dict[AcceleratorKind, AcceleratorEngine] = {}
        for kind in (AcceleratorKind.DPI, AcceleratorKind.ZIP, AcceleratorKind.RAID,
                     AcceleratorKind.CRYPTO):
            engine = AcceleratorEngine(kind, n_threads=accel_threads)
            engine.split_clusters(accel_cluster_threads)
            self.engines[kind] = engine
        self._bus_epoch_ns = bus_epoch_ns
        self._bus_dead_ns = bus_dead_time_ns
        self._bus_bandwidth = bus_bandwidth
        self.bus: IOBus = IOBus(
            TemporalPartitioningArbiter(
                domains=[NIC_OS_OWNER],
                bandwidth_bytes_per_ns=bus_bandwidth,
                epoch_ns=bus_epoch_ns,
                dead_time_ns=bus_dead_time_ns,
            )
        )
        self.timing = timing
        # Key hierarchy (Appendix A): vendor CA -> EK (manufacturing)
        # -> AK (per boot).
        self.vendor_ca = vendor_ca or VendorCA(seed=key_seed)
        self.ek: EndorsementKey = self.vendor_ca.provision_endorsement_key(
            device_id, seed=None if key_seed is None else key_seed + 1
        )
        self.ak: AttestationKey = AttestationKey.generate(
            self.ek, seed=None if key_seed is None else key_seed + 2
        )
        self._records: Dict[int, LaunchRecord] = {}
        self._next_nf_id = 1
        #: Reserve the low region for the NIC OS (its code, rule staging).
        self._nic_os_pages = 64
        # snic: ignore[SNIC001] -- trusted boot: the device claims the
        # NIC OS region before any mediation layer exists (§4.1).
        self.memory.claim_pages(
            NIC_OS_OWNER, range(self._nic_os_pages)
        )
        #: Simulated latency log: (instruction, nf_id, latency_ms).
        self.instruction_log: List[Tuple[str, int, float]] = []

    # ------------------------------------------------------------------
    # Resource queries
    # ------------------------------------------------------------------

    @property
    def live_functions(self) -> List[int]:
        return sorted(self._records)

    def record(self, nf_id: int) -> LaunchRecord:
        if nf_id not in self._records:
            raise TeardownError(f"no live function with id {nf_id}")
        return self._records[nf_id]

    def free_cores(self) -> List[int]:
        return [c.core_id for c in self.cores if not c.allocated]

    # ------------------------------------------------------------------
    # nf_launch (§4.1, §4.6)
    # ------------------------------------------------------------------

    def nf_launch(self, config: NFConfig) -> int:
        """Atomically install a function; returns its opaque id."""
        self._validate_cores(config)
        extent_bytes, placements = self._plan_extent(config)
        extent_base = self._find_aligned_extent(extent_bytes, placements)
        clusters = self._validate_clusters(config)

        # --- all validations passed: begin installation ---------------
        nf_id = self._next_nf_id
        self._next_nf_id += 1
        first_page = extent_base // self.memory.page_size
        n_pages = extent_bytes // self.memory.page_size
        pages = list(range(first_page, first_page + n_pages))
        # snic: ignore[SNIC001] -- nf_launch IS the trusted hardware
        # sequence (§4.6): ownership is established here, before the
        # TLBs that will mediate every later access even exist.
        self.memory.claim_pages(nf_id, pages)

        # Initial code/data at VA 0.
        if config.initial_image:
            # snic: ignore[SNIC001] -- trusted loader writes the
            # measured image into the extent claimed two lines up.
            self.memory.write(extent_base, config.initial_image)

        # Denylist against the management core (§4.2).
        self.denylist.deny(pages)

        # Per-core TLB entries, then lockdown (§4.2).
        entries = [
            TLBEntry(vbase=voffset, pbase=extent_base + voffset, size=size)
            for voffset, size in placements
        ]
        for core_id in config.core_ids:
            core = self.cores[core_id]
            core.bind(nf_id)
            for entry in entries:
                core.tlb.install(entry)
            core.tlb.lock()

        # Virtualized accelerator clusters behind locked TLB banks (§4.3).
        allocated_clusters: List[AcceleratorCluster] = []
        for kind, count in config.accelerators:
            engine = self.engines[kind]
            for cluster in engine.allocate_clusters(nf_id, count):
                for entry in entries:
                    cluster.tlb.install(entry)
                cluster.tlb.lock()
                allocated_clusters.append(cluster)

        # The virtual packet pipeline (§4.4): rings carved from the top
        # of the function's own extent; the scheduler's three entries
        # (PB/PDB/ODB) are installed and locked inside the constructor.
        vpp = self._build_vpp(nf_id, config, extent_base, extent_bytes)

        # DMA banks for each bound core (§4.2).
        host_window = config.host_window or DMAWindow(base=0, size=0)
        for core_id in config.core_ids:
            bank = self.dma.bank_for_core(core_id)
            bank.configure(
                owner=nf_id,
                nic_window=DMAWindow(base=extent_base, size=extent_bytes),
                host_window=host_window,
            )
            bank.lock()

        # Cumulative hash over the initial state (§4.6): the image pages,
        # switching rules, and the launch configuration.
        state_hash = self._cumulative_hash(config, extent_base, extent_bytes)

        record = LaunchRecord(
            nf_id=nf_id,
            config=config,
            extent_base=extent_base,
            extent_bytes=extent_bytes,
            pages=pages,
            tlb_entries=entries,
            clusters=allocated_clusters,
            vpp=vpp,
            state_hash=state_hash,
        )
        self._records[nf_id] = record

        # Microarchitectural reservations shared with other tenants.
        self._repartition_cache()
        self._rebuild_bus()

        launch_ms = self.timing.nf_launch_ms(extent_bytes)
        self.instruction_log.append(("nf_launch", nf_id, launch_ms))
        if _AUDIT.active:
            _AUDIT.emit("lifecycle.launch", tenant=nf_id, name=config.name,
                        pages=len(pages), extent_bytes=extent_bytes,
                        cores=list(config.core_ids),
                        state_hash=state_hash.hex())
        if _TRACER.enabled:
            # Lifecycle span with the instruction-latency model's
            # duration, so launches appear to scale with extent size.
            _TRACER.complete("nf_launch", _TRACER.now(), launch_ms * 1e6,
                             tenant=nf_id, track="snic-lifecycle",
                             cat="lifecycle", name_arg=config.name,
                             extent_bytes=extent_bytes,
                             cores=list(config.core_ids))
        return nf_id

    def _validate_cores(self, config: NFConfig) -> None:
        if not config.core_ids:
            raise LaunchError("a function needs at least one core")
        for core_id in config.core_ids:
            if not 0 <= core_id < len(self.cores):
                raise LaunchError(f"core {core_id} does not exist")
            if self.cores[core_id].allocated:
                raise LaunchError(
                    f"core {core_id} is bound to NF "
                    f"{self.cores[core_id].owner}"
                )
        if len(set(config.core_ids)) != len(config.core_ids):
            raise LaunchError("duplicate core ids in the request")

    def _plan_extent(self, config: NFConfig) -> Tuple[int, List[Tuple[int, int]]]:
        """Choose pages covering the request; returns (bytes, placements).

        Placements are (virtual offset, page size), largest pages first,
        so every offset is aligned to its page's size.
        """
        if config.memory_bytes <= 0:
            raise LaunchError("a function must request a positive amount of RAM")
        ring_overhead = 2 * config.ring_data_bytes + 2 * (
            config.vpp.ring_capacity * _DESC_BYTES
        )
        rules_bytes = len(config.vpp.rules_blob()) + 64
        wanted = max(
            config.memory_bytes,
            len(config.initial_image) + ring_overhead + rules_bytes,
        )
        pages = pack_region(wanted, config.page_menu)
        if not pages:
            raise LaunchError("zero-size memory request")
        if len(pages) > self.cores[config.core_ids[0]].tlb.capacity:
            raise LaunchError(
                f"request needs {len(pages)} TLB entries; cores have "
                f"{self.cores[config.core_ids[0]].tlb.capacity}"
            )
        placements: List[Tuple[int, int]] = []
        offset = 0
        for size in pages:
            placements.append((offset, size))
            offset += size
        return offset, placements

    def _find_aligned_extent(
        self, extent_bytes: int, placements: List[Tuple[int, int]]
    ) -> int:
        """First-fit physically-contiguous extent aligned to the largest
        page (keeps every placement size-aligned)."""
        align = placements[0][1]
        page = self.memory.page_size
        align_pages = max(1, align // page)
        n_pages = extent_bytes // page
        start = self._nic_os_pages
        start = ((start + align_pages - 1) // align_pages) * align_pages
        candidate = start
        while candidate + n_pages <= self.memory.n_pages:
            if all(
                self.memory.owner_of(candidate + i) is None for i in range(n_pages)
            ):
                return candidate * page
            candidate += align_pages
        raise LaunchError(
            f"no free aligned extent of {extent_bytes} bytes available"
        )

    def _validate_clusters(self, config: NFConfig) -> Dict[AcceleratorKind, int]:
        requested: Dict[AcceleratorKind, int] = {}
        for kind, count in config.accelerators:
            if count <= 0:
                raise LaunchError("cluster counts must be positive")
            requested[kind] = requested.get(kind, 0) + count
        for kind, count in requested.items():
            if kind not in self.engines:
                raise LaunchError(f"no {kind.value} accelerator on this NIC")
            free = len(self.engines[kind].free_clusters())
            if free < count:
                raise LaunchError(
                    f"{kind.value}: requested {count} clusters, {free} free"
                )
        return requested

    def _build_vpp(
        self, nf_id: int, config: NFConfig, extent_base: int, extent_bytes: int
    ) -> VirtualPacketPipeline:
        ring_data = config.ring_data_bytes
        desc_bytes = config.vpp.ring_capacity * _DESC_BYTES
        top = extent_base + extent_bytes
        rx_desc = top - desc_bytes
        tx_desc = rx_desc - desc_bytes
        rx_data = tx_desc - ring_data
        tx_data = rx_data - ring_data
        rules_blob = config.vpp.rules_blob()
        rules_base = tx_data - ((len(rules_blob) + 63) & ~63)
        if rules_base <= extent_base + len(config.initial_image):
            raise LaunchError("extent too small for rings + rules")
        if rules_blob:
            # snic: ignore[SNIC001] -- trusted launch path stages the
            # VPP rules inside the NF's freshly claimed extent (§4.4).
            self.memory.write(rules_base, rules_blob)
        return VirtualPacketPipeline(
            nf_id=nf_id,
            config=config.vpp,
            memory=self.memory,
            rx_port=self.rx_port,
            tx_port=self.tx_port,
            rx_ring_data_base=rx_data,
            rx_ring_desc_base=rx_desc,
            tx_ring_data_base=tx_data,
            tx_ring_desc_base=tx_desc,
            ring_data_bytes=ring_data,
        )

    def _cumulative_hash(
        self, config: NFConfig, extent_base: int, extent_bytes: int
    ) -> bytes:
        hash_input_parts = [config.descriptor(), config.vpp.rules_blob()]
        # Digest the claimed memory (initial image + zeroed remainder),
        # chunked so large extents do not build giant byte strings.
        # hashlib is SHA-256 at C speed; repro.crypto.sha256 verifies the
        # algorithm itself against it in the test suite.
        hasher = hashlib.sha256()
        for part in hash_input_parts:
            hasher.update(len(part).to_bytes(8, "big") + part)
        chunk = 1 << 20
        offset = 0
        while offset < extent_bytes:
            size = min(chunk, extent_bytes - offset)
            # snic: ignore[SNIC001] -- attestation measurement (§4.7):
            # trusted hardware digests the extent it just initialized.
            hasher.update(self.memory.read(extent_base + offset, size))
            offset += size
        return hasher.digest()

    # ------------------------------------------------------------------
    # nf_attest (§4.7)
    # ------------------------------------------------------------------

    def nf_attest(
        self,
        nf_id: int,
        nonce: bytes,
        params: DHParams = DEFAULT_DH_PARAMS,
    ) -> FunctionAttestationSession:
        """Sign the function's state hash + DH parameters with the AK."""
        record = self.record(nf_id)
        session = build_quote(
            state_hash=record.state_hash,
            ak=self.ak,
            ek=self.ek,
            nonce=nonce,
            params=params,
        )
        attest_ms = self.timing.nf_attest_ms()
        self.instruction_log.append(("nf_attest", nf_id, attest_ms))
        if _AUDIT.active:
            _AUDIT.emit("attest.quote", tenant=nf_id,
                        state_hash=record.state_hash.hex())
        if _TRACER.enabled:
            _TRACER.complete("nf_attest", _TRACER.now(), attest_ms * 1e6,
                             tenant=nf_id, track="snic-lifecycle",
                             cat="lifecycle")
        return session

    # ------------------------------------------------------------------
    # nf_teardown (§4.6)
    # ------------------------------------------------------------------

    def nf_teardown(self, nf_id: int) -> None:
        """Atomically destroy a function, leaking nothing."""
        record = self.record(nf_id)
        # Zero pages *before* removing them from the denylist.
        # snic: ignore[SNIC001] -- nf_teardown IS the trusted scrub
        # sequence (§4.6); scrub=True is what makes reuse safe.
        self.memory.release_pages(nf_id, scrub=True)
        self.denylist.allow(record.pages)
        for core_id in record.config.core_ids:
            self.cores[core_id].unbind()  # clears registers + TLB
        for cluster in record.clusters:
            cluster.unbind()
        record.vpp.release(self.rx_port, self.tx_port)
        self.egress_scheduler.forget(nf_id)
        self.dma.release_owner(nf_id)
        self.l2.flush_owner(nf_id)  # zero the cache lines used by F
        del self._records[nf_id]
        self._repartition_cache()
        self._rebuild_bus()
        destroy_ms = self.timing.nf_destroy_ms(record.extent_bytes)
        self.instruction_log.append(("nf_teardown", nf_id, destroy_ms))
        if _AUDIT.active:
            _AUDIT.emit("lifecycle.teardown", tenant=nf_id,
                        pages=len(record.pages),
                        extent_bytes=record.extent_bytes)
        if _TRACER.enabled:
            _TRACER.complete("nf_teardown", _TRACER.now(), destroy_ms * 1e6,
                             tenant=nf_id, track="snic-lifecycle",
                             cat="lifecycle",
                             extent_bytes=record.extent_bytes)

    # ------------------------------------------------------------------
    # Microarchitectural reservations
    # ------------------------------------------------------------------

    def _repartition_cache(self) -> None:
        self._cache_allocation = self.cache_policy.apply(
            self.l2, self.live_functions
        )
        if _TRACER.enabled:
            _TRACER.instant("cache.repartition", tenant=None,
                            track="snic-lifecycle", cat="lifecycle",
                            allocation={str(k): v for k, v
                                        in self._cache_allocation.items()})

    def cache_rebalance(self) -> Dict[int, int]:
        """One SecDCP control step (no-op under static partitioning).

        The controller reads only the NIC OS's cache statistics (§4.2's
        one-way information flow); see
        :class:`repro.core.cache_policy.SecDCPPolicy`.
        """
        rebalance = getattr(self.cache_policy, "rebalance", None)
        if rebalance is not None and self._cache_allocation:
            self._cache_allocation = rebalance(self.l2, self._cache_allocation)
        return dict(self._cache_allocation)

    def _rebuild_bus(self) -> None:
        domains = [NIC_OS_OWNER] + self.live_functions
        self.bus = IOBus(
            TemporalPartitioningArbiter(
                domains=domains,
                bandwidth_bytes_per_ns=self._bus_bandwidth,
                epoch_ns=self._bus_epoch_ns,
                dead_time_ns=self._bus_dead_ns,
            )
        )
        if _TRACER.enabled:
            _TRACER.instant("bus.rebuild_epochs", tenant=None,
                            track="snic-lifecycle",
                            cat="lifecycle", domains=list(domains),
                            epoch_ns=self._bus_epoch_ns,
                            dead_time_ns=self._bus_dead_ns)

    # ------------------------------------------------------------------
    # Packet plumbing
    # ------------------------------------------------------------------

    def classify(self, packet: Packet) -> Optional[int]:
        """First-match classification over every live VPP's rules."""
        five_tuple, vni = packet.five_tuple, packet.vni
        for nf_id in self.live_functions:
            for rule in self._records[nf_id].vpp.switching_rules:
                if rule.match.matches(five_tuple, vni):
                    return nf_id
        return None

    def process_ingress(self) -> Dict[int, int]:
        """Packet input module: move staged RX packets into VPP rings.

        Acting as a VXLAN tunnel endpoint (§4.4), the input module
        decapsulates VXLAN transports first, so switching rules can
        match the inner frame's 5-tuple *and* its VNI.
        """
        from repro.net.vxlan import VXLAN_UDP_PORT, vxlan_decapsulate

        delivered: Dict[int, int] = {}
        for packet in self.rx_port.drain():
            if (
                getattr(packet.l4, "dst_port", None) == VXLAN_UDP_PORT
                and packet.vni is None
            ):
                try:
                    _, packet = vxlan_decapsulate(packet)
                except ValueError:
                    pass  # malformed VXLAN: classify the outer frame
            nf_id = self.classify(packet)
            if nf_id is None:
                delivered[-1] = delivered.get(-1, 0) + 1  # no rule: dropped
                continue
            vpp = self._records[nf_id].vpp
            ring = vpp.rx_ring
            if ring.occupancy >= ring.capacity:
                # Backpressure: a full RX ring drops, as on real NICs.
                delivered[-1] = delivered.get(-1, 0) + 1
                continue
            try:
                vpp.deliver(packet)
            except RingFullError:
                # No room in the ring's packet buffer: dropped the same way.
                delivered[-1] = delivered.get(-1, 0) + 1
                continue
            delivered[nf_id] = delivered.get(nf_id, 0) + 1
        return delivered

    def process_egress(self, max_bytes: Optional[int] = None) -> int:
        """Packet output module: drain TX rings onto the wire.

        Egress is scheduled with deficit round robin across live VPPs
        (:class:`repro.core.egress.DRREgressScheduler`), so one tenant's
        backlog cannot starve another's wire share.  ``max_bytes``
        bounds this pass (the port's transmit budget); ``None`` drains
        everything.
        """
        vpps = {nf_id: record.vpp for nf_id, record in self._records.items()}
        return self.egress_scheduler.drain(vpps, self.tx_port, max_bytes)
