"""Hardware simulation substrate.

A behavioral + timing model of the SoC smart-NIC building blocks of §3.1:
discrete-event kernel (:mod:`repro.hw.events`), physical memory with page
ownership (:mod:`repro.hw.memory`), MMU/TLB machinery including denylist
page tables (:mod:`repro.hw.mmu`), set-associative caches with way
partitioning (:mod:`repro.hw.cache`), DRAM and the internal IO bus with
pluggable arbiters (:mod:`repro.hw.dram`, :mod:`repro.hw.bus`),
programmable cores (:mod:`repro.hw.cores`), hardware accelerators with
thread clusters (:mod:`repro.hw.accelerator`), packet ingress/egress
(:mod:`repro.hw.packet_io`), and the NIC/host DMA controller
(:mod:`repro.hw.dma`).

This substrate plays the role gem5 plays in the paper: it is where both
the commodity-NIC models (:mod:`repro.commodity`) and S-NIC
(:mod:`repro.core`) are built.
"""

from repro.hw.events import Simulator
from repro.hw.memory import AccessFault, HostMemory, PhysicalMemory
from repro.hw.mmu import (
    DenylistPageTable,
    PageTable,
    TLB,
    TLBEntry,
    TLBLockedError,
    TLBMiss,
)
from repro.hw.cache import Cache, CacheConfig, CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.hw.bus import (
    BusRequest,
    FCFSArbiter,
    IOBus,
    TemporalPartitioningArbiter,
)
from repro.hw.cores import CoreTimingConfig, ProgrammableCore
from repro.hw.accelerator import (
    AcceleratorCluster,
    AcceleratorEngine,
    AcceleratorKind,
    AcceleratorRequest,
)
from repro.hw.packet_io import (
    PacketRing,
    RXPort,
    TXPort,
)
from repro.hw.dma import DMABank, DMAController, DMAWindow

__all__ = [
    "AcceleratorCluster",
    "AcceleratorEngine",
    "AcceleratorKind",
    "AcceleratorRequest",
    "AccessFault",
    "BusRequest",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "CoreTimingConfig",
    "DMABank",
    "DMAController",
    "DMAWindow",
    "DRAMModel",
    "DenylistPageTable",
    "FCFSArbiter",
    "HostMemory",
    "IOBus",
    "PacketRing",
    "PageTable",
    "PhysicalMemory",
    "ProgrammableCore",
    "RXPort",
    "Simulator",
    "TLB",
    "TLBEntry",
    "TLBLockedError",
    "TLBMiss",
    "TXPort",
    "TemporalPartitioningArbiter",
]
