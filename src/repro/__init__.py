"""S-NIC reproduction: SmartNIC security isolation in the cloud.

A from-scratch Python reproduction of *SmartNIC Security Isolation in
the Cloud with S-NIC* (Zhou, Wilkening, Mickens, Yu — EuroSys 2024),
including every substrate the paper's evaluation depends on.

Subpackages
-----------

``repro.core``
    The S-NIC design itself: trusted instructions
    (``nf_launch``/``nf_attest``/``nf_teardown``), memory denylisting,
    virtualized accelerators, virtual packet pipelines, bus/cache
    isolation policies, attestation, and secure constellations.
``repro.hw``
    The hardware simulation substrate (the role gem5 plays in the
    paper): memory, MMU/TLBs, caches, DRAM/bus, cores, accelerators,
    packet IO, DMA.
``repro.commodity``
    Behavioral models of LiquidIO / Agilio / BlueField and the three
    §3.3 proof-of-concept attacks.
``repro.nf``
    The six evaluation network functions with real algorithms
    (Aho–Corasick, Maglev, DIR-24-8, ...).
``repro.net``
    Packets, rules, VXLAN, and synthetic trace generation.
``repro.crypto``
    From-scratch SHA-256 / RSA / Diffie–Hellman and the EK/AK key
    hierarchy.
``repro.cost``
    The mini-McPAT area/power model, page packing, memory profiles, and
    the TCO analysis (Tables 2–8, Figure 7).
``repro.perf``
    The Figure 5 IPC-degradation experiments (Che's approximation +
    trace-driven cross-validation).
``repro.obs``
    Unified observability: a tenant-tagged span/event tracer hooked
    into every hardware layer, a metrics registry (counters, gauges,
    histograms), and Chrome ``trace_event`` / CSV / JSON exporters
    (``python -m repro trace``).
``repro.faults``
    Deterministic fault injection: seeded fault plans, interposition-
    based injectors over the hardware and core models, sim-time
    watchdog/retry/restart recovery, and the commodity-vs-S-NIC
    blast-radius matrix (``python -m repro chaos``).
``repro.scenario``
    Declarative experiments: frozen, validated ``ScenarioSpec`` objects,
    the spec-to-simulation builder, and the axis-product sweep runner
    (``python -m repro matrix``).

Quickstart
----------

>>> from repro.core import SNIC, NICOS, NFConfig
>>> snic = SNIC()
>>> nic_os = NICOS(snic)
>>> vnic = nic_os.NF_create(NFConfig(name="fw", core_ids=(0,),
...                                  memory_bytes=4 * 1024 * 1024))
>>> vnic.nf_id
1
"""

__version__ = "1.0.0"

__all__ = [
    "commodity",
    "core",
    "cost",
    "crypto",
    "faults",
    "hw",
    "net",
    "nf",
    "obs",
    "perf",
    "scenario",
]
