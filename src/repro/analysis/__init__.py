"""``repro.analysis`` — correctness tooling for the S-NIC reproduction.

The paper's argument (§4) is that *single-owner semantics* — page
ownership, locked TLBs, way-partitioned caches, temporally partitioned
buses — eliminate cross-tenant channels.  ``repro.hw`` encodes those
invariants; this package *checks* that new code keeps them:

* :mod:`repro.analysis.lint` — a custom AST lint engine with
  S-NIC-specific rules (:mod:`repro.analysis.rules`), one per hazard:
  isolation bypass (SNIC001), nondeterminism — host clocks, unseeded
  or process-global RNGs, set order into ``schedule()`` — (SNIC002),
  untagged telemetry (SNIC004), float sim-time arithmetic (SNIC005),
  security primitives without an audit record (SNIC008), and the
  whole-program rule SNIC010: module-level state a cell writes or
  rebinds outside its cell state.  CLI: ``python -m repro lint``.
* :mod:`repro.analysis.isosan` — **IsoSan**, a TSan/ASan-style runtime
  sanitizer that interposes on :class:`~repro.hw.memory.PhysicalMemory`,
  :class:`~repro.hw.cache.Cache`, :class:`~repro.hw.mmu.TLB`, the bus
  arbiter, and the DMA banks, raising
  :class:`~repro.core.errors.IsolationViolation` on cross-tenant
  access, unscrubbed page reuse, overlapping TLB installs, and
  partition-boundary cache fills.
* :mod:`repro.analysis.determinism` — runs a scenario twice under
  :mod:`repro.obs` tracing and diffs event-stream digests; divergence
  means a nondeterminism bug.  CLI: ``python -m repro sanitize``.
"""

from __future__ import annotations

from repro.analysis.determinism import (
    DeterminismReport,
    RunDigest,
    check_determinism,
    check_cotenancy_determinism,
    digest_events,
)
from repro.analysis.isosan import IsoSan, get_isosan, sanitized
from repro.analysis.lint import Finding, LintEngine, run_lint

__all__ = [
    "DeterminismReport",
    "Finding",
    "IsoSan",
    "LintEngine",
    "RunDigest",
    "check_cotenancy_determinism",
    "check_determinism",
    "digest_events",
    "get_isosan",
    "run_lint",
    "sanitized",
]
