"""IsoSan — a TSan/ASan-style runtime sanitizer for isolation invariants.

The hardware models enforce what real trusted hardware enforces — and
deliberately nothing more: :class:`~repro.hw.memory.PhysicalMemory`
performs raw accesses unchecked because enforcement lives in the MMU in
front of it.  That fidelity means a bug in a mediation layer (or a new
subsystem that forgets to use one) silently violates the paper's
single-owner semantics.  IsoSan interposes on the hardware classes —
the sanitizer tradition's function interception, in Python via method
wrapping — and raises :class:`~repro.core.errors.IsolationViolation`
the moment an invariant breaks:

* **cross-tenant access** — within an attributed access context (a
  core's load/store, a DMA bank transfer), touching a page owned by a
  different security domain;
* **unscrubbed page reuse** — ``release_pages(scrub=False)`` leaves
  ``PageInfo.dirty_from`` set; re-claiming such a page hands the new
  owner the previous owner's bytes (§4.6 requires zeroing first);
* **overlapping TLB installs** — two banks serving different domains
  mapping the same physical range is shared memory the paper forbids;
* **partition-boundary cache fills** — in a partitioned cache a fill
  must never evict another owner's line nor exceed the owner's way
  allocation (§4.2);
* **epoch breaches** — a temporally partitioned bus completion landing
  outside the requesting domain's live window (§4.5).

Enable per-process with :func:`IsoSan.install` /
:func:`IsoSan.uninstall`, or scoped with :func:`sanitized`.  The test
suite enables it for every test via a conftest autouse fixture (opt out
with ``@pytest.mark.no_isosan``); benches via ``--sanitize``.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, List, Optional, Tuple

#: Shorthand for an interposable bound-method signature.
_Method = Callable[..., Any]

from repro.core.errors import IsolationViolation
from repro.hw.memory import FREE, PhysicalMemory
from repro.obs.cell import CELL


class Interposer:
    """Method wrap-and-pin with restore bookkeeping.

    :meth:`wrap` replaces a class attribute with a wrapper around the
    original and keeps the original; :meth:`restore` puts every
    original back, last wrapped first, so interposers that wrap the
    same method (IsoSan and the fault injector) unwind LIFO.
    """

    def __init__(self) -> None:
        self._originals: List[Tuple[type, str, _Method]] = []

    def __bool__(self) -> bool:
        return bool(self._originals)

    def wrap(self, cls: type, name: str,
             factory: Callable[[_Method], _Method]) -> None:
        original = getattr(cls, name)
        wrapper = factory(original)
        self._originals.append((cls, name, original))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)


class IsoSan:
    """The sanitizer: shadow ownership state + hardware interposers."""

    def __init__(self) -> None:
        self._interposer = Interposer()
        #: Stack of accessor security domains (single-threaded sim).
        self._context: List[int] = []
        #: Every TLB bank seen installing entries over owned pages.
        self._banks: "weakref.WeakSet" = weakref.WeakSet()
        #: Every PhysicalMemory constructed while installed (for
        #: resolving a TLB entry's physical owner at install time).
        self._memories: "weakref.WeakSet" = weakref.WeakSet()
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._interposer)

    def install(self) -> "IsoSan":
        if self.installed:
            return self
        # A fresh scope starts with clean shadow state (the singleton is
        # reused across test-suite fixtures).
        self.violations = []
        self._context = []
        self._banks = weakref.WeakSet()
        self._memories = weakref.WeakSet()
        from repro.hw.bus import TemporalPartitioningArbiter
        from repro.hw.cache import Cache, SHARED
        from repro.hw.cores import ProgrammableCore
        from repro.hw.dma import DMABank
        from repro.hw.mmu import GuardedAddressSpace, TLB

        san = self

        wrap = self._interposer.wrap

        # -- PhysicalMemory: construction registry, access, ownership --
        def init_factory(orig: _Method) -> _Method:
            def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
                orig(obj, *args, **kwargs)
                san._memories.add(obj)
            return __init__

        def access_factory(orig: _Method, write: bool) -> _Method:
            def accessor(mem: Any, addr: int, payload: Any) -> Any:
                size = len(payload) if write else payload
                san._check_access(mem, addr, size)
                return orig(mem, addr, payload)
            return accessor

        def claim_factory(orig: _Method) -> _Method:
            def claim_pages(mem: Any, owner: int, page_indices: Any) -> Any:
                indices = list(page_indices)
                san._check_claim(mem, owner, indices)
                return orig(mem, owner, indices)
            return claim_pages

        wrap(PhysicalMemory, "__init__", init_factory)
        wrap(PhysicalMemory, "read",
             lambda orig: access_factory(orig, write=False))
        wrap(PhysicalMemory, "write",
             lambda orig: access_factory(orig, write=True))
        wrap(PhysicalMemory, "claim_pages", claim_factory)

        # -- TLB: overlap + cross-tenant install tracking --------------
        # A GuardedAddressSpace explicitly pairs a bank with its memory;
        # pin the association so install checks resolve owners against
        # the right page table even with several memories in-process.
        def gas_factory(orig: _Method) -> _Method:
            def __init__(obj: Any, tlb: Any, memory: Any) -> None:
                orig(obj, tlb, memory)
                tlb._isosan_mem = weakref.ref(memory)
            return __init__

        wrap(GuardedAddressSpace, "__init__", gas_factory)

        def install_factory(orig: _Method) -> _Method:
            def install(tlb: Any, entry: Any) -> None:
                orig(tlb, entry)
                san._check_tlb_install(tlb, entry)
            return install

        def clear_factory(orig: _Method) -> _Method:
            def clear(tlb: Any, force: bool = False) -> None:
                orig(tlb, force=force)
                tlb._isosan_owner = None
            return clear

        wrap(TLB, "install", install_factory)
        wrap(TLB, "clear", clear_factory)

        # -- Cache: partition-boundary fill checks ---------------------
        def fill_factory(orig: _Method) -> _Method:
            def _fill(cache: Any, lines: Any, tag: int, owner: int) -> Any:
                if cache.mode == SHARED:
                    return orig(cache, lines, tag, owner)
                before = [(line.tag, line.owner) for line in lines]
                result = orig(cache, lines, tag, owner)
                san._check_partitioned_fill(cache, lines, before, owner)
                return result
            return _fill

        wrap(Cache, "_fill", fill_factory)

        # -- DMA banks: transfers run in the bank owner's context ------
        def dma_factory(orig: _Method) -> _Method:
            def transfer(bank: Any, *args: Any, **kwargs: Any) -> Any:
                with san.access_context(bank.owner):
                    return orig(bank, *args, **kwargs)
            return transfer

        wrap(DMABank, "to_nic", dma_factory)
        wrap(DMABank, "to_host", dma_factory)

        # -- Cores: loads/stores run in the bound NF's context ---------
        def core_factory(orig: _Method) -> _Method:
            def access(core: Any, *args: Any, **kwargs: Any) -> Any:
                with san.access_context(core.owner):
                    return orig(core, *args, **kwargs)
            return access

        wrap(ProgrammableCore, "load", core_factory)
        wrap(ProgrammableCore, "store", core_factory)

        # -- Bus: completions must stay inside the domain's epochs -----
        def bus_factory(orig: _Method) -> _Method:
            def request(arbiter: Any, client: int, n_bytes: int,
                        now_ns: float) -> float:
                completion = orig(arbiter, client, n_bytes, now_ns)
                san._check_epoch(arbiter, client, completion)
                return completion
            return request

        wrap(TemporalPartitioningArbiter, "request", bus_factory)
        return self

    def uninstall(self) -> None:
        self._interposer.restore()
        self._context.clear()
        self._banks = weakref.WeakSet()
        self._memories = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Access attribution
    # ------------------------------------------------------------------

    class _Context:
        __slots__ = ("_san", "_tenant")

        def __init__(self, san: "IsoSan", tenant: Optional[int]) -> None:
            self._san = san
            self._tenant = tenant

        def __enter__(self) -> "IsoSan._Context":
            if self._tenant is not None:
                self._san._context.append(self._tenant)
            return self

        def __exit__(self, *exc: object) -> bool:
            if self._tenant is not None:
                self._san._context.pop()
            return False

    def access_context(self, tenant: Optional[int]) -> "IsoSan._Context":
        """Attribute enclosed physical accesses to ``tenant`` (``None``
        leaves them unattributed/unchecked, matching raw hardware)."""
        return IsoSan._Context(self, tenant)

    def current_tenant(self) -> Optional[int]:
        return self._context[-1] if self._context else None

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------

    def _violation(self, message: str) -> None:
        self.violations.append(message)
        if CELL.audit.enabled:
            CELL.audit.append("isosan.violation",
                              tenant=self.current_tenant(), message=message)
        raise IsolationViolation(f"IsoSan: {message}")

    def _check_access(self, mem: PhysicalMemory, addr: int,
                      size: int) -> None:
        tenant = self.current_tenant()
        if tenant is None or size <= 0:
            return
        first = addr // mem.page_size
        last = (addr + size - 1) // mem.page_size
        for page in range(first, last + 1):
            info = mem._info.get(page)
            owner = info.owner if info is not None else FREE
            if owner is not FREE and owner != tenant:
                self._violation(
                    f"cross-tenant access: domain {tenant} touched page "
                    f"{page} owned by NF {owner}")

    def _check_claim(self, mem: PhysicalMemory, owner: int,
                     indices: List[int]) -> None:
        for page in indices:
            info = mem._info.get(page)
            dirty_from = getattr(info, "dirty_from", None) \
                if info is not None else None
            if dirty_from is not None and dirty_from != owner:
                self._violation(
                    f"unscrubbed page reuse: page {page} still holds NF "
                    f"{dirty_from}'s data (released with scrub=False); "
                    f"zero it before claiming for NF {owner}")

    @staticmethod
    def _owners_in(mem: PhysicalMemory, lo: int, hi: int) -> set:
        """Security domains owning pages of ``[lo, hi)`` in ``mem``."""
        owners: set = set()
        if lo >= mem.size_bytes or hi <= lo:
            return owners
        first = lo // mem.page_size
        last = (min(hi, mem.size_bytes) - 1) // mem.page_size
        for page in range(first, last + 1):
            info = mem._info.get(page)
            if info is not None and info.owner is not FREE:
                owners.add(info.owner)
        return owners

    def _bank_memory(self, tlb: Any, lo: int, hi: int) -> \
            Optional[PhysicalMemory]:
        """The memory a bank's entries refer to.

        A bank fronted by a :class:`GuardedAddressSpace` is pinned at
        construction.  Otherwise (e.g. accelerator-cluster banks, which
        hardware pairs with the device DRAM implicitly) the association
        is inferred on first install — but only when exactly one live
        memory claims ownership of the range.  With several candidate
        memories (two devices in one process, or a garbage-pending
        simulation) the inference is ambiguous and the bank's checks
        stay off rather than risk a cross-device false positive.
        """
        ref = getattr(tlb, "_isosan_mem", None)
        mem = ref() if ref is not None else None
        if mem is not None:
            return mem
        matches = [m for m in list(self._memories)
                   if self._owners_in(m, lo, hi)]
        if len(matches) != 1:
            return None
        tlb._isosan_mem = weakref.ref(matches[0])
        return matches[0]

    def _check_tlb_install(self, tlb: Any, entry: Any) -> None:
        lo, hi = entry.physical_range()
        mem = self._bank_memory(tlb, lo, hi)
        if mem is None:
            return
        owners = self._owners_in(mem, lo, hi)
        if len(owners) > 1:
            self._violation(
                f"TLB entry [{lo:#x},{hi:#x}) spans pages of multiple "
                f"domains {sorted(owners)}")
        if not owners:
            return
        entry_owner = owners.pop()
        bank_owner = getattr(tlb, "_isosan_owner", None)
        if bank_owner is not None and bank_owner != entry_owner:
            self._violation(
                f"TLB bank {tlb.name!r} serving NF {bank_owner} installed "
                f"a mapping to NF {entry_owner}'s pages")
        tlb._isosan_owner = entry_owner
        for other in list(self._banks):
            if other is tlb:
                continue
            other_ref = getattr(other, "_isosan_mem", None)
            if other_ref is None or other_ref() is not mem:
                continue
            other_owner = getattr(other, "_isosan_owner", None)
            if other_owner is None or other_owner == entry_owner:
                continue
            for existing in other.entries:
                elo, ehi = existing.physical_range()
                if lo < ehi and elo < hi:
                    self._violation(
                        f"overlapping TLB install: [{lo:#x},{hi:#x}) for "
                        f"NF {entry_owner} intersects {other.name!r} "
                        f"mapping [{elo:#x},{ehi:#x}) of NF {other_owner}")
        self._banks.add(tlb)

    def _check_partitioned_fill(self, cache: Any, lines: List[Any],
                                before: List[Tuple[int, int]],
                                owner: int) -> None:
        after = [(line.tag, line.owner) for line in lines]
        evicted = list(before)
        for line in after:
            if line in evicted:
                evicted.remove(line)
        for _tag, victim_owner in evicted:
            if victim_owner != owner:
                self._violation(
                    f"partition-boundary fill: NF {owner}'s fill in "
                    f"{cache.name!r} evicted NF {victim_owner}'s line "
                    f"({cache.mode} mode)")
        occupancy = sum(1 for _t, o in after if o == owner)
        allowed = cache.ways_for(owner)
        if occupancy > allowed:
            self._violation(
                f"partition overflow: NF {owner} holds {occupancy} lines "
                f"in a {cache.name!r} set but owns {allowed} way(s)")

    def _check_epoch(self, arbiter: Any, client: int,
                     completion: float) -> None:
        index = arbiter.domains.index(client)
        cycle = arbiter.n_domains * arbiter.epoch_ns
        position = completion % cycle
        slot_start = index * arbiter.epoch_ns
        live_end = slot_start + arbiter.live_ns
        tolerance = 1e-6 * arbiter.epoch_ns
        if not (slot_start - tolerance <= position <= live_end + tolerance):
            self._violation(
                f"epoch breach: domain {client}'s bus completion at "
                f"{completion:.1f} ns lands outside its live window "
                f"[{slot_start:.0f}, {live_end:.0f}) of the "
                f"{cycle:.0f} ns cycle")


# ----------------------------------------------------------------------
# Process-wide singleton + helpers
# ----------------------------------------------------------------------

_ISOSAN = IsoSan()


def get_isosan() -> IsoSan:
    return _ISOSAN


def enabled_by_env(default: bool = True) -> bool:
    """Honour ``REPRO_ISOSAN=0/1`` (used by conftest and CI)."""
    value = os.environ.get("REPRO_ISOSAN", "")
    if value in ("0", "off", "false"):
        return False
    if value in ("1", "on", "true"):
        return True
    return default


class sanitized:
    """Context manager: install IsoSan for the enclosed block.

    Re-entrant with an already-installed singleton (no double-wrap);
    only the outermost scope uninstalls.
    """

    def __init__(self, san: Optional[IsoSan] = None) -> None:
        self._san = san or _ISOSAN
        self._owned = False

    def __enter__(self) -> IsoSan:
        self._owned = not self._san.installed
        self._san.install()
        return self._san

    def __exit__(self, *exc: object) -> bool:
        if self._owned:
            self._san.uninstall()
        return False
