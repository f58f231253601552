"""Model-checking physical memory and the launch measurement.

``PhysicalMemory.read`` assembles its result from views of the page
backings, ``write`` stores a write inside one page with one slice
assignment, and ownership queries answer from an owner -> pages index.
All are checked against the obviously-correct versions under random
operation sequences: a flat ``bytearray`` for reads and writes, a scan
of every page record for ownership.  The launch measurement is checked against
SHA-256 over the descriptor, the rules and a byte-by-byte walk of the
extent.
"""

import copy
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NFConfig, SNIC
from repro.core.vpp import VPPConfig
from repro.hw.memory import AccessFault, PhysicalMemory
from repro.net.rules import MatchRule, Prefix

PAGE = 256
N_PAGES = 16
SIZE = PAGE * N_PAGES
OWNERS = (1, 2, 3, 4)

WRITES = st.lists(
    st.tuples(st.integers(0, SIZE - 1),
              st.binary(min_size=0, max_size=3 * PAGE)),
    max_size=12)
SCRUBS = st.lists(st.integers(0, N_PAGES - 1), max_size=4)
READS = st.lists(
    st.tuples(st.integers(0, SIZE), st.integers(0, 4 * PAGE)),
    min_size=1, max_size=20)


def full_scan(mem: PhysicalMemory, owner: int):
    """``pages_owned_by`` as a walk over every page record."""
    return sorted(idx for idx, info in mem._info.items()
                  if info.owner == owner)


class TestReadAgainstFlatReference:
    @settings(max_examples=80, deadline=None)
    @given(WRITES, SCRUBS, READS)
    def test_read_matches_flat_bytes(self, writes, scrubs, reads):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        flat = bytearray(SIZE)
        for addr, data in writes:
            data = data[:SIZE - addr]
            mem.write(addr, data)
            flat[addr:addr + len(data)] = data
        for page in scrubs:
            mem.zero_page(page)
            flat[page * PAGE:(page + 1) * PAGE] = bytes(PAGE)
        for addr, size in reads:
            size = min(size, SIZE - addr)
            got = mem.read(addr, size)
            assert type(got) is bytes
            assert got == bytes(flat[addr:addr + size])

    def test_untouched_and_empty_reads(self):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        mem.write(PAGE + 10, b"\xff" * 4)
        assert mem.read(3 * PAGE, 5 * PAGE) == bytes(5 * PAGE)
        assert mem.read(0, 3 * PAGE) == (
            bytes(PAGE + 10) + b"\xff" * 4 + bytes(2 * PAGE - 14))
        for addr in (0, PAGE - 1, PAGE, SIZE):
            assert mem.read(addr, 0) == b""
            assert type(mem.read(addr, 0)) is bytes
        # Reading never materialises a page.
        assert sorted(mem._pages) == [1]

    def test_memory_deep_copies(self):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        mem.write(PAGE - 1, b"xy")
        mem.claim_pages(1, [0, 1])
        clone = copy.deepcopy(mem)
        assert clone.read(PAGE - 1, 2) == b"xy"
        assert clone.pages_owned_by(1) == [0, 1]
        clone.release_pages(1)
        assert mem.pages_owned_by(1) == [0, 1]


#: Writes biased to land inside one page: a page, an offset in it and
#: a length that fits before its end.
PAGE_LOCAL_WRITES = st.lists(
    st.integers(0, N_PAGES - 1).flatmap(
        lambda page: st.integers(0, PAGE - 1).flatmap(
            lambda offset: st.tuples(
                st.just(page * PAGE + offset),
                st.binary(min_size=0, max_size=PAGE - offset)))),
    max_size=12)


class TestWriteAgainstFlatReference:
    """``write`` stores exactly what a flat ``bytearray`` would, read
    back straight from the page backings (not through ``read``)."""

    @staticmethod
    def _check(writes):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        flat = bytearray(SIZE)
        touched = set()
        for addr, data in writes:
            data = data[:SIZE - addr]
            mem.write(addr, data)
            flat[addr:addr + len(data)] = data
            if data:
                touched.update(range(addr // PAGE,
                                     (addr + len(data) - 1) // PAGE + 1))
        assert set(mem._pages) == touched
        assert _naive_extent(mem, 0, SIZE) == bytes(flat)

    @settings(max_examples=80, deadline=None)
    @given(PAGE_LOCAL_WRITES)
    def test_single_page_writes_match_flat_bytes(self, writes):
        self._check(writes)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(PAGE_LOCAL_WRITES, WRITES), max_size=3)
           .map(lambda groups: [w for group in groups for w in group]))
    def test_mixed_and_cross_page_writes_match_flat_bytes(self, writes):
        self._check(writes)

    def test_edge_writes(self):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        mem.write(PAGE - 1, b"a")  # last byte of a page
        mem.write(PAGE, b"b")  # first byte of the next
        mem.write(3 * PAGE - 2, b"cdef")  # straddles a boundary
        mem.write(5 * PAGE, b"")  # empty: materializes nothing
        mem.write(SIZE, b"")
        assert sorted(mem._pages) == [0, 1, 2, 3]
        assert mem.read(PAGE - 1, 2) == b"ab"
        assert mem.read(3 * PAGE - 2, 4) == b"cdef"
        mem.write(PAGE, bytearray(b"xy"))
        mem.write(PAGE + 2, memoryview(b"z"))
        assert mem.read(PAGE, 3) == b"xyz"
        with pytest.raises(AccessFault):
            mem.write(SIZE - 1, b"no")


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("claim"), st.sampled_from(OWNERS),
                  st.lists(st.integers(0, N_PAGES), max_size=5)),
        st.tuples(st.just("release"), st.sampled_from(OWNERS),
                  st.booleans()),
    ),
    max_size=40)


class TestOwnerIndexAgainstFullScan:
    @settings(max_examples=80, deadline=None)
    @given(OPS)
    def test_pages_owned_by_matches_full_scan(self, ops):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        for kind, owner, arg in ops:
            if kind == "claim":
                index = {o: set(pages) for o, pages in mem._owned.items()}
                try:
                    mem.claim_pages(owner, arg)
                except AccessFault:
                    assert mem._owned == index
            else:
                expected = full_scan(mem, owner)
                assert mem.release_pages(owner, scrub=arg) == len(expected)
            for o in OWNERS:
                assert mem.pages_owned_by(o) == full_scan(mem, o)

    def test_failed_claim_leaves_index_untouched(self):
        mem = PhysicalMemory(SIZE, page_size=PAGE)
        mem.claim_pages(1, [2, 3])
        with pytest.raises(AccessFault):
            mem.claim_pages(2, [4, 5, 3])
        with pytest.raises(AccessFault):
            mem.claim_pages(2, [6, N_PAGES])
        assert mem._owned == {1: {2, 3}}
        assert mem.pages_owned_by(2) == []
        assert all(mem.owner_of(p) is None for p in (4, 5, 6))


def _naive_extent(memory: PhysicalMemory, base: int, size: int) -> bytes:
    """The extent read one byte at a time straight from the backings."""
    out = bytearray()
    for addr in range(base, base + size):
        page = memory._pages.get(addr // memory.page_size)
        out.append(0 if page is None else page[addr % memory.page_size])
    return bytes(out)


def _naive_digest(snic: SNIC, record) -> bytes:
    """SHA-256 over the descriptor, the rules and the naive extent."""
    config = record.config
    hasher = hashlib.sha256()
    for part in (config.descriptor(), config.vpp.rules_blob()):
        hasher.update(len(part).to_bytes(8, "big") + part)
    hasher.update(_naive_extent(snic.memory, record.extent_base,
                                record.extent_bytes))
    return hasher.digest()


def _rules(n_rules: int) -> VPPConfig:
    return VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse(f"9.9.9.{i}/32"))
                            for i in range(n_rules)])


#: Image offsets on the edges the measurement scans by: 4 KiB blocks,
#: 64 KiB pages and the 256 KiB read chunks.  The image sits at the
#: start of an extent aligned to its largest page, so these are extent
#: edges.
MiB = 1 << 20
CHUNK = 1 << 18
EDGES = (0, 1, 4095, 4096, 4097, 65535, 65536, 65537, 3 * 65536 - 2,
         CHUNK - 4097, CHUNK - 1, CHUNK, CHUNK + 1, MiB - 1, MiB, MiB + 1)
IMAGE_MAX = MiB + 8192

#: One image: a length (trailing zeros past the last segment), then
#: nonzero-ended segments written at edge or random offsets.  Segments
#: may hold zeros, and the gaps between them are interior zero runs.
IMAGES = st.tuples(
    st.one_of(st.sampled_from((0, 1, 4096, 65536 + 3, MiB + 5, IMAGE_MAX)),
              st.integers(0, IMAGE_MAX)),
    st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGES), st.integers(0, IMAGE_MAX - 1)),
        st.binary(min_size=0, max_size=9000),
        st.integers(1, 255)), max_size=5))


def _image(spec) -> bytes:
    length, segments = spec
    image = bytearray(length)
    for offset, data, last in segments:
        data = (data + bytes([last]))[:max(0, length - offset)]
        image[offset:offset + len(data)] = data
    return bytes(image)


class TestStateHashAgainstNaiveMeasurement:
    @settings(max_examples=4, deadline=None)
    @given(st.binary(min_size=0, max_size=3 * 4096 + 17),
           st.integers(1, 3))
    def test_state_hash_is_sha256_of_the_naive_input(self, image, n_rules):
        snic = SNIC(n_cores=2, dram_bytes=16 * 1024 * 1024, key_seed=1234)
        config = NFConfig(
            name="measured",
            core_ids=(0,),
            memory_bytes=64 * 1024,
            initial_image=image,
            vpp=_rules(n_rules),
        )
        record = snic.record(snic.nf_launch(config))
        assert record.state_hash == _naive_digest(snic, record)

    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.tuples(IMAGES, st.sampled_from(("a", "b")),
                              st.integers(1, 2)), min_size=2, max_size=3))
    def test_launches_sharing_the_memo_match_the_naive_input(self, launches):
        """Several launches in one process, every one through the
        process-wide measurement memo: same names and rules with
        different content, runs across block, page and chunk edges,
        leading, interior and trailing zeros.  A relaunch of the first
        config after teardown is a memo hit and must still match."""
        snic = SNIC(n_cores=4, dram_bytes=16 * 1024 * 1024, key_seed=1234)
        configs = [
            NFConfig(name=name, core_ids=(core,), memory_bytes=64 * 1024,
                     initial_image=_image(spec), vpp=_rules(n_rules))
            for core, (spec, name, n_rules) in enumerate(launches)]
        nf_ids = []
        for config in configs:
            nf_ids.append(snic.nf_launch(config))
            record = snic.record(nf_ids[-1])
            assert record.state_hash == _naive_digest(snic, record)
        first = snic.record(nf_ids[0]).state_hash
        for nf_id in nf_ids:
            snic.nf_teardown(nf_id)
        record = snic.record(snic.nf_launch(configs[0]))
        assert record.state_hash == first == _naive_digest(snic, record)

    @pytest.mark.no_isosan
    def test_stale_bytes_change_the_measurement(self):
        """A ``scrub=False`` release leaves the last owner's bytes in
        the pages, and a relaunch of the same config over them must
        measure those bytes: the memo key holds every measured byte."""
        snic = SNIC(n_cores=2, dram_bytes=16 * 1024 * 1024, key_seed=1234)
        config = NFConfig(name="stale", core_ids=(0,), memory_bytes=64 * 1024,
                          initial_image=b"image", vpp=_rules(1))
        nf_id = snic.nf_launch(config)
        clean = snic.record(nf_id)
        # The function's run leaves state past its image, across the
        # first 64 KiB page edge and on the extent's last byte.
        snic.memory.write(clean.extent_base + 65536 - 3, b"runtime state")
        snic.memory.write(clean.extent_base + clean.extent_bytes - 1, b"\x01")
        snic.memory.release_pages(nf_id, scrub=False)
        snic.nf_teardown(nf_id)

        stale = snic.record(snic.nf_launch(config))
        assert stale.extent_base == clean.extent_base
        assert stale.state_hash != clean.state_hash
        assert stale.state_hash == _naive_digest(snic, stale)
