"""Shared fixtures for the S-NIC reproduction test suite."""

from __future__ import annotations

import pytest

from repro.analysis import isosan
from repro.core import NFConfig, NICOS, SNIC
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix
from repro.obs.bench import isolate

MB = 1024 * 1024


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_isosan: run this test without the IsoSan runtime sanitizer "
        "(for tests that deliberately exercise unmediated access)")


@pytest.fixture(autouse=True)
def isosan_enabled(request):
    """Run every test under the IsoSan runtime sanitizer.

    The whole suite doubles as IsoSan's regression corpus: any test that
    drives the hardware models through an isolation-violating path fails
    with :class:`~repro.core.errors.IsolationViolation` instead of
    silently succeeding.  Tests that *deliberately* model unmediated
    access (the §3.3 commodity attacks operate as the attacker) opt out
    with ``@pytest.mark.no_isosan``; ``REPRO_ISOSAN=0`` disables the
    fixture process-wide (one CI leg runs with it on explicitly).
    """
    if request.node.get_closest_marker("no_isosan") is not None \
            or not isosan.enabled_by_env(default=True):
        yield None
        return
    with isosan.sanitized() as san:
        yield san


@pytest.fixture(autouse=True)
def fresh_cell_state():
    """Run every test in a fresh cell state, as every experiment cell
    runs (:func:`repro.obs.bench.isolate`).

    Components mint per-instance serial labels (``l2#7``) from the
    cell's registry, and the tracer and audit log are the cell's too;
    without this, each test's instruments, records and hash-chain heads
    would depend on what every *earlier* test did.
    """
    isolate()
    yield
    isolate()


@pytest.fixture
def snic():
    """A small S-NIC with deterministic keys (fast to construct)."""
    return SNIC(n_cores=4, dram_bytes=256 * MB, key_seed=1234)


@pytest.fixture
def nic_os(snic):
    return NICOS(snic)


@pytest.fixture
def basic_config():
    """A minimal single-core launch request."""
    return NFConfig(
        name="test-nf",
        core_ids=(0,),
        memory_bytes=4 * MB,
        initial_image=b"\x90" * 1024,
        vpp=VPPConfig(rules=[MatchRule(dst_prefix=Prefix.parse("9.9.9.9/32"))]),
    )


@pytest.fixture
def sample_packet():
    return Packet.make(
        src_ip="10.0.0.1",
        dst_ip="9.9.9.9",
        src_port=12345,
        dst_port=80,
        payload=b"payload-bytes",
    )
