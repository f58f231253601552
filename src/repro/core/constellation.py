"""Secure constellations: S-NIC functions + host enclaves (§4.7, Fig. 4b).

"Pairwise attestations allow a developer to build a constellation of
trusted computations spanning multiple S-NIC functions and host-level
hardware enclaves."  This module provides:

* :class:`SGXEnclave` — a behavioral host-enclave model: a measured
  computation whose quotes chain to an attestation-service CA (standing
  in for Intel's), with sealed private state invisible to the host OS.
* :class:`Constellation` — the builder: register nodes, establish
  pairwise mutually-attested encrypted channels, and send messages.
* :class:`PCIeTap` — the datacenter operator's snooping position on the
  NIC/host bus; the tests assert it sees only ciphertext.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.attestation import (
    FunctionAttestationSession,
    Verifier,
    build_quote,
)
from repro.core.errors import AttestationError
from repro.core.virtual_nic import VirtualNIC
from repro.crypto.dh import DEFAULT_DH_PARAMS, DHParams, xor_stream_encrypt
from repro.crypto.keys import AttestationKey, EndorsementKey, VendorCA
from repro.crypto.sha256 import sha256
from repro.obs.cell import CELL


class SGXEnclave:
    """A host-level trusted computation (behavioral SGX model).

    The enclave's *measurement* is the hash of its code; its quotes are
    signed by a per-platform attestation key endorsed by the attestation
    service's CA.  Private state written with :meth:`seal` is invisible
    to :meth:`host_os_view`, which models what a compromised host OS can
    read (enclave memory is encrypted in real SGX).
    """

    def __init__(
        self,
        name: str,
        code: bytes,
        attestation_service: VendorCA,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.measurement = sha256(code)
        self._platform_key: EndorsementKey = (
            attestation_service.provision_endorsement_key(
                f"sgx-platform-{name}", seed=seed
            )
        )
        self._ak = AttestationKey.generate(
            self._platform_key, seed=None if seed is None else seed + 1
        )
        self._sealed: Dict[str, bytes] = {}
        self._rng = random.Random(seed) if seed is not None else random.SystemRandom()

    # --- state ---------------------------------------------------------

    def seal(self, key: str, value: bytes) -> None:
        self._sealed[key] = value

    def unseal(self, key: str) -> bytes:
        return self._sealed[key]

    def host_os_view(self) -> Dict[str, bytes]:
        """What the (possibly malicious) host OS sees of enclave memory:
        opaque ciphertext-like digests, never the plaintext."""
        return {k: sha256(v) for k, v in self._sealed.items()}

    # --- attestation -----------------------------------------------------

    def attest(
        self, nonce: bytes, params: DHParams = DEFAULT_DH_PARAMS
    ) -> FunctionAttestationSession:
        return build_quote(
            state_hash=self.measurement,
            ak=self._ak,
            ek=self._platform_key,
            nonce=nonce,
            params=params,
            rng=self._rng if isinstance(self._rng, random.Random) else None,
        )


@dataclass
class SecureChannel:
    """An established, mutually-attested channel between two nodes."""

    a: str
    b: str
    key_at_a: bytes
    key_at_b: bytes
    messages_sent: int = 0

    @property
    def established(self) -> bool:
        return self.key_at_a == self.key_at_b


class PCIeTap:
    """The operator's bus tap: records every byte crossing NIC/host."""

    def __init__(self) -> None:
        self.captured: List[Tuple[str, str, bytes]] = []

    def observe(self, src: str, dst: str, wire_bytes: bytes) -> None:
        self.captured.append((src, dst, wire_bytes))


class Constellation:
    """A set of mutually-attesting trusted computations.

    Nodes are either S-NIC :class:`~repro.core.virtual_nic.VirtualNIC`
    handles or :class:`SGXEnclave` instances.  ``link`` runs the full
    bidirectional attestation of §4.7: each side plays verifier for the
    other; only if *both* quotes check out does a channel exist.
    """

    def __init__(
        self,
        snic_vendor_ca: VendorCA,
        sgx_service_ca: Optional[VendorCA] = None,
        tap: Optional[PCIeTap] = None,
        seed: int = 99,
    ) -> None:
        self.snic_vendor_ca = snic_vendor_ca
        self.sgx_service_ca = sgx_service_ca or snic_vendor_ca
        self.tap = tap or PCIeTap()
        self._seed = seed
        self._nodes: Dict[str, object] = {}
        self._expected_hash: Dict[str, bytes] = {}
        self.channels: Dict[Tuple[str, str], SecureChannel] = {}

    # ------------------------------------------------------------------

    def add_function(self, name: str, vnic: VirtualNIC) -> None:
        self._nodes[name] = vnic
        self._expected_hash[name] = vnic.state_hash

    def add_enclave(self, name: str, enclave: SGXEnclave) -> None:
        self._nodes[name] = enclave
        self._expected_hash[name] = enclave.measurement

    def _trust_root_for(self, node: object):
        if isinstance(node, SGXEnclave):
            return self.sgx_service_ca.public_key
        return self.snic_vendor_ca.public_key

    def _attest_one_way(
        self, prover_name: str, verifier_name: str, seed: int
    ) -> Tuple[bytes, bytes]:
        """Prover attests to verifier; returns (prover key, verifier key)."""
        prover = self._nodes[prover_name]
        verifier = Verifier(self._trust_root_for(prover), seed=seed)
        nonce = verifier.hello()
        session = prover.attest(nonce)
        gy, verifier_key = verifier.complete_exchange(
            session.quote, expected_state_hash=self._expected_hash[prover_name]
        )
        prover_key = session.session_key(gy)
        return prover_key, verifier_key

    def link(self, a: str, b: str) -> SecureChannel:
        """Bidirectional attestation between ``a`` and ``b`` (§4.7).

        Both directions must verify; the channel key is derived from the
        two per-direction keys so it depends on both attestations.
        """
        if a not in self._nodes or b not in self._nodes:
            raise KeyError("both endpoints must be registered first")
        key_a_to_b_at_a, key_a_to_b_at_b = self._attest_one_way(
            a, b, seed=self._seed
        )
        key_b_to_a_at_b, key_b_to_a_at_a = self._attest_one_way(
            b, a, seed=self._seed + 1
        )
        channel_key_at_a = sha256(key_a_to_b_at_a + key_b_to_a_at_a)
        channel_key_at_b = sha256(key_a_to_b_at_b + key_b_to_a_at_b)
        channel = SecureChannel(
            a=a, b=b, key_at_a=channel_key_at_a, key_at_b=channel_key_at_b
        )
        if not channel.established:
            if CELL.audit.enabled:
                CELL.audit.append("attest.verdict", ok=False,
                                  reason="key agreement failed", peer_a=a,
                                  peer_b=b)
            raise AttestationError("key agreement failed")
        self.channels[(a, b)] = channel
        self.channels[(b, a)] = channel
        if CELL.audit.enabled:
            CELL.audit.append("attest.channel", peer_a=a, peer_b=b)
        return channel

    def send(self, src: str, dst: str, plaintext: bytes) -> bytes:
        """Encrypt and 'transmit' a message; the tap sees ciphertext.

        Returns the plaintext as decrypted by the receiver (round-trip
        proof).  Raises if no attested channel exists.
        """
        channel = self.channels.get((src, dst))
        if channel is None:
            if CELL.audit.enabled:
                CELL.audit.append("attest.verdict", ok=False,
                                  reason="no attested channel", peer_a=src,
                                  peer_b=dst)
            raise AttestationError(
                f"no attested channel between {src!r} and {dst!r}"
            )
        nonce = channel.messages_sent
        wire = xor_stream_encrypt(channel.key_at_a, plaintext, nonce=nonce)
        self.tap.observe(src, dst, wire)
        channel.messages_sent += 1
        return xor_stream_encrypt(channel.key_at_b, wire, nonce=nonce)
