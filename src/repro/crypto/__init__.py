"""Cryptographic substrate for S-NIC attestation (Appendix A).

No external crypto dependencies: SHA-256 (:mod:`repro.crypto.sha256`;
digests come from ``hashlib``, and the from-scratch ``SHA256`` class is
the reference the tests check them against), classic finite-field
Diffie–Hellman (:mod:`repro.crypto.dh`), RSA signatures with Miller–Rabin
key generation and CRT signing (:mod:`repro.crypto.rsa`), and the
endorsement/attestation key hierarchy with vendor certificates
(:mod:`repro.crypto.keys`).  Seeded key pairs are computed once per
process; unseeded ones are always fresh.

These are simulation-grade implementations: correct algorithms with small
default key sizes chosen for test speed, not hardened production crypto.
The simulated cost of every operation comes from
:mod:`repro.core.timing`, never from host time.
"""

from repro.crypto.sha256 import sha256, sha256_hex
from repro.crypto.chacha20 import chacha20_block, chacha20_xor
from repro.crypto.dh import DHParams, DHPrivate, DHPublic, DEFAULT_DH_PARAMS
from repro.crypto.rsa import RSAKeyPair, rsa_generate, rsa_sign, rsa_verify
from repro.crypto.keys import (
    AttestationKey,
    EndorsementKey,
    VendorCA,
    Certificate,
)

__all__ = [
    "AttestationKey",
    "Certificate",
    "DEFAULT_DH_PARAMS",
    "DHParams",
    "DHPrivate",
    "DHPublic",
    "EndorsementKey",
    "RSAKeyPair",
    "VendorCA",
    "chacha20_block",
    "chacha20_xor",
    "rsa_generate",
    "rsa_sign",
    "rsa_verify",
    "sha256",
    "sha256_hex",
]
