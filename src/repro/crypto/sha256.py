"""SHA-256 (FIPS 180-4): ``hashlib`` digests plus a from-scratch reference.

S-NIC's ``nf_launch`` builds a cumulative SHA-256 hash over a function's
initial state (§4.6), and the microbenchmarks of Appendix C time SHA-256
digesting on the NIC's security co-processor.  This module provides the
digest itself; :mod:`repro.core.timing` layers the calibrated clock on top,
so the host's hashing speed never reaches a simulated number.

:func:`sha256` and :func:`sha256_hex` always go through ``hashlib`` (same
algorithm, C speed).  :class:`SHA256` is the pure-Python implementation,
kept as the reference: the test suite checks it against the FIPS vectors
and checks ``hashlib`` against it at every padding boundary.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H_INIT = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _pad(message_len: int) -> bytes:
    """The FIPS 180-4 padding for a message of ``message_len`` bytes."""
    padding = b"\x80"
    padding += b"\x00" * ((56 - (message_len + 1) % 64) % 64)
    padding += struct.pack("!Q", message_len * 8)
    return padding


def _compress(state: List[int], block: bytes) -> List[int]:
    """One SHA-256 compression round over a 64-byte block."""
    w = list(struct.unpack("!16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & _MASK
        h, g, f, e = g, f, e, (d + temp1) & _MASK
        d, c, b, a = c, b, a, (temp1 + temp2) & _MASK

    return [(s + v) & _MASK for s, v in zip(state, (a, b, c, d, e, f, g, h))]


class SHA256:
    """Incremental SHA-256 hasher (pure Python, the tested reference)."""

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_H_INIT)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA256":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._state = _compress(self._state, self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def digest(self) -> bytes:
        # Finalize on a copy so update() can continue afterwards.
        state = list(self._state)
        tail = self._buffer + _pad(self._length)
        for offset in range(0, len(tail), 64):
            state = _compress(state, tail[offset : offset + 64])
        return struct.pack("!8I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (``hashlib``; equal to :class:`SHA256`)."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    return sha256(data).hex()
