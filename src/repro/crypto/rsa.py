"""RSA signatures with Miller–Rabin key generation (from scratch).

S-NIC burns an endorsement key pair (EK) into each NIC and generates an
attestation key pair (AK) at boot (Appendix A).  ``nf_attest`` signs the
function-state hash with the AK; the microbenchmarks (Figure 6) report
~5.6 ms per RSA signing operation on the Marvell security co-processor.
That cost comes from :mod:`repro.core.timing`'s calibrated clock, never
from host time.

We implement textbook RSA with a deterministic full-domain-hash-style
padding: ``sig = FDH(message)^d mod n``, computed with the CRT (Garner
recombination over ``p`` and ``q``), which gives the same integer.  Key
generation uses Miller–Rabin primality testing.  Default 1024-bit keys
keep tests fast; sizes are configurable.

Seeded key generation is a pure function returning frozen dataclasses, so
each ``(bits, seed)`` pair is computed once per process and the same
:class:`RSAKeyPair` is returned after that.  Unseeded calls draw from
``SystemRandom`` and are never cached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.crypto.sha256 import sha256

_MILLER_RABIN_ROUNDS = 32
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller–Rabin with trial division by small primes first."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 as d * 2^r with d odd.
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime too small to be useful")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _modinv(a: int, m: int) -> int:
    """Modular inverse via extended Euclid; raises if gcd(a, m) != 1."""
    g, x = _egcd(a, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


@dataclass(frozen=True)
class RSAPublicKey:
    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """SHA-256 over (n, e) — used to identify keys in certificates."""
        width = self.byte_length
        return sha256(self.n.to_bytes(width, "big") + self.e.to_bytes(8, "big"))


@dataclass(frozen=True)
class RSAPrivateKey:
    """``d`` plus the CRT components ``rsa_sign`` exponentiates with."""

    n: int
    d: int
    p: int
    q: int
    dp: int  # d mod (p - 1)
    dq: int  # d mod (q - 1)
    qinv: int  # q^-1 mod p

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RSAKeyPair:
    public: RSAPublicKey
    private: RSAPrivateKey


def rsa_generate(bits: int = 1024, seed: Optional[int] = None) -> RSAKeyPair:
    """Generate an RSA key pair of roughly ``bits`` modulus bits.

    ``seed`` makes generation deterministic (tests, reproducible NIC
    provisioning) and returns the one key pair this process computed for
    ``(bits, seed)``; omit it for fresh system randomness.
    """
    if seed is None:
        return _generate(bits, random.SystemRandom())
    return _generate_seeded(bits, seed)


@lru_cache(maxsize=64)
def _generate_seeded(bits: int, seed: int) -> RSAKeyPair:
    """Seeded generation is pure and its result frozen, so it is shared."""
    return _generate(bits, random.Random(seed))


def _generate(bits: int, rng: random.Random) -> RSAKeyPair:
    e = 65537
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = _modinv(e, phi)
        private = RSAPrivateKey(
            n=n, d=d, p=p, q=q, dp=d % (p - 1), dq=d % (q - 1),
            qinv=_modinv(q, p),
        )
        return RSAKeyPair(public=RSAPublicKey(n=n, e=e), private=private)


def _fdh(message: bytes, width: int) -> int:
    """Full-domain hash: expand SHA-256(message) to ``width`` bytes < n."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < width:
        blocks.append(sha256(counter.to_bytes(4, "big") + message))
        counter += 1
    digest = b"".join(blocks)[:width]
    # Clear the top byte so the value is guaranteed below the modulus.
    return int.from_bytes(b"\x00" + digest[1:], "big")


def rsa_sign(private: RSAPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` (FDH-then-exponentiate, via the CRT)."""
    width = private.byte_length
    representative = _fdh(message, width)
    # Garner: the unique s < n with s = m1 (mod p) and s = m2 (mod q),
    # i.e. representative^d mod n.
    m1 = pow(representative, private.dp, private.p)
    m2 = pow(representative, private.dq, private.q)
    signature = m2 + (private.qinv * (m1 - m2)) % private.p * private.q
    return signature.to_bytes(width, "big")


def rsa_verify(public: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """True when ``signature`` is a valid signature of ``message``."""
    width = public.byte_length
    if len(signature) != width:
        return False
    value = int.from_bytes(signature, "big")
    if value >= public.n:
        return False
    recovered = pow(value, public.e, public.n)
    return recovered == _fdh(message, width)
