"""Tests for the crypto substrate (SHA-256, RSA, DH, keys)."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import (
    DEFAULT_DH_PARAMS,
    DHParams,
    xor_stream_encrypt,
)
from repro.crypto.keys import (
    AttestationKey,
    VendorCA,
    quote_digest,
)
from repro.crypto.rsa import (
    _fdh,
    _sign,
    _is_probable_prime,
    _modinv,
    _random_prime,
    rsa_generate,
    rsa_sign,
    rsa_verify,
)
from repro.crypto.sha256 import SHA256, sha256, sha256_hex

import random


class TestSHA256:
    # FIPS 180-4 test vectors.
    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ]

    @pytest.mark.parametrize("message,digest", VECTORS)
    def test_fips_vectors(self, message, digest):
        assert SHA256(message).hexdigest() == digest
        assert sha256_hex(message) == digest

    def test_million_a(self):
        # The classic one-million-'a' vector, via incremental updates.
        hasher = SHA256()
        for _ in range(1000):
            hasher.update(b"a" * 1000)
        assert (
            hasher.hexdigest()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )

    @pytest.mark.parametrize("length", [54, 55, 56, 57, 63, 64, 65, 119, 120])
    def test_padding_boundaries(self, length):
        message = bytes(range(256))[:length] * 1
        assert SHA256(message).digest() == hashlib.sha256(message).digest()

    def test_hashlib_matches_reference_across_padding_boundaries(self):
        # 0..200 bytes crosses the 55/56/63/64/65-byte padding edges of
        # one, two and three blocks.
        data = bytes((7 * i + 3) & 0xFF for i in range(200))
        for length in range(201):
            message = data[:length]
            assert sha256(message) == SHA256(message).digest(), length
            assert sha256_hex(message) == SHA256(message).hexdigest()

    def test_incremental_equals_oneshot(self):
        h = SHA256()
        h.update(b"hello ")
        h.update(b"world")
        assert h.digest() == SHA256(b"hello world").digest()

    def test_digest_does_not_finalize(self):
        h = SHA256(b"ab")
        first = h.digest()
        assert h.digest() == first
        h.update(b"c")
        assert h.digest() == SHA256(b"abc").digest()

    def test_fast_path_matches_pure(self):
        blob = b"z" * (1 << 17)
        assert sha256(blob) == SHA256(blob).digest()

    @settings(max_examples=30)
    @given(st.binary(max_size=300))
    def test_matches_hashlib_property(self, data):
        assert SHA256(data).digest() == hashlib.sha256(data).digest()


class TestRSA:
    def test_generate_deterministic(self):
        a = rsa_generate(512, seed=42)
        b = rsa_generate(512, seed=42)
        assert a.public == b.public

    def test_sign_verify(self):
        kp = rsa_generate(512, seed=1)
        sig = rsa_sign(kp.private, b"message")
        assert rsa_verify(kp.public, b"message", sig)

    def test_tampered_message_fails(self):
        kp = rsa_generate(512, seed=1)
        sig = rsa_sign(kp.private, b"message")
        assert not rsa_verify(kp.public, b"messagE", sig)

    def test_tampered_signature_fails(self):
        # Every single-bit flip of a (CRT-computed) signature is rejected.
        kp = rsa_generate(512, seed=1)
        sig = int.from_bytes(rsa_sign(kp.private, b"message"), "big")
        width = kp.public.byte_length
        for bit in range(8 * width):
            flipped = (sig ^ (1 << bit)).to_bytes(width, "big")
            assert not rsa_verify(kp.public, b"message", flipped), bit

    def test_wrong_key_fails(self):
        kp1 = rsa_generate(512, seed=1)
        kp2 = rsa_generate(512, seed=2)
        sig = rsa_sign(kp1.private, b"m")
        assert not rsa_verify(kp2.public, b"m", sig)

    def test_wrong_length_signature_fails(self):
        kp = rsa_generate(512, seed=1)
        assert not rsa_verify(kp.public, b"m", b"\x00" * 10)

    def test_signature_length(self):
        kp = rsa_generate(512, seed=3)
        assert len(rsa_sign(kp.private, b"x")) == kp.private.byte_length

    def test_fingerprint_stable(self):
        kp = rsa_generate(512, seed=4)
        assert kp.public.fingerprint() == kp.public.fingerprint()

    def test_seeded_generation_is_computed_once(self):
        assert rsa_generate(1024, seed=7) is rsa_generate(1024, seed=7)

    def test_unseeded_generation_is_fresh(self):
        a = rsa_generate(512)
        b = rsa_generate(512)
        assert a.public.n != b.public.n

    # sha256 of the big-endian moduli an S-NIC built with ``key_seed=7``
    # uses (vendor CA, EK, AK): seeded keys must never drift.
    MODULUS_DIGESTS = {
        7: "8c1941e23d1c59ed97efe6289b1552bb5d98e8e5db66843eef504a2d7226c98f",
        8: "54556ea0f5b0d611aae258aa797e23aab8f490ada20b5a31e842f5df20c0b856",
        9: "9953b5708c75b9b327134fc465bd3cb2c2ccf96fa4018ef8e01062f089e18b9a",
    }

    @pytest.mark.parametrize("seed", sorted(MODULUS_DIGESTS))
    def test_seeded_modulus_known_answer(self, seed):
        public = rsa_generate(1024, seed=seed).public
        modulus = public.n.to_bytes(public.byte_length, "big")
        assert hashlib.sha256(modulus).hexdigest() == self.MODULUS_DIGESTS[seed]

    @pytest.mark.parametrize("seed", [7, 8])
    def test_crt_signature_equals_textbook(self, seed):
        kp = rsa_generate(1024, seed=seed)
        private, width = kp.private, kp.private.byte_length
        for i in range(64):
            message = b"quote-%d" % i + bytes(i)
            textbook = pow(_fdh(message, width), private.d, private.n)
            signature = rsa_sign(private, message)
            assert signature == textbook.to_bytes(width, "big")
            assert rsa_verify(kp.public, message, signature)

    @pytest.mark.parametrize("seed", [11, None])
    def test_repeated_signature_is_a_cache_hit_equal_to_textbook(self, seed):
        """A seeded or a fresh key: the second ``rsa_sign`` of the same
        message comes from the memo, byte-equal to ``pow(fdh, d, n)``."""
        kp = rsa_generate(512, seed=seed)
        private, width = kp.private, kp.private.byte_length
        message = b"memoised-quote-%r" % seed
        textbook = pow(_fdh(message, width), private.d,
                       private.n).to_bytes(width, "big")
        first = rsa_sign(private, message)
        before = _sign.cache_info()
        second = rsa_sign(private, message)
        after = _sign.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert first == second == textbook
        assert rsa_verify(kp.public, message, second)

    @pytest.mark.parametrize("prime", [2, 3, 5, 101, 104729, 2**31 - 1])
    def test_miller_rabin_accepts_primes(self, prime):
        assert _is_probable_prime(prime, random.Random(0))

    @pytest.mark.parametrize("composite", [1, 4, 561, 1105, 104729 * 3, 2**32])
    def test_miller_rabin_rejects_composites(self, composite):
        # 561 and 1105 are Carmichael numbers.
        assert not _is_probable_prime(composite, random.Random(0))

    def test_random_prime_has_exact_bits(self):
        p = _random_prime(64, random.Random(7))
        assert p.bit_length() == 64

    def test_modinv(self):
        assert (_modinv(3, 11) * 3) % 11 == 1

    def test_modinv_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            _modinv(4, 8)


class TestDH:
    def test_shared_secret_agreement(self):
        params = DHParams(g=2, p=0xFFFFFFFB)  # small prime for speed
        alice = params.private(random.Random(1))
        bob = params.private(random.Random(2))
        assert alice.shared_secret(bob.public()) == bob.shared_secret(alice.public())

    def test_session_keys_match(self):
        params = DHParams(g=2, p=0xFFFFFFFB)
        alice = params.private(random.Random(1))
        bob = params.private(random.Random(2))
        assert alice.session_key(bob.public()) == bob.session_key(alice.public())

    def test_default_params_are_rfc3526(self):
        assert DEFAULT_DH_PARAMS.g == 2
        assert DEFAULT_DH_PARAMS.p.bit_length() == 1536

    def test_rejects_degenerate_public(self):
        from repro.crypto.dh import DHPublic

        params = DHParams(g=2, p=0xFFFFFFFB)
        alice = params.private(random.Random(1))
        with pytest.raises(ValueError):
            alice.shared_secret(DHPublic(params=params, value=1))

    def test_rejects_params_mismatch(self):
        from repro.crypto.dh import DHPublic

        params = DHParams(g=2, p=0xFFFFFFFB)
        other = DHParams(g=5, p=0xFFFFFFFB)
        alice = params.private(random.Random(1))
        with pytest.raises(ValueError):
            alice.shared_secret(DHPublic(params=other, value=12345))

    def test_xor_stream_roundtrip(self):
        key = b"k" * 32
        message = b"the quick brown fox" * 7
        wire = xor_stream_encrypt(key, message, nonce=3)
        assert wire != message
        assert xor_stream_encrypt(key, wire, nonce=3) == message

    def test_xor_stream_nonce_separates(self):
        key = b"k" * 32
        a = xor_stream_encrypt(key, b"same message", nonce=1)
        b = xor_stream_encrypt(key, b"same message", nonce=2)
        assert a != b


class TestKeyHierarchy:
    def test_certificate_chain(self):
        ca = VendorCA(key_bits=512, seed=10)
        ek = ca.provision_endorsement_key("dev-1", seed=11)
        assert ek.certificate.verify(ca.public_key)

    def test_certificate_wrong_ca_fails(self):
        ca = VendorCA(key_bits=512, seed=10)
        other = VendorCA(key_bits=512, seed=20)
        ek = ca.provision_endorsement_key("dev-1", seed=11)
        assert not ek.certificate.verify(other.public_key)

    def test_ak_endorsement(self):
        ca = VendorCA(key_bits=512, seed=10)
        ek = ca.provision_endorsement_key("dev-1", seed=11)
        ak = AttestationKey.generate(ek, key_bits=512, seed=12)
        assert ak.verify_endorsement(ek.public)

    def test_ak_endorsement_wrong_ek_fails(self):
        ca = VendorCA(key_bits=512, seed=10)
        ek1 = ca.provision_endorsement_key("dev-1", seed=11)
        ek2 = ca.provision_endorsement_key("dev-2", seed=13)
        ak = AttestationKey.generate(ek1, key_bits=512, seed=12)
        assert not ak.verify_endorsement(ek2.public)

    def test_quote_digest_prefix_unambiguous(self):
        # (b"ab", b"c") must not collide with (b"a", b"bc").
        assert quote_digest(b"ab", b"c") != quote_digest(b"a", b"bc")

    def test_quote_digest_deterministic(self):
        assert quote_digest(b"x", b"y") == quote_digest(b"x", b"y")
