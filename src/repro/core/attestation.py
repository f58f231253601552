"""S-NIC remote attestation (§4.7, Appendix A).

The protocol, verbatim from the appendix:

1. The verifier sends a hello containing a nonce ``n``.
2. The function generates ``x``, computes ``g^x mod p``, and invokes
   ``nf_attest`` with a buffer holding ``(g, p, n, g^x mod p)``.  The
   instruction signs ``Hash(F's initial state) || g || p || n || g^x``
   with the attestation key AK.
3. The function replies with four parts: the values + hash, the
   hardware signature, AK_pub signed by EK_priv, and the vendor
   certificate for EK_pub.
4. The verifier checks hash, signatures, certificate chain, and nonce
   freshness, then replies with ``g^y mod p``.
5. Both sides derive the session key from ``g^(xy) mod p``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.core.errors import AttestationError
from repro.crypto.dh import DEFAULT_DH_PARAMS, DHParams, DHPrivate, DHPublic
from repro.crypto.keys import (
    AttestationKey,
    Certificate,
    EndorsementKey,
    quote_digest,
)
from repro.crypto.rsa import RSAPublicKey, rsa_verify
from repro.obs.cell import CELL


def _reject(reason: str) -> None:
    """Record the failed verdict in the audit chain, then raise.

    Keeping the emit and the raise in one helper guarantees every
    rejection path is witnessed (lint rule SNIC008 checks for exactly
    this pairing).
    """
    if CELL.audit.enabled:
        CELL.audit.append("attest.verdict", ok=False, reason=reason)
    raise AttestationError(reason)


def _encode_int(value: int) -> bytes:
    width = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(width, "big")


def quote_message(
    state_hash: bytes, params: DHParams, nonce: bytes, gx: int
) -> bytes:
    """The canonical byte string ``nf_attest`` signs."""
    return quote_digest(
        state_hash,
        _encode_int(params.g),
        _encode_int(params.p),
        nonce,
        _encode_int(gx),
    )


@dataclass(frozen=True)
class AttestationQuote:
    """The four-part message of Appendix A, step 3."""

    # Part one: the exchanged values plus the initial-state hash.
    state_hash: bytes
    params: DHParams
    nonce: bytes
    gx: int
    # Part two: the AK signature over quote_message(...).
    signature: bytes
    # Part three: AK_pub endorsed by EK (EK-signature carried inside).
    ak_public: RSAPublicKey
    ak_endorsement: bytes
    # Part four: the vendor certificate for EK_pub.
    ek_certificate: Certificate


class Verifier:
    """A remote party verifying S-NIC functions (and issuing nonces).

    The only trust root is the NIC vendor's CA public key.
    """

    def __init__(self, vendor_public: RSAPublicKey, seed: Optional[int] = None) -> None:
        self.vendor_public = vendor_public
        self._rng = random.Random(seed) if seed is not None else random.SystemRandom()
        self._outstanding: Set[bytes] = set()

    def hello(self) -> bytes:
        """Step 1: a fresh nonce."""
        nonce = self._rng.getrandbits(128).to_bytes(16, "big")
        self._outstanding.add(nonce)
        return nonce

    def verify(
        self,
        quote: AttestationQuote,
        expected_state_hash: Optional[bytes] = None,
    ) -> None:
        """Step 4's checks; raises :class:`AttestationError` on failure."""
        if quote.nonce not in self._outstanding:
            _reject("unknown or replayed nonce")
        # Chain: vendor CA -> EK certificate -> AK endorsement -> quote.
        if not quote.ek_certificate.verify(self.vendor_public):
            _reject("EK certificate not signed by the vendor CA")
        ek_public = quote.ek_certificate.subject_key
        endorsement_ok = _verify_ak_endorsement(
            ek_public, quote.ak_public, quote.ak_endorsement
        )
        if not endorsement_ok:
            _reject("AK not endorsed by the certified EK")
        message = quote_message(
            quote.state_hash, quote.params, quote.nonce, quote.gx
        )
        if not rsa_verify(quote.ak_public, message, quote.signature):
            _reject("quote signature invalid")
        if (
            expected_state_hash is not None
            and quote.state_hash != expected_state_hash
        ):
            _reject("function state hash does not match the expected image")
        self._outstanding.discard(quote.nonce)  # one-shot: prevents replay
        if CELL.audit.enabled:
            CELL.audit.append("attest.verdict", ok=True,
                              state_hash=quote.state_hash.hex())

    def complete_exchange(
        self, quote: AttestationQuote, expected_state_hash: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """Steps 4–5: verify, then return ``(g^y mod p, session_key)``."""
        self.verify(quote, expected_state_hash)
        private = quote.params.private(self._rng)
        gy = private.public().value
        peer = DHPublic(params=quote.params, value=quote.gx)
        return gy, private.session_key(peer)


def _verify_ak_endorsement(
    ek_public: RSAPublicKey, ak_public: RSAPublicKey, endorsement: bytes
) -> bool:
    width = ak_public.byte_length
    encoded = ak_public.n.to_bytes(width, "big") + ak_public.e.to_bytes(8, "big")
    return rsa_verify(ek_public, b"snic-ak:" + encoded, endorsement)


@dataclass
class FunctionAttestationSession:
    """The function's half of the exchange (steps 2, 3, 5).

    Created around an ``nf_attest`` invocation; keeps the ephemeral DH
    private value so the session key can be derived after the verifier
    replies.
    """

    quote: AttestationQuote
    _dh_private: DHPrivate

    def session_key(self, gy: int) -> bytes:
        peer = DHPublic(params=self._dh_private.params, value=gy)
        return self._dh_private.session_key(peer)


def build_quote(
    state_hash: bytes,
    ak: AttestationKey,
    ek: EndorsementKey,
    nonce: bytes,
    params: DHParams = DEFAULT_DH_PARAMS,
    rng: Optional[random.Random] = None,
) -> FunctionAttestationSession:
    """The hardware side of ``nf_attest``: sign and package the quote."""
    private = params.private(rng)
    gx = private.public().value
    message = quote_message(state_hash, params, nonce, gx)
    signature = ak.sign(message)
    quote = AttestationQuote(
        state_hash=state_hash,
        params=params,
        nonce=nonce,
        gx=gx,
        signature=signature,
        ak_public=ak.public,
        ak_endorsement=ak.ek_signature,
        ek_certificate=ek.certificate,
    )
    return FunctionAttestationSession(quote=quote, _dh_private=private)
