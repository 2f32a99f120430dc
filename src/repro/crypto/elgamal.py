"""Toy ElGamal KEM + XOR-stream data encapsulation.

Key encapsulation runs in the multiplicative group of a fixed 256-bit
prime (a known safe prime); the shared group element is hashed with
SHA-256 into a keystream that XORs the payload.  Structurally this is a
hybrid ElGamal cryptosystem, which is all the Section 4.4 protocol
needs for its *layering* semantics.

.. warning:: simulation-grade only — see :mod:`repro.crypto`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.exceptions import CryptoError
from repro.utils.rng import RngLike, ensure_rng

#: A 256-bit safe prime (p = 2q + 1): the group modulus.
PRIME = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC27
#: Generator of the quadratic-residue subgroup.
GENERATOR = 4


@dataclass(frozen=True)
class ElGamalKeyPair:
    """A private exponent and its public group element."""

    private_key: int
    public_key: int


@dataclass(frozen=True)
class Ciphertext:
    """KEM share plus XOR-encrypted payload."""

    kem_share: int
    body: bytes


def _random_exponent(rng) -> int:
    # 248 random bits — comfortably inside the subgroup order.
    return int.from_bytes(rng.bytes(31), "big") | 1


def draw_ephemeral(rng: RngLike = None) -> int:
    """Draw one KEM ephemeral exponent — exactly the randomness a single
    :func:`encrypt` call consumes.

    Batched protocol drivers
    (:func:`repro.protocols.secure.run_secure_protocol`) burn these at
    the per-message realization's encryption points so the hop draws
    that follow stay in draw-order lockstep with it; the batched
    encryptions then use fresh draws, which is sound because the
    protocol's outputs are invariant to encryption randomness.
    """
    return _random_exponent(ensure_rng(rng))


def generate_keypair(rng: RngLike = None) -> ElGamalKeyPair:
    """Generate a fresh keypair."""
    generator = ensure_rng(rng)
    private = _random_exponent(generator)
    public = pow(GENERATOR, private, PRIME)
    return ElGamalKeyPair(private_key=private, public_key=public)


def _keystream(shared: int, length: int) -> bytes:
    """SHA-256-based expandable keystream from the shared group element."""
    stream = b""
    counter = 0
    shared_bytes = shared.to_bytes(32, "big")
    while len(stream) < length:
        stream += hashlib.sha256(shared_bytes + counter.to_bytes(4, "big")).digest()
        counter += 1
    return stream[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    # Single big-int XOR instead of a per-byte Python loop — identical
    # bytes, ~30x less interpreter overhead on typical report sizes.
    length = len(data)
    combined = int.from_bytes(data, "big") ^ int.from_bytes(stream[:length], "big")
    return combined.to_bytes(length, "big")


def encrypt(public_key: int, plaintext: bytes, rng: RngLike = None) -> Ciphertext:
    """Encrypt ``plaintext`` to ``public_key``."""
    if not isinstance(plaintext, (bytes, bytearray)):
        raise CryptoError("plaintext must be bytes")
    generator = ensure_rng(rng)
    ephemeral = _random_exponent(generator)
    kem_share = pow(GENERATOR, ephemeral, PRIME)
    shared = pow(public_key, ephemeral, PRIME)
    body = _xor(bytes(plaintext), _keystream(shared, len(plaintext)))
    # Append a short integrity tag so wrong-key decryption is detected.
    tag = hashlib.sha256(shared.to_bytes(32, "big") + bytes(plaintext)).digest()[:8]
    return Ciphertext(kem_share=kem_share, body=body + tag)


def decrypt(private_key: int, ciphertext: Ciphertext) -> bytes:
    """Decrypt a :class:`Ciphertext`; raises on a wrong key (bad tag)."""
    if not isinstance(ciphertext, Ciphertext):
        raise CryptoError("decrypt expects a Ciphertext")
    if len(ciphertext.body) < 8:
        raise CryptoError("ciphertext too short")
    shared = pow(ciphertext.kem_share, private_key, PRIME)
    payload, tag = ciphertext.body[:-8], ciphertext.body[-8:]
    plaintext = _xor(payload, _keystream(shared, len(payload)))
    expected = hashlib.sha256(shared.to_bytes(32, "big") + plaintext).digest()[:8]
    if expected != tag:
        raise CryptoError("decryption failed: wrong key or corrupted ciphertext")
    return plaintext
