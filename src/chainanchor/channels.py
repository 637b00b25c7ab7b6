"""Simulated channel layer: key derivation, authenticated encryption,
message envelopes, and the logical clock.

Envelopes are recorded exactly as delivered, so tests can audit what an
actor actually received (byte-level anonymity checks) and can install a
tamper hook to corrupt traffic in transit.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ProtocolError
from .groupmath import canonical_encode, rand_bytes
from .serial import Record, omit_if_none

AEAD_NONCE_LEN = 12


def derive_key(tag: bytes, parts) -> bytes:
    """32-byte key from a domain tag and an ordered list of byte strings."""
    return hashlib.sha256(canonical_encode([b"kdf", tag, *parts])).digest()


def mac_tag(key: bytes, tag: bytes, parts) -> bytes:
    return hmac.new(key, canonical_encode([tag, *parts]), hashlib.sha256).digest()


def seal(key: bytes, plaintext: bytes, rng, aad: bytes = b"") -> bytes:
    """Authenticated encryption; framing is nonce || ciphertext+tag."""
    # Imported here, not at the top: only the sealed steps need
    # ``cryptography``, and importing it would slow every CLI start.
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    nonce = rand_bytes(rng, AEAD_NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def open_sealed(key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    if len(blob) < AEAD_NONCE_LEN + 16:
        raise ProtocolError("sealed message too short")
    nonce, ct = blob[:AEAD_NONCE_LEN], blob[AEAD_NONCE_LEN:]
    try:
        return AESGCM(key).decrypt(nonce, ct, aad)
    except Exception as exc:
        raise ProtocolError("sealed message failed authentication") from exc


@dataclass
class Envelope(Record):
    sender: str
    recipient: str
    step: str
    payload: bytes
    signature: Optional[tuple[int, int]] = omit_if_none()


class Transcript:
    """Ordered log of every envelope as delivered.

    ``tamper`` (test hook) may rewrite an envelope in transit; the log keeps
    the delivered version, which is what anonymity audits must inspect.
    """

    def __init__(self):
        self.envelopes: list[Envelope] = []
        self.tamper: Optional[Callable[[Envelope], Envelope]] = None

    def send(self, env: Envelope) -> Envelope:
        if self.tamper is not None:
            env = self.tamper(env)
        self.envelopes.append(env)
        return env

    def received_by(self, actor_id: str) -> bytes:
        return b"".join(e.payload for e in self.envelopes if e.recipient == actor_id)


@dataclass
class LogicalClock:
    """Monotone counter standing in for wall time (1 tick = 1 second)."""

    time: int = 0

    def now(self) -> int:
        return self.time

    def tick(self, seconds: int = 1) -> int:
        self.time += seconds
        return self.time
