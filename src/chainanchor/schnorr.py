"""Schnorr signatures over the order-q subgroup shared with the membership
scheme.

Used for everything that is *not* a membership proof: actor identity keys,
self-generated transaction keys, and disclosure statements.  Nonces are
derived from the secret key and message, so signing is deterministic and the
simulation stays replayable without consuming the world randomness stream.
Powers of the fixed generator ``u`` run on a cached comb; powers of a
public key stay builtin ``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupmath import (
    canonical_encode,
    fiat_shamir_challenge,
    hash_expand,
    int_to_bytes,
    modexp,
    rand_range,
    shared,
)
from .serial import Record


@dataclass(frozen=True)
class SigningGroup(Record):
    """Public (p, q, u) parameters every plain signature lives in."""

    p: int
    q: int
    u: int

    def __post_init__(self):
        if not 1 < self.q < self.p or (self.p - 1) % self.q:
            raise ValueError("need 1 < q < p with q | (p - 1)")
        if not 1 < self.u < self.p:
            raise ValueError("need 1 < u < p")

    def transcript_bytes(self) -> bytes:
        return canonical_encode(
            [int_to_bytes(self.p), int_to_bytes(self.q), int_to_bytes(self.u)])


@dataclass(frozen=True)
class SchnorrKeypair(Record):
    group: SigningGroup
    public: int       # u^secret mod p
    secret: int


def generate_keypair(group: SigningGroup, rng) -> SchnorrKeypair:
    secret = rand_range(rng, 1, group.q)
    return SchnorrKeypair(group, modexp(group.u, secret % group.q, group.p,
                                        group.q.bit_length()), secret)


def sign(keypair: SchnorrKeypair, message: bytes):
    """Sign ``message``; returns the (challenge, response) pair."""
    g = keypair.group
    nonce_seed = canonical_encode(
        [b"schnorr-nonce", int_to_bytes(keypair.secret), message])
    digest = hash_expand(nonce_seed, (g.q.bit_length() + 128) // 8)
    r = 1 + int.from_bytes(digest, "big") % (g.q - 1)
    t = modexp(g.u, r % g.q, g.p, g.q.bit_length())
    c = _challenge(g, keypair.public, t, message)
    s = (r + c * keypair.secret) % g.q
    return (c, s)


def verify(group: SigningGroup, public: int, message: bytes, signature) -> bool:
    c, s = signature
    if not 0 <= s < group.q:
        return False
    # public's exponent reduces mod q once public passes the check, the
    # verdict that counts; the exponent is non-negative.
    in_group, t = shared([(public, group.p, group.q),
                          (((group.u, s, group.q.bit_length()),
                            (public, -c % group.q, None)), group.p)])
    return in_group and _challenge(group, public, t, message) == c


def _challenge(group: SigningGroup, public: int, t: int, message: bytes) -> int:
    return fiat_shamir_challenge(
        [b"schnorr-signature", group.transcript_bytes(), int_to_bytes(public),
         int_to_bytes(t), message],
        group.q.bit_length() - 1 if group.q.bit_length() <= 256 else 256,
    )
