import hmac
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainanchor import schnorr
from chainanchor.channels import (
    Envelope,
    LogicalClock,
    Transcript,
    derive_key,
    mac_tag,
    open_sealed,
    seal,
)
from chainanchor.errors import ProtocolError
from chainanchor.groupmath import canonical_encode, hash_expand, int_to_bytes
from chainanchor.rng import DeterministicRng
from chainanchor.world import World


@pytest.fixture(scope="module")
def group(desk_gpk):
    return schnorr.SigningGroup(desk_gpk.p, desk_gpk.q, desk_gpk.u)


def test_sign_verify(group):
    rng = random.Random(1)
    kp = schnorr.generate_keypair(group, rng)
    sig = schnorr.sign(kp, b"hello")
    assert schnorr.verify(group, kp.public, b"hello", sig)
    assert not schnorr.verify(group, kp.public, b"other", sig)
    assert not schnorr.verify(group, kp.public, b"hello", (sig[0] + 1, sig[1]))
    assert not schnorr.verify(group, kp.public, b"hello", (sig[0], sig[1] + 1))
    other = schnorr.generate_keypair(group, rng)
    assert not schnorr.verify(group, other.public, b"hello", sig)


def test_identity_public_key_never_verifies(group):
    # Under the public key 1, t = u^s for every s: anyone could sign.
    s = 12345
    c = schnorr._challenge(group, 1, pow(group.u, s, group.p), b"m")
    assert not schnorr.verify(group, 1, b"m", (c, s))


def test_signing_deterministic(group):
    kp = schnorr.generate_keypair(group, random.Random(2))
    assert schnorr.sign(kp, b"m") == schnorr.sign(kp, b"m")
    assert schnorr.sign(kp, b"m") != schnorr.sign(kp, b"m2")


def test_keypair_doc_round_trip(group):
    kp = schnorr.generate_keypair(group, random.Random(3))
    assert schnorr.SchnorrKeypair.from_doc(kp.to_doc()) == kp


class _Draws:
    """An rng whose draws are all ``x``; ``generate_keypair`` then picks the
    secret 1 + x."""

    def __init__(self, x):
        self.x = x

    def getrandbits(self, _bits):
        return self.x


def _reference_sign(kp, message):
    """``schnorr.sign`` with builtin ``pow`` for the power of ``u``."""
    g = kp.group
    nonce_seed = canonical_encode(
        [b"schnorr-nonce", int_to_bytes(kp.secret), message])
    digest = hash_expand(nonce_seed, (g.q.bit_length() + 128) // 8)
    r = 1 + int.from_bytes(digest, "big") % (g.q - 1)
    c = schnorr._challenge(g, kp.public, pow(g.u, r, g.p), message)
    return c, (r + c * kp.secret) % g.q


def _reference_verify(group, public, message, signature):
    """``schnorr.verify`` with builtin ``pow`` for every power."""
    c, s = signature
    if not (1 <= public < group.p and 0 <= s < group.q):
        return False
    if pow(public, group.q, group.p) != 1:
        return False
    try:
        t = pow(group.u, s, group.p) * pow(public, -c, group.p) % group.p
    except ValueError:
        return False
    return schnorr._challenge(group, public, t, message) == c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_schnorr_matches_builtin_pow_reference(group, data):
    p, q = group.p, group.q
    secret = data.draw(st.one_of(st.sampled_from([1, q - 1]),
                                 st.integers(1, q - 1)), label="secret")
    message = data.draw(st.binary(max_size=40), label="message")
    kp = schnorr.generate_keypair(group, _Draws(secret - 1))
    assert kp.secret == secret
    assert kp.public == pow(group.u, secret, p)
    sig = schnorr.sign(kp, message)
    assert sig == _reference_sign(kp, message)

    c, s = sig
    outside = 2 if pow(2, q, p) != 1 else p - 1
    assert pow(outside, q, p) != 1
    cases = [(kp.public, sig, True),
             (kp.public, (c + 1, s), False), (kp.public, (c, (s + 1) % q), False),
             (0, sig, False), (p, sig, False), (outside, sig, False)]
    for public, signature, verdict in cases:
        assert schnorr.verify(group, public, message, signature) is verdict
        assert _reference_verify(group, public, message, signature) is verdict


def test_seal_open_round_trip():
    rng = random.Random(4)
    key = derive_key(b"test", [b"secret"])
    blob = seal(key, b"payload bytes", rng, aad=b"session-1")
    assert open_sealed(key, blob, aad=b"session-1") == b"payload bytes"


def test_seal_tamper_rejected():
    rng = random.Random(5)
    key = derive_key(b"test", [b"secret"])
    blob = seal(key, b"payload", rng)
    flipped = bytes([blob[0] ^ 1]) + blob[1:]
    with pytest.raises(ProtocolError):
        open_sealed(key, flipped)
    with pytest.raises(ProtocolError):
        open_sealed(derive_key(b"test", [b"wrong"]), blob)
    with pytest.raises(ProtocolError):
        open_sealed(key, blob, aad=b"different")
    with pytest.raises(ProtocolError):
        open_sealed(key, b"short")


def test_mac_tags():
    key = derive_key(b"mac", [b"k"])
    a = mac_tag(key, b"confirm", [b"x"])
    assert hmac.compare_digest(a, mac_tag(key, b"confirm", [b"x"]))
    assert not hmac.compare_digest(a, mac_tag(key, b"confirm", [b"y"]))


def test_deterministic_rng_stream():
    a, b = DeterministicRng(7), DeterministicRng(7)
    assert [a.getrandbits(64) for _ in range(5)] == [b.getrandbits(64) for _ in range(5)]
    assert DeterministicRng(8).getrandbits(64) != DeterministicRng(7).getrandbits(64)
    for bits in (1, 7, 8, 9, 160, 513):
        assert 0 <= DeterministicRng(1).getrandbits(bits) < 1 << bits


def _saved_world():
    """A set-up world, read from the format-1 fixture."""
    fixture = Path(__file__).parent / "data" / "world-v1-setup-seed7.json"
    return World.from_doc(json.loads(fixture.read_text()))


def test_deterministic_rng_resumes_after_round_trip():
    world = _saved_world()
    a = world.rng = DeterministicRng(9)
    a.getrandbits(100)
    b = World.from_doc(world.to_doc()).rng
    assert a.getrandbits(256) == b.getrandbits(256)


def test_logical_clock():
    clock = LogicalClock()
    assert clock.now() == 0
    clock.tick()
    clock.tick(5)
    assert clock.now() == 6


def test_transcript_records_and_tampers():
    world = _saved_world()
    transcript = world.transcript = Transcript()
    transcript.send(Envelope("a", "b", "step-1", b"one"))
    transcript.tamper = lambda env: Envelope(env.sender, env.recipient,
                                             env.step, b"changed")
    delivered = transcript.send(Envelope("a", "b", "step-2", b"two"))
    assert delivered.payload == b"changed"
    transcript.tamper = None
    assert transcript.received_by("b") == b"onechanged"
    again = World.from_doc(world.to_doc()).transcript
    assert [e.payload for e in again.envelopes] == [b"one", b"changed"]
    assert again.envelopes == transcript.envelopes
