"""The four system entities and the enrollment/proving/registration protocol.

The Permissions Issuer knows real identities and issues member credentials;
the Permissions Verifier checks anonymous membership proofs and maintains the
permissions database that consensus nodes read.  Users hold member keys and
self-generated transaction keys.  All cross-actor traffic goes through a
:class:`~chainanchor.channels.Transcript` as byte payloads, so anonymity
claims can be audited at the byte level and tests can tamper in transit.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Optional

from . import epid, schnorr
from .channels import (
    Envelope,
    LogicalClock,
    Transcript,
    derive_key,
    mac_tag,
    open_sealed,
    seal,
)
from .errors import ProtocolError
from .groupmath import (
    ParameterProfile,
    hash_to_subgroup,
    in_subgroup,
    int_to_bytes,
    modexp,
    rand_bytes,
)
from .serial import (
    JsonInt,
    Record,
    doc_bytes,
    doc_from_bytes,
    pack,
    secret,
    unpack,
)

ISSUER_ID = "idp-pi"
VERIFIER_ID = "idp-pv"
ANON_ID = "anonymous-member"
VERIFIER_DOMAIN = "idp-verifier.com"

CHALLENGE_TTL = 300          # seconds of simulated time
NONCE_LEN = 16               # 128 bits, above every profile's l_phi


def signing_group_of(gpk: epid.GroupPublicKey) -> schnorr.SigningGroup:
    return schnorr.SigningGroup(gpk.p, gpk.q, gpk.u)


# ---------------------------------------------------------------------------
# message shapes: a payload is written with pack() and read back with
# unpack() against the same shape

_GPK_DELIVERY = {"group_id": str, "gpk": epid.GroupPublicKey}
_MEMBERSHIP_REQUEST = {"identity": str, "group_id": str}
_AUTH_CHALLENGE = {"auth_nonce": bytes}
_AUTH_STATEMENT = {"identity": str, "group_id": str, "auth_nonce": bytes}
_JOIN_REQUEST = {"identity": str, "join": epid.JoinRequest}
_CREDENTIAL = {"credential": epid.CredentialResponse}
_PROOF_REQUEST = {"session_id": str, "request": str}
_CHALLENGE = {"session_id": str, "m": bytes, "n_pv": bytes,
              "sig_rl": epid.RevocationList, "issuer_rl": epid.RevocationList}
_PROOF = {"session_id": str, "sigma": epid.MembershipSignature, "share": int}
_SHARE_CONFIRM = {"session_id": str, "share": int, "confirm": bytes}
_CONFIRM = {"session_id": str, "confirm": bytes}
_SEALED = {"session_id": str, "sealed": bytes}
_REGISTER = {"transaction_public_key": int}
_REGISTER_ACK = {"registered": int, "timestamp": JsonInt}
_IDENTITY_REQUEST = {"bound_key": int}
_CERTIFICATE_BODY = {"anon_id": str, "bound_key": int, "issued_at": JsonInt}
_DISCLOSURE = {"disclosed_key": int, "identity": Optional[str]}


# ---------------------------------------------------------------------------
# state records

@dataclass
class PermissionsDatabase(Record):
    """Registered transaction public keys and timestamps; nothing else."""

    group_id: str
    # public key -> timestamp, in registration order
    entries: dict[int, JsonInt] = field(default_factory=dict)

    def contains(self, public_key: int) -> bool:
        return public_key in self.entries

    def add(self, public_key: int, timestamp: int):
        if self.contains(public_key):
            raise ProtocolError("duplicate transaction key")
        self.entries[public_key] = timestamp


@dataclass
class PskSession:
    session_id: str
    psk: bytes
    transcript_hash: bytes
    registered_keys: list[int] = field(default_factory=list)


@dataclass
class Challenge:
    m: bytes
    n_pv: bytes
    expires_at: JsonInt
    used: bool = False


@dataclass
class AnonymousIdentityCertificate(Record):
    """Binding of a fresh anonymous identity to one transaction key."""

    anon_id: str
    bound_key: int
    issued_at: JsonInt
    signature: tuple[int, int]

    def body_bytes(self) -> bytes:
        return pack(_CERTIFICATE_BODY, anon_id=self.anon_id,
                    bound_key=self.bound_key, issued_at=self.issued_at)


@dataclass
class DisclosureRecord(Record):
    disclosed_key: int
    statement: bytes
    signature: tuple[int, int]
    identity: Optional[str] = None


# ---------------------------------------------------------------------------
# actors

@dataclass
class IssuerGroup:
    gpk: epid.GroupPublicKey
    gipk: epid.GroupIssuingPrivateKey = secret()
    member_roster: set[str] = field(default_factory=set)
    # identity -> nonce
    pending_join_nonces: dict[str, bytes] = secret(default_factory=dict)
    # identity -> (B, K)
    join_pseudonyms: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.gipk.p_N * self.gipk.q_N != self.gpk.N:
            raise ValueError("gipk does not factor N")


@dataclass
class IssuerActor(Record):
    """Identity provider acting as Permissions Issuer; one per group."""

    identity_keypair: Optional[schnorr.SchnorrKeypair] = secret(default=None)
    # identity -> identity public key
    accounts: dict[str, int] = field(default_factory=dict)
    groups: dict[str, IssuerGroup] = field(default_factory=dict)


@dataclass
class VerifierActor(Record):
    """Identity provider acting as Permissions Verifier."""

    identity_keypair: Optional[schnorr.SchnorrKeypair] = secret(default=None)
    pinned_issuer_key: Optional[int] = None
    gpk: Optional[epid.GroupPublicKey] = None
    permissions_db: Optional[PermissionsDatabase] = None
    sig_rl: epid.RevocationList = field(default_factory=epid.RevocationList)
    issuer_rl: epid.RevocationList = field(default_factory=epid.RevocationList)
    pending_challenges: dict[str, Challenge] = secret(default_factory=dict)
    sessions: dict[str, PskSession] = secret(default_factory=dict)
    # anon_id -> certificate
    issued_identities: dict[str, AnonymousIdentityCertificate] = field(
        default_factory=dict)
    disclosures: list[DisclosureRecord] = field(default_factory=list)
    # (B, K, session_id)
    verified_pseudonyms: list[tuple[int, int, str]] = field(
        default_factory=list)
    domain: str = VERIFIER_DOMAIN


@dataclass
class Enrollment(Record):
    gpk: epid.GroupPublicKey
    join_nonce: bytes


@dataclass
class UserActor(Record):
    internet_identity: str
    identity_keypair: schnorr.SchnorrKeypair
    member_keys: list[epid.UserMemberPrivateKey] = field(default_factory=list)
    transaction_keys: list[schnorr.SchnorrKeypair] = field(
        default_factory=list)
    psk_sessions: dict[str, PskSession] = field(default_factory=dict)
    enrollments: dict[str, Enrollment] = field(default_factory=dict)
    certificates: list[AnonymousIdentityCertificate] = field(
        default_factory=list)


def make_user(identity: str, group: schnorr.SigningGroup, rng) -> UserActor:
    return UserActor(internet_identity=identity,
                     identity_keypair=schnorr.generate_keypair(group, rng))


def wire_identity_keys(issuer: IssuerActor, verifier: VerifierActor,
                       group: schnorr.SigningGroup, rng):
    """Out-of-band provisioning of the long-term actor keys: the issuer and
    verifier keypairs, plus the issuer key pinned at the verifier.  The
    verifier checks the issuer's signatures in its own keypair's group."""
    issuer.identity_keypair = schnorr.generate_keypair(group, rng)
    verifier.identity_keypair = schnorr.generate_keypair(group, rng)
    verifier.pinned_issuer_key = issuer.identity_keypair.public


# ---------------------------------------------------------------------------
# Step 0/1: group establishment and key delivery

def pi_establish_group(issuer: IssuerActor, group_id: str,
                       profile: ParameterProfile, rng) -> epid.GroupPublicKey:
    if group_id in issuer.groups:
        raise ProtocolError(f"group {group_id!r} already exists")
    gpk, gipk = epid.setup_group(profile, f"{ISSUER_ID}:{group_id}".encode(), rng)
    issuer.groups[group_id] = IssuerGroup(gpk=gpk, gipk=gipk)
    return gpk


def pi_share_gpk(issuer: IssuerActor, verifier: VerifierActor, group_id: str,
                 transcript: Transcript):
    """Signed delivery of the group public key to the verifier (Step 1)."""
    group = issuer.groups.get(group_id)
    if group is None:
        raise ProtocolError(f"unknown group {group_id!r}")
    payload = pack(_GPK_DELIVERY, group_id=group_id, gpk=group.gpk)
    signature = schnorr.sign(issuer.identity_keypair, payload)
    env = transcript.send(Envelope(ISSUER_ID, VERIFIER_ID, "step-1",
                                   payload, signature))

    if verifier.pinned_issuer_key is None or verifier.identity_keypair is None:
        raise ProtocolError("verifier has no pinned issuer key")
    if env.signature is None or not schnorr.verify(
            verifier.identity_keypair.group, verifier.pinned_issuer_key,
            env.payload, env.signature):
        raise ProtocolError("issuer signature on group key delivery invalid")
    delivered_id, gpk = unpack(_GPK_DELIVERY, env.payload)
    check = epid.validate_gpk(gpk)
    if not check:
        raise ProtocolError(f"delivered group key invalid: {check.reason}")
    verifier.gpk = gpk
    verifier.permissions_db = PermissionsDatabase(group_id=delivered_id)


# ---------------------------------------------------------------------------
# Step 2: authenticated membership request

def user_request_membership(user: UserActor, issuer: IssuerActor,
                            group_id: str, transcript: Transcript,
                            rng) -> Enrollment:
    """Non-anonymous enrollment: challenge-signature authentication against
    the issuer's provisioned accounts, then gpk + join nonce delivery.  The
    issuer accepts a statement only of the identity and group it was asked
    for and of the nonce it sent."""
    identity = user.internet_identity
    env = transcript.send(Envelope(identity, ISSUER_ID, "step-2",
                                   pack(_MEMBERSHIP_REQUEST, identity=identity,
                                        group_id=group_id)))
    requester, requested_group = unpack(_MEMBERSHIP_REQUEST, env.payload)
    group = issuer.groups.get(requested_group)
    if group is None:
        raise ProtocolError(f"unknown group {requested_group!r}")
    if requester not in issuer.accounts:
        raise ProtocolError(f"unknown identity {requester!r}")

    auth_nonce = rand_bytes(rng, NONCE_LEN)
    env = transcript.send(Envelope(ISSUER_ID, requester, "step-2",
                                   pack(_AUTH_CHALLENGE, auth_nonce=auth_nonce)))
    received_nonce, = unpack(_AUTH_CHALLENGE, env.payload)
    statement = pack(_AUTH_STATEMENT, identity=identity, group_id=group_id,
                     auth_nonce=received_nonce)
    auth_sig = schnorr.sign(user.identity_keypair, statement)
    env = transcript.send(Envelope(identity, ISSUER_ID, "step-2",
                                   statement, auth_sig))
    sent = (requester, requested_group, auth_nonce)
    for name, asked, stated in zip(_AUTH_STATEMENT, sent,
                                   unpack(_AUTH_STATEMENT, env.payload)):
        if stated != asked:
            raise ProtocolError(f"authentication statement has the wrong {name}")
    if env.signature is None or not schnorr.verify(
            signing_group_of(group.gpk), issuer.accounts[requester],
            env.payload, env.signature):
        raise ProtocolError("authentication failed")

    group.member_roster.add(requester)
    join_nonce = rand_bytes(rng, NONCE_LEN)
    group.pending_join_nonces[requester] = join_nonce
    env = transcript.send(Envelope(
        ISSUER_ID, requester, "step-2",
        doc_bytes(Enrollment(gpk=group.gpk, join_nonce=join_nonce).to_doc())))
    enrollment = Enrollment.from_doc(doc_from_bytes(env.payload))
    user.enrollments[group_id] = enrollment
    return enrollment


# ---------------------------------------------------------------------------
# Steps 3-5: blinded join

def user_join_group(user: UserActor, issuer: IssuerActor, group_id: str,
                    transcript: Transcript, rng) -> int:
    """Run the blinded join; on success stores the member key and a fresh
    transaction keypair, returning the member key index."""
    enrollment = user.enrollments.get(group_id)
    if enrollment is None:
        raise ProtocolError("membership request (step 2) not completed")
    group = issuer.groups.get(group_id)
    if group is None:
        raise ProtocolError(f"unknown group {group_id!r}")
    identity = user.internet_identity

    state, request = epid.join_request(enrollment.gpk, enrollment.join_nonce,
                                       rng)
    env = transcript.send(Envelope(identity, ISSUER_ID, "step-3",
                                   pack(_JOIN_REQUEST, identity=identity,
                                        join=request)))

    requester, received = unpack(_JOIN_REQUEST, env.payload)
    nonce = group.pending_join_nonces.get(requester)
    if nonce is None:
        raise ProtocolError("no pending join for this identity")
    response = epid.issue_credential(group.gpk, group.gipk, received,
                                     nonce, rng)
    del group.pending_join_nonces[requester]
    base = hash_to_subgroup(group.gpk.issuer_basename, group.gpk.p, group.gpk.q)
    group.join_pseudonyms[requester] = (base, received.K_I)

    env = transcript.send(Envelope(ISSUER_ID, identity, "step-4",
                                   pack(_CREDENTIAL, credential=response)))
    delivered, = unpack(_CREDENTIAL, env.payload)
    member_key = epid.complete_join(state, delivered, enrollment.gpk)
    user.member_keys.append(member_key)
    # Step 5 also has the user mint a transaction keypair for later use.
    user.transaction_keys.append(
        schnorr.generate_keypair(signing_group_of(enrollment.gpk), rng))
    return len(user.member_keys) - 1


# ---------------------------------------------------------------------------
# Step 6: anonymous membership proof and PSK agreement

def pv_challenge(verifier: VerifierActor, rng, clock: LogicalClock):
    """Mint a fresh (m, n_pv) challenge; returns (session_id, m, n_pv)."""
    session_id = "s" + rand_bytes(rng, 8).hex()
    challenge = Challenge(m=rand_bytes(rng, 32),
                          n_pv=rand_bytes(rng, NONCE_LEN),
                          expires_at=clock.now() + CHALLENGE_TTL)
    verifier.pending_challenges[session_id] = challenge
    return session_id, challenge.m, challenge.n_pv


def _in_session(shape: dict, env: Envelope, current: str) -> list:
    """The fields after ``session_id`` of a delivered message, refused
    unless it names the receiver's current session."""
    delivered, *fields = unpack(shape, env.payload)
    if delivered != current:
        raise ProtocolError(f"session {delivered!r} is not the current session")
    return fields


def _psk(dh_secret: int, sigma_hash: bytes, m: bytes, n_pv: bytes) -> bytes:
    return derive_key(b"psk", [int_to_bytes(dh_secret), sigma_hash, m, n_pv])


def user_prove_membership(user: UserActor, verifier: VerifierActor,
                          session_id: str, key_index: int,
                          transcript: Transcript, rng,
                          clock: LogicalClock) -> PskSession:
    """Steps 6.1-6.6: anonymous proof of membership followed by an ephemeral
    key agreement bound to the accepted signature.

    Both sides derive PSK = KDF(u^xy || H(sigma) || m || n_pv) and exchange
    key-confirmation tags, so a tampered share is rejected by whichever side
    sees the mismatch first.
    """
    if verifier.gpk is None or verifier.permissions_db is None:
        raise ProtocolError("verifier has no group key")
    gpk = verifier.gpk
    # The user's own refusals come before anything is sent.
    enrollment = user.enrollments.get(verifier.permissions_db.group_id)
    if enrollment is None:
        raise ProtocolError("user is not enrolled in the verifier's group")
    if not 0 <= key_index < len(user.member_keys):
        raise ProtocolError("no such member key")

    env = transcript.send(Envelope(ANON_ID, VERIFIER_ID, "step-6.1",
                                   pack(_PROOF_REQUEST,
                                        request="membership-verification",
                                        session_id=session_id)))
    _in_session(_PROOF_REQUEST, env, session_id)
    challenge = verifier.pending_challenges.get(session_id)
    if challenge is None:
        raise ProtocolError("unknown challenge session")
    if challenge.used:
        raise ProtocolError("challenge already used")
    if clock.now() > challenge.expires_at:
        raise ProtocolError("challenge expired")
    env = transcript.send(Envelope(
        VERIFIER_ID, ANON_ID, "step-6.2",
        pack(_CHALLENGE, session_id=session_id, m=challenge.m,
             n_pv=challenge.n_pv, sig_rl=verifier.sig_rl,
             issuer_rl=verifier.issuer_rl)))

    m, n_pv, sig_rl, issuer_rl = _in_session(_CHALLENGE, env, session_id)
    sigma = epid.sign_membership(user.member_keys[key_index], enrollment.gpk,
                                 m, n_pv, sig_rl, issuer_rl, rng)
    sigma_hash = hashlib.sha256(sigma.transcript_bytes()).digest()
    share_user = schnorr.generate_keypair(signing_group_of(enrollment.gpk),
                                          rng)
    env = transcript.send(Envelope(
        ANON_ID, VERIFIER_ID, "step-6.4",
        pack(_PROOF, session_id=session_id, sigma=sigma,
             share=share_user.public)))

    delivered_sigma, delivered_share = _in_session(_PROOF, env, session_id)
    challenge.used = True
    result = epid.verify_membership(gpk, challenge.m, challenge.n_pv,
                                    delivered_sigma, verifier.sig_rl,
                                    verifier.issuer_rl)
    if not result:
        raise ProtocolError(f"membership proof rejected: {result.reason}")
    if not in_subgroup(delivered_share, gpk.p, gpk.q):
        raise ProtocolError("key agreement share invalid")
    delivered_hash = hashlib.sha256(delivered_sigma.transcript_bytes()).digest()
    share_pv = schnorr.generate_keypair(signing_group_of(gpk), rng)
    psk_pv = _psk(modexp(delivered_share, share_pv.secret, gpk.p),
                  delivered_hash, challenge.m, challenge.n_pv)
    confirm_pv = mac_tag(psk_pv, b"confirm-pv", [session_id.encode()])
    env = transcript.send(Envelope(
        VERIFIER_ID, ANON_ID, "step-6.5",
        pack(_SHARE_CONFIRM, session_id=session_id, share=share_pv.public,
             confirm=confirm_pv)))

    delivered_share_pv, delivered_confirm = _in_session(_SHARE_CONFIRM, env,
                                                        session_id)
    psk_user = _psk(modexp(delivered_share_pv, share_user.secret,
                           enrollment.gpk.p),
                    sigma_hash, m, n_pv)
    if not hmac.compare_digest(delivered_confirm, mac_tag(
            psk_user, b"confirm-pv", [session_id.encode()])):
        raise ProtocolError("key confirmation failed (user side)")
    env = transcript.send(Envelope(
        ANON_ID, VERIFIER_ID, "step-6.6",
        pack(_CONFIRM, session_id=session_id,
             confirm=mac_tag(psk_user, b"confirm-user",
                             [session_id.encode()]))))
    delivered_confirm, = _in_session(_CONFIRM, env, session_id)
    if not hmac.compare_digest(delivered_confirm, mac_tag(
            psk_pv, b"confirm-user", [session_id.encode()])):
        raise ProtocolError("key confirmation failed (verifier side)")

    verifier.sessions[session_id] = PskSession(session_id, psk_pv, delivered_hash)
    verifier.verified_pseudonyms.append(
        (delivered_sigma.B, delivered_sigma.K, session_id))
    session = PskSession(session_id, psk_user, sigma_hash)
    user.psk_sessions[session_id] = session
    return session


# ---------------------------------------------------------------------------
# Step 6.7: transaction key registration

def _channel_key(session: PskSession, purpose: bytes) -> bytes:
    return derive_key(purpose, [session.psk, session.session_id.encode()])


def _seal(session: PskSession, purpose: bytes, plaintext: bytes, rng) -> bytes:
    """Envelope payload carrying ``plaintext`` over the PSK channel."""
    blob = seal(_channel_key(session, purpose), plaintext, rng,
                aad=session.session_id.encode())
    return pack(_SEALED, session_id=session.session_id, sealed=blob)


def _open(session: PskSession, purpose: bytes, env: Envelope) -> bytes:
    """Plaintext of a PSK-sealed envelope sent in the receiver's session."""
    blob, = _in_session(_SEALED, env, session.session_id)
    return open_sealed(_channel_key(session, purpose), blob,
                       aad=session.session_id.encode())


def _established(sessions: dict, session_id: str) -> PskSession:
    session = sessions.get(session_id)
    if session is None:
        raise ProtocolError("no established session")
    return session


def register_transaction_key(user: UserActor, verifier: VerifierActor,
                             session_id: str, key_index: int,
                             transcript: Transcript, rng,
                             clock: LogicalClock):
    """Deliver a transaction public key under the PSK channel; the verifier
    checks that it lies in the order-q subgroup and appends (key, timestamp)
    to the permissions database."""
    session = _established(user.psk_sessions, session_id)
    if not 0 <= key_index < len(user.transaction_keys):
        raise ProtocolError("no such transaction key")
    public_key = user.transaction_keys[key_index].public
    env = transcript.send(Envelope(ANON_ID, VERIFIER_ID, "step-6.7", _seal(
        session, b"register",
        pack(_REGISTER, transaction_public_key=public_key), rng)))

    vsession = _established(verifier.sessions, session_id)
    submitted, = unpack(_REGISTER, _open(vsession, b"register", env))
    if not in_subgroup(submitted, verifier.gpk.p, verifier.gpk.q):
        raise ProtocolError("transaction key invalid")
    verifier.permissions_db.add(submitted, clock.now())
    vsession.registered_keys.append(submitted)

    env = transcript.send(Envelope(VERIFIER_ID, ANON_ID, "step-6.7", _seal(
        vsession, b"register-ack",
        pack(_REGISTER_ACK, registered=submitted, timestamp=clock.now()),
        rng)))
    registered, timestamp = unpack(
        _REGISTER_ACK, _open(session, b"register-ack", env))
    session.registered_keys.append(registered)
    return (submitted, timestamp)


# ---------------------------------------------------------------------------
# Step 7: anonymous internet identity

def user_request_anonymous_identity(user: UserActor, verifier: VerifierActor,
                                    session_id: str, transaction_key: int,
                                    transcript: Transcript, rng,
                                    clock: LogicalClock) -> AnonymousIdentityCertificate:
    """Request, over the PSK channel, a fresh anonymous identity bound to
    a key registered in this session; the verifier signs it with its
    identity key."""
    session = _established(user.psk_sessions, session_id)
    env = transcript.send(Envelope(ANON_ID, VERIFIER_ID, "step-7", _seal(
        session, b"identity-request",
        pack(_IDENTITY_REQUEST, bound_key=transaction_key), rng)))

    vsession = _established(verifier.sessions, session_id)
    bound_key, = unpack(_IDENTITY_REQUEST,
                        _open(vsession, b"identity-request", env))
    if bound_key not in vsession.registered_keys:
        raise ProtocolError("key not registered in this session")
    while True:
        anon_id = f"anon{rand_bytes(rng, 8).hex()}@{verifier.domain}"
        if anon_id not in verifier.issued_identities:
            break
    cert = AnonymousIdentityCertificate(anon_id=anon_id, bound_key=bound_key,
                                        issued_at=clock.now(),
                                        signature=(0, 0))
    cert.signature = schnorr.sign(verifier.identity_keypair, cert.body_bytes())
    verifier.issued_identities[anon_id] = cert
    env = transcript.send(Envelope(VERIFIER_ID, ANON_ID, "step-7", _seal(
        vsession, b"identity-reply", doc_bytes(cert.to_doc()), rng)))
    delivered = AnonymousIdentityCertificate.from_doc(doc_from_bytes(
        _open(session, b"identity-reply", env)))
    user.certificates.append(delivered)
    return delivered


# ---------------------------------------------------------------------------
# lookups, revocation, disclosure

def pv_lookup(verifier: VerifierActor, transaction_key: int) -> bool:
    """Read-only membership check against the permissions database."""
    if verifier.permissions_db is None:
        return False
    return verifier.permissions_db.contains(transaction_key)


def pv_revoke(verifier: VerifierActor, B: int, K: int, which: str):
    """Append a pseudonym pair to the chosen revocation list.

    Pairs must come from verified signatures (or join records); a value
    outside the subgroup would poison every member's self-check, so it is
    rejected here.
    """
    gpk = verifier.gpk
    if gpk is None:
        raise ProtocolError("verifier has no group key")
    if not (in_subgroup(B, gpk.p, gpk.q) and in_subgroup(K, gpk.p, gpk.q)):
        raise ProtocolError("pseudonym pair is not in the group")
    if which == "sig":
        verifier.sig_rl = epid.revoke_signature(verifier.sig_rl, B, K)
    elif which == "issuer":
        if B != hash_to_subgroup(gpk.issuer_basename, gpk.p, gpk.q):
            raise ProtocolError("issuer-RL entry is not on the issuer base")
        verifier.issuer_rl = epid.revoke_signature(verifier.issuer_rl, B, K)
    else:
        raise ProtocolError(f"unknown revocation list {which!r}")


def user_disclose_key(user: UserActor, verifier: VerifierActor,
                      key_index: int, transcript: Transcript,
                      reveal_identity: bool = False) -> DisclosureRecord:
    """Voluntarily prove control of one registered transaction key.

    The signed statement names only that key; the verifier learns nothing
    about the user's other keys, and refuses a key that its permissions
    database does not hold.
    """
    if not 0 <= key_index < len(user.transaction_keys):
        raise ProtocolError("no such transaction key")
    keypair = user.transaction_keys[key_index]
    identity = user.internet_identity if reveal_identity else None
    statement = pack(_DISCLOSURE, disclosed_key=keypair.public,
                     identity=identity)
    signature = schnorr.sign(keypair, statement)
    sender = identity if reveal_identity else ANON_ID
    env = transcript.send(Envelope(sender, VERIFIER_ID, "disclosure",
                                   statement, signature))

    disclosed, claimed_identity = unpack(_DISCLOSURE, env.payload)
    if not pv_lookup(verifier, disclosed):
        raise ProtocolError("key not registered")
    group = signing_group_of(verifier.gpk)
    if env.signature is None or not schnorr.verify(group, disclosed,
                                                   env.payload, env.signature):
        raise ProtocolError("disclosure signature invalid")
    record = DisclosureRecord(disclosed_key=disclosed, statement=env.payload,
                              signature=env.signature,
                              identity=claimed_identity)
    verifier.disclosures.append(record)
    return record
