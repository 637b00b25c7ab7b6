import random

import pytest

from chainanchor import epid, roles, schnorr
from chainanchor.channels import Envelope, LogicalClock, Transcript
from chainanchor.errors import CredentialError, ProtocolError, RevokedKeyError
from chainanchor.groupmath import DESK, int_to_bytes
from chainanchor.serial import doc_bytes, pack
from chainanchor.world import World


class Stage:
    """One wired issuer/verifier pair over a pre-generated group."""

    GROUP_ID = "stage-group"

    def __init__(self, gpk, gipk, seed):
        self.rng = random.Random(seed)
        self.clock = LogicalClock()
        self.transcript = Transcript()
        self.group = roles.signing_group_of(gpk)
        self.issuer = roles.IssuerActor(
            identity_keypair=schnorr.generate_keypair(self.group, self.rng),
            groups={self.GROUP_ID: roles.IssuerGroup(gpk=gpk, gipk=gipk)})
        self.verifier = self.share_gpk()

    def share_gpk(self):
        """Step 1: a verifier with a fresh keypair, built from the delivery."""
        return roles.pi_share_gpk(
            self.issuer, self.GROUP_ID,
            schnorr.generate_keypair(self.group, self.rng),
            self.issuer.identity_keypair.public, self.transcript)

    def new_user(self, name):
        user = roles.make_user(f"{name}@idp-issuer.com", self.group, self.rng)
        self.issuer.accounts[user.internet_identity] = user.identity_keypair.public
        return user

    def enroll_and_join(self, name):
        user = self.new_user(name)
        roles.user_request_membership(user, self.issuer, self.GROUP_ID,
                                      self.transcript, self.rng)
        roles.user_join_group(user, self.issuer, self.GROUP_ID,
                              self.transcript, self.rng)
        return user

    def prove(self, user, key_index=0):
        session_id, _, _ = roles.pv_challenge(self.verifier, self.rng, self.clock)
        session = roles.user_prove_membership(user, self.verifier, session_id,
                                              key_index, self.transcript,
                                              self.rng, self.clock)
        return session_id, session

    def register(self, user, session_id, key_index):
        return roles.register_transaction_key(user, self.verifier, session_id,
                                              key_index, self.transcript,
                                              self.rng, self.clock)


@pytest.fixture
def stage(desk_group):
    gpk, gipk = desk_group
    return Stage(gpk, gipk, seed=1234)


# ---------------------------------------------------------------------------
# steps 0-1

def test_establish_group_returns_a_valid_group_key():
    rng = random.Random(40)
    group = roles.pi_establish_group("g", DESK, rng)
    assert epid.validate_gpk(group.gpk)


def test_share_gpk_honest(stage):
    assert stage.verifier.gpk == stage.issuer.groups[Stage.GROUP_ID].gpk
    assert stage.verifier.permissions_db.group_id == Stage.GROUP_ID


def test_share_gpk_tamper_rejected(desk_group):
    gpk, gipk = desk_group
    stage = Stage(gpk, gipk, seed=4321)

    def flip(env):
        return Envelope(env.sender, env.recipient, env.step,
                        bytes([env.payload[0] ^ 1]) + env.payload[1:],
                        env.signature)

    stage.transcript.tamper = flip
    with pytest.raises(ProtocolError, match="signature"):
        stage.share_gpk()


def test_share_gpk_unsigned_rejected(stage):
    stage.transcript.tamper = lambda env: Envelope(
        env.sender, env.recipient, env.step, env.payload, None)
    with pytest.raises(ProtocolError):
        stage.share_gpk()


# ---------------------------------------------------------------------------
# step 2

def test_enrollment_roster_records_identity(stage):
    user = stage.new_user("alice")
    roles.user_request_membership(user, stage.issuer, Stage.GROUP_ID,
                                  stage.transcript, stage.rng)
    roster = stage.issuer.groups[Stage.GROUP_ID].member_roster
    assert user.internet_identity in roster
    assert Stage.GROUP_ID in user.enrollments


def test_unknown_identity_rejected(stage):
    outsider = roles.make_user("eve@elsewhere.org", stage.group, stage.rng)
    with pytest.raises(ProtocolError, match="unknown identity"):
        roles.user_request_membership(outsider, stage.issuer, Stage.GROUP_ID,
                                      stage.transcript, stage.rng)


def test_wrong_identity_key_rejected(stage):
    user = stage.new_user("mallory")
    # provision a different key than the one the user signs with
    stage.issuer.accounts[user.internet_identity] = (
        schnorr.generate_keypair(stage.group, stage.rng).public)
    with pytest.raises(ProtocolError, match="authentication failed"):
        roles.user_request_membership(user, stage.issuer, Stage.GROUP_ID,
                                      stage.transcript, stage.rng)


# ---------------------------------------------------------------------------
# steps 3-5

def test_join_produces_valid_member_key(stage, desk_gpk):
    user = stage.enroll_and_join("alice")
    assert len(user.member_keys) == 1
    assert epid.key_relation_holds(desk_gpk, user.member_keys[0])
    assert len(user.transaction_keys) == 1


def test_join_requires_enrollment(stage):
    user = stage.new_user("bob")
    with pytest.raises(ProtocolError, match="step 2"):
        roles.user_join_group(user, stage.issuer, Stage.GROUP_ID,
                              stage.transcript, stage.rng)


def test_join_tampered_credential_aborts(stage):
    user = stage.new_user("carol")
    roles.user_request_membership(user, stage.issuer, Stage.GROUP_ID,
                                  stage.transcript, stage.rng)

    def corrupt_credential(env):
        if env.step != "step-4":
            return env
        return Envelope(env.sender, env.recipient, env.step,
                        env.payload.replace(b'"A":"0x', b'"A":"0x1'),
                        env.signature)

    stage.transcript.tamper = corrupt_credential
    with pytest.raises(CredentialError):
        roles.user_join_group(user, stage.issuer, Stage.GROUP_ID,
                              stage.transcript, stage.rng)
    assert user.member_keys == []


def test_join_transcript_never_contains_user_secrets(stage):
    user = stage.enroll_and_join("dave")
    # recover f and v' indirectly: they never left the user, so scan for the
    # member key's secret exponent bytes in everything the issuer received
    issuer_bytes = stage.transcript.received_by(roles.ISSUER_ID)
    f = user.member_keys[0].f
    assert int_to_bytes(f) not in issuer_bytes
    assert hex(f).encode() not in issuer_bytes


# ---------------------------------------------------------------------------
# step 6

def test_prove_establishes_matching_psk(stage):
    user = stage.enroll_and_join("alice")
    session_id, session = stage.prove(user)
    assert session.psk == stage.verifier.sessions[session_id].psk
    assert session.transcript_hash == (
        stage.verifier.sessions[session_id].transcript_hash)


def test_challenge_single_use(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    with pytest.raises(ProtocolError, match="already used"):
        roles.user_prove_membership(user, stage.verifier, session_id, 0,
                                    stage.transcript, stage.rng, stage.clock)


def test_challenge_expiry(stage):
    user = stage.enroll_and_join("alice")
    session_id, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    stage.clock.tick(roles.CHALLENGE_TTL + 1)
    with pytest.raises(ProtocolError, match="expired"):
        roles.user_prove_membership(user, stage.verifier, session_id, 0,
                                    stage.transcript, stage.rng, stage.clock)


def test_unknown_session_rejected(stage):
    user = stage.enroll_and_join("alice")
    with pytest.raises(ProtocolError, match="unknown challenge"):
        roles.user_prove_membership(user, stage.verifier, "s-bogus", 0,
                                    stage.transcript, stage.rng, stage.clock)


def test_distinct_challenges(stage):
    a = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    b = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    assert a[0] != b[0] and a[1] != b[1] and a[2] != b[2]
    assert len(a[2]) * 8 >= DESK.l_phi


def _share_squarer(gpk, step):
    # substitute a *valid* subgroup element so the failure happens at key
    # confirmation, not at the share validity check
    import json

    def corrupt(env):
        if env.step != step:
            return env
        doc = json.loads(env.payload)
        doc["share"] = hex(pow(int(doc["share"], 16), 2, gpk.p))
        return Envelope(env.sender, env.recipient, env.step, doc_bytes(doc))

    return corrupt


def test_tampered_user_share_rejected(stage, desk_gpk):
    user = stage.enroll_and_join("alice")
    session_id, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    stage.transcript.tamper = _share_squarer(desk_gpk, "step-6.4")
    with pytest.raises(ProtocolError, match="confirmation failed \\(user"):
        roles.user_prove_membership(user, stage.verifier, session_id, 0,
                                    stage.transcript, stage.rng, stage.clock)
    assert session_id not in stage.verifier.sessions
    assert session_id not in user.psk_sessions


def test_out_of_group_share_rejected(stage):
    user = stage.enroll_and_join("alice")
    session_id, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)

    def corrupt(env):
        if env.step != "step-6.4":
            return env
        payload = env.payload.replace(b'"share":"0x', b'"share":"0x2')
        return Envelope(env.sender, env.recipient, env.step, payload)

    stage.transcript.tamper = corrupt
    with pytest.raises(ProtocolError, match="share invalid"):
        roles.user_prove_membership(user, stage.verifier, session_id, 0,
                                    stage.transcript, stage.rng, stage.clock)


def test_tampered_verifier_share_rejected(stage, desk_gpk):
    user = stage.enroll_and_join("alice")
    session_id, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    stage.transcript.tamper = _share_squarer(desk_gpk, "step-6.5")
    with pytest.raises(ProtocolError, match="confirmation failed"):
        roles.user_prove_membership(user, stage.verifier, session_id, 0,
                                    stage.transcript, stage.rng, stage.clock)
    assert session_id not in stage.verifier.sessions


def test_revoke_rejects_garbage_pairs(stage):
    user = stage.enroll_and_join("alice")
    for bad in ((0, 0), (1, 1), (2, 3)):
        with pytest.raises(ProtocolError, match="not in the group"):
            roles.pv_revoke(stage.verifier, *bad, "sig")
    # members remain able to prove
    stage.prove(user)


def test_issuer_rl_refuses_a_pair_off_the_issuer_base(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    B, K, _ = next(p for p in stage.verifier.verified_pseudonyms
                   if p[2] == session_id)
    # a session pseudonym is in the group, but not on B_I
    with pytest.raises(ProtocolError,
                       match="issuer-RL entry is not on the issuer base"):
        roles.pv_revoke(stage.verifier, B, K, "issuer")
    assert stage.verifier.issuer_rl == epid.RevocationList()
    roles.pv_revoke(stage.verifier, B, K, "sig")
    assert stage.verifier.sig_rl.entries == ((B, K),)


def test_revoked_member_cannot_prove(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    B, K, _ = next(p for p in stage.verifier.verified_pseudonyms
                   if p[2] == session_id)
    roles.pv_revoke(stage.verifier, B, K, "sig")
    new_session, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    with pytest.raises(RevokedKeyError):
        roles.user_prove_membership(user, stage.verifier, new_session, 0,
                                    stage.transcript, stage.rng, stage.clock)


# ---------------------------------------------------------------------------
# steps 6.7 / 7

def test_register_and_lookup(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    pk, _ = stage.register(user, session_id, 0)
    assert pk == user.transaction_keys[0].public
    assert roles.pv_lookup(stage.verifier, pk)
    assert not roles.pv_lookup(stage.verifier, pk + 1)
    # read-only lookup left the database unchanged
    assert len(stage.verifier.permissions_db.entries) == 1


def test_duplicate_registration_rejected(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    stage.register(user, session_id, 0)
    session2, _ = stage.prove(user)
    with pytest.raises(ProtocolError, match="duplicate transaction key"):
        stage.register(user, session2, 0)


def test_multiple_keys_share_no_linkage(stage):
    user = stage.enroll_and_join("alice")
    user.transaction_keys.append(
        schnorr.generate_keypair(stage.group, stage.rng))
    user.transaction_keys.append(
        schnorr.generate_keypair(stage.group, stage.rng))
    for index in range(3):
        session_id, _ = stage.prove(user)
        stage.register(user, session_id, index)
    entries = stage.verifier.permissions_db.entries.items()
    assert len(entries) == 3
    # identical schema: a key and a timestamp, nothing more
    assert all(len(row) == 2 for row in entries)
    keys = {row[0] for row in entries}
    assert len(keys) == 3


def test_permissions_database_round_trip_keeps_registration_order():
    db = roles.PermissionsDatabase("g")
    for key, timestamp in ((0x30, 7), (0x10, 8), (0x20, 9)):
        db.add(key, timestamp)
    with pytest.raises(ProtocolError, match="duplicate transaction key"):
        db.add(0x10, 10)
    doc = db.to_doc()
    assert doc == {"group_id": "g",
                   "entries": [["0x30", 7], ["0x10", 8], ["0x20", 9]]}
    again = roles.PermissionsDatabase.from_doc(doc)
    assert list(again.entries.items()) == [(0x30, 7), (0x10, 8), (0x20, 9)]
    assert again == db and again.contains(0x20) and not again.contains(0x40)


def test_registration_ciphertext_tamper_rejected(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)

    def corrupt(env):
        if env.step != "step-6.7" or env.recipient != roles.VERIFIER_ID:
            return env
        payload = env.payload.replace(b'"sealed":"', b'"sealed":"00')
        return Envelope(env.sender, env.recipient, env.step, payload)

    stage.transcript.tamper = corrupt
    with pytest.raises(ProtocolError, match="authentication"):
        stage.register(user, session_id, 0)
    assert stage.verifier.permissions_db.entries == {}


def test_register_refuses_keys_outside_the_subgroup(stage):
    # Every Schnorr check refuses a key outside the order-q subgroup, so the
    # verifier refuses to register one: no entry, and the session stays open.
    user = stage.enroll_and_join("alice")
    session_id, session = stage.prove(user)
    p, q = stage.group.p, stage.group.q
    non_residue = next(x for x in range(2, p) if pow(x, q, p) != 1)
    good = user.transaction_keys[0]
    for bad in (1, 0, p - 1, p, non_residue):
        user.transaction_keys[0] = schnorr.SchnorrKeypair(stage.group, bad, 0)
        with pytest.raises(ProtocolError, match="transaction key invalid"):
            stage.register(user, session_id, 0)
        assert stage.verifier.permissions_db.entries == {}
        assert stage.verifier.sessions[session_id].registered_keys == []
        assert session.registered_keys == []
    user.transaction_keys[0] = good
    pk, _ = stage.register(user, session_id, 0)
    assert pk == good.public and roles.pv_lookup(stage.verifier, pk)


def test_register_requires_session(stage):
    user = stage.enroll_and_join("alice")
    with pytest.raises(ProtocolError, match="no established session"):
        stage.register(user, "s-none", 0)


def test_anonymous_identity_issued_and_verifiable(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    pk, _ = stage.register(user, session_id, 0)
    cert = roles.user_request_anonymous_identity(
        user, stage.verifier, session_id, pk, stage.transcript, stage.rng,
        stage.clock)
    assert cert.anon_id.endswith("@" + stage.verifier.domain)
    assert cert.bound_key == pk
    assert schnorr.verify(stage.group, stage.verifier.identity_keypair.public,
                          cert.body_bytes(), cert.signature)
    assert user.internet_identity not in doc_bytes(cert.to_doc()).decode()

    session2, _ = stage.prove(user)
    user.transaction_keys.append(schnorr.generate_keypair(stage.group, stage.rng))
    pk2, _ = stage.register(user, session2, 1)
    cert2 = roles.user_request_anonymous_identity(
        user, stage.verifier, session2, pk2, stage.transcript, stage.rng,
        stage.clock)
    assert cert2.anon_id != cert.anon_id


def test_identity_requires_registered_key(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    with pytest.raises(ProtocolError, match="not registered"):
        roles.user_request_anonymous_identity(
            user, stage.verifier, session_id, user.transaction_keys[0].public,
            stage.transcript, stage.rng, stage.clock)
    assert not stage.verifier.issued_identities and not user.certificates


# ---------------------------------------------------------------------------
# disclosure

def test_disclosure_names_only_one_key(stage):
    user = stage.enroll_and_join("alice")
    user.transaction_keys.append(schnorr.generate_keypair(stage.group, stage.rng))
    user.transaction_keys.append(schnorr.generate_keypair(stage.group, stage.rng))
    for index in range(3):
        session_id, _ = stage.prove(user)
        stage.register(user, session_id, index)

    record = roles.user_disclose_key(user, stage.verifier, 1, stage.transcript,
                                     reveal_identity=True)
    assert record.disclosed_key == user.transaction_keys[1].public
    assert record.identity == user.internet_identity
    record_bytes = doc_bytes(record.to_doc())
    for other_index in (0, 2):
        other = user.transaction_keys[other_index].public
        assert hex(other).encode() not in record_bytes


def test_disclosure_requires_key_control(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    stage.register(user, session_id, 0)
    registered = user.transaction_keys[0]
    # swap in a keypair whose public part is registered but whose secret is not
    forged = roles.UserActor(
        internet_identity=user.internet_identity,
        identity_keypair=user.identity_keypair,
        transaction_keys=[schnorr.SchnorrKeypair(
            registered.group, registered.public, secret=12345)])
    with pytest.raises(ProtocolError, match="disclosure signature"):
        roles.user_disclose_key(forged, stage.verifier, 0, stage.transcript)


def test_disclosure_requires_registration(stage):
    user = stage.enroll_and_join("alice")
    with pytest.raises(ProtocolError, match="not registered"):
        roles.user_disclose_key(user, stage.verifier, 0, stage.transcript)


def test_disclosure_of_an_unregistered_key_is_refused_on_receipt(stage):
    # The verifier checks the key it receives: a disclosure swapped in
    # transit for one of an unregistered key, signed by that key and naming
    # another member, is refused and not recorded.
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    stage.register(user, session_id, 0)
    outsider = schnorr.generate_keypair(stage.group, stage.rng)
    statement = pack(roles._DISCLOSURE, disclosed_key=outsider.public,
                     identity="bob@idp-issuer.com")
    stage.transcript.tamper = lambda env: Envelope(
        env.sender, env.recipient, env.step, statement,
        schnorr.sign(outsider, statement))
    with pytest.raises(ProtocolError, match="^key not registered$"):
        roles.user_disclose_key(user, stage.verifier, 0, stage.transcript,
                                reveal_identity=True)
    assert stage.verifier.disclosures == []


def test_world_disclosure_is_anonymous_by_default():
    world = World.create("g", DESK, 12)
    for step in (world.enroll, world.join, world.prove, world.register):
        step("alice")
    record = world.disclose("alice", 0)
    env = world.transcript.envelopes[-1]
    assert record.identity is None and world.verifier.disclosures == [record]
    assert env.step == "disclosure" and env.sender == roles.ANON_ID
    identity = world.users["alice"].internet_identity.encode()
    assert identity not in env.payload


# ---------------------------------------------------------------------------
# flow invariant

def test_full_flow_invariant_many_runs(desk_group):
    # Steps 2-7 for many users over a few independently wired stages: always
    # ends with a db entry, matching PSKs, and a verifiable certificate.
    gpk, gipk = desk_group
    runs = 0
    for stage_seed in (101, 202, 303, 404, 505):
        stage = Stage(gpk, gipk, seed=stage_seed)
        for i in range(10):
            user = stage.enroll_and_join(f"user{i}")
            session_id, session = stage.prove(user)
            pk, _ = stage.register(user, session_id, 0)
            cert = roles.user_request_anonymous_identity(
                user, stage.verifier, session_id, pk, stage.transcript,
                stage.rng, stage.clock)
            assert roles.pv_lookup(stage.verifier, pk)
            assert session.psk == stage.verifier.sessions[session_id].psk
            assert schnorr.verify(stage.group,
                                  stage.verifier.identity_keypair.public,
                                  cert.body_bytes(), cert.signature)
            runs += 1
    assert runs == 50


def test_refused_member_key_index_sends_nothing():
    # A direct roles caller, not World.prove, which refuses the index first.
    world = World.create("g", DESK, 11)
    world.enroll("alice")
    world.join("alice")
    session_id, _, _ = roles.pv_challenge(world.verifier, world.rng,
                                          world.clock)
    sent = len(world.transcript.envelopes)
    assert sent == 7
    with pytest.raises(ProtocolError, match="no such member key"):
        roles.user_prove_membership(world.users["alice"], world.verifier,
                                    session_id, 3, world.transcript,
                                    world.rng, world.clock)
    assert len(world.transcript.envelopes) == sent
    assert not world.verifier.pending_challenges[session_id].used


def test_actor_state_docs_round_trip(stage):
    user = stage.enroll_and_join("alice")
    session_id, _ = stage.prove(user)
    stage.register(user, session_id, 0)

    issuer_doc = stage.issuer.to_doc(secrets=True)
    verifier_doc = stage.verifier.to_doc(secrets=True)
    user_doc = user.to_doc()
    assert roles.IssuerActor.from_doc(issuer_doc).to_doc(
        secrets=True) == issuer_doc
    assert roles.VerifierActor.from_doc(verifier_doc).to_doc(
        secrets=True) == verifier_doc
    assert roles.UserActor.from_doc(user_doc).to_doc() == user_doc


def test_issuer_public_export_has_no_issuing_key(stage):
    # the public export must not carry the issuing private key or nonces
    export = doc_bytes(stage.issuer.to_doc()).decode()
    gipk = stage.issuer.groups[Stage.GROUP_ID].gipk
    for secret in (gipk.p_N, gipk.q_N, gipk.p_N_prime, gipk.q_N_prime):
        assert hex(secret) not in export
    assert "gipk" not in export
    assert hex(stage.issuer.identity_keypair.secret) not in export
