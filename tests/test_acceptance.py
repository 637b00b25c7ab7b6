"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
at the end of the run.
"""

import dataclasses
import random
import time

import pytest

from chainanchor import epid, ledger, roles, schnorr
from chainanchor.channels import LogicalClock
from chainanchor.demo import run_demo
from chainanchor.errors import ProtocolError, RevokedKeyError
from chainanchor.groupmath import DESK, int_to_bytes, rand_below
from chainanchor.serial import doc_bytes
from chainanchor.world import World
from conftest import make_member
from test_roles import Stage, _share_squarer

EMPTY = epid.RevocationList()


@pytest.fixture(scope="module")
def accept_group():
    rng = random.Random(0xACCE97)
    return epid.setup_group(DESK, b"idp-pi:acceptance", rng)


def test_criterion_01_epid_completeness_100_trials():
    # >= 100 randomized full pipelines: fresh group, fresh member, fresh
    # message/nonce; every signature must verify; well under 60 seconds.
    rng = random.Random(1)
    start = time.perf_counter()
    keys = []
    for trial in range(100):
        gpk, gipk = epid.setup_group(DESK, f"issuer-{trial}".encode(), rng)
        sk = make_member(gpk, gipk, rng)
        message = rng.getrandbits(256).to_bytes(32, "big")
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        sig = epid.sign_membership(sk, gpk, message, nonce, EMPTY, EMPTY, rng)
        assert epid.verify_membership(gpk, message, nonce, sig, EMPTY, EMPTY), \
            f"trial {trial} failed verification"
        keys.append((gpk, sk))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"100 trials took {elapsed:.1f}s"
    # stash for the CL-relation criterion
    test_criterion_01_epid_completeness_100_trials.keys = keys


def test_criterion_02_cl_relation_oracle(accept_group):
    # Independent recomputation of A^e * R^f * S^v mod N for every key
    # generated anywhere in this module plus the completeness trials.
    gpk, gipk = accept_group
    rng = random.Random(2)
    collected = [(gpk, make_member(gpk, gipk, rng, nonce=f"cl{i}".encode()))
                 for i in range(10)]
    collected += getattr(test_criterion_01_epid_completeness_100_trials,
                         "keys", [])
    assert len(collected) >= 10
    for key_gpk, sk in collected:
        lhs = pow(sk.A, sk.e, key_gpk.N)
        lhs = lhs * pow(key_gpk.R, sk.f, key_gpk.N) % key_gpk.N
        lhs = lhs * pow(key_gpk.S, sk.v, key_gpk.N) % key_gpk.N
        assert lhs == key_gpk.Z


def test_criterion_03_one_key_verifies_many(accept_group):
    gpk, gipk = accept_group
    stage = Stage(gpk, gipk, seed=33)
    users = [stage.enroll_and_join(f"user{i}") for i in range(5)]
    keys = [u.member_keys[0] for u in users]
    assert len({(k.A, k.e, k.f, k.v) for k in keys}) == 5

    rng = random.Random(34)
    for sk in keys:
        sig = epid.sign_membership(sk, gpk, b"m", b"n", EMPTY, EMPTY, rng)
        assert epid.verify_membership(gpk, b"m", b"n", sig, EMPTY, EMPTY)

    # the verifier's own state must not distinguish the signers
    for user in users:
        session_id, _ = stage.prove(user)
        stage.register(user, session_id, 0)
    state = doc_bytes(stage.verifier.to_doc(secrets=True)).decode()
    for user in users:
        assert user.internet_identity not in state
    rows = list(stage.verifier.permissions_db.entries.items())
    assert len(rows) == 5 and all(len(row) == 2 for row in rows)


def test_criterion_04_unlinkability_structural(accept_group):
    gpk, gipk = accept_group
    rng = random.Random(4)
    sk = make_member(gpk, gipk, rng)
    sigs = []
    for _ in range(50):       # 50 pairs
        sigs.append(epid.sign_membership(sk, gpk, b"m", b"n", EMPTY, EMPTY, rng))
        sigs.append(epid.sign_membership(sk, gpk, b"m", b"n", EMPTY, EMPTY, rng))
    for field in ("B", "K", "T", "c"):
        assert len({getattr(s, field) for s in sigs}) == len(sigs), field

    named = [epid.sign_membership(sk, gpk, b"m", f"n{i}".encode(), EMPTY,
                                  EMPTY, rng, basename=b"pv-basename")
             for i in range(10)]
    assert len({s.K for s in named}) == 1
    others = [make_member(gpk, gipk, rng, nonce=f"o{i}".encode())
              for i in range(3)]
    pseudonyms = {named[0].K}
    for other in others:
        sig = epid.sign_membership(other, gpk, b"m", b"n", EMPTY, EMPTY, rng,
                                   basename=b"pv-basename")
        pseudonyms.add(sig.K)
    assert len(pseudonyms) == 4


def test_criterion_05_soundness_sweep(accept_group):
    gpk, gipk = accept_group
    rng = random.Random(5)
    revoked_a = make_member(gpk, gipk, rng)
    revoked_b = make_member(gpk, gipk, rng)
    signer = make_member(gpk, gipk, rng)

    sig_rl = EMPTY
    for victim in (revoked_a, revoked_b):
        s = epid.sign_membership(victim, gpk, b"x", b"y", EMPTY, EMPTY, rng)
        sig_rl = epid.revoke_signature(sig_rl, s.B, s.K)
    s = epid.sign_membership(revoked_a, gpk, b"x", b"y2", EMPTY, EMPTY, rng)
    issuer_rl = epid.revoke_signature(EMPTY, s.B, s.K)

    sig = epid.sign_membership(signer, gpk, b"msg", b"npv", sig_rl, issuer_rl,
                               rng)
    assert epid.verify_membership(gpk, b"msg", b"npv", sig, sig_rl, issuer_rl)
    assert len(sig.nonrevocation_sig) == 2 and len(sig.nonrevocation_iss) == 1

    perturbed = 0
    for field in ("B", "K", "T", "c", "s_e", "s_f", "s_v",
                  "sig_rl_epoch", "issuer_rl_epoch"):
        bad = dataclasses.replace(sig, **{field: getattr(sig, field) + 1})
        assert not epid.verify_membership(gpk, b"msg", b"npv", bad, sig_rl,
                                          issuer_rl), field
        perturbed += 1
    for attr in ("nonrevocation_sig", "nonrevocation_iss"):
        entries = getattr(sig, attr)
        for i, entry in enumerate(entries):
            for field in ("W", "c", "s_alpha", "s_beta"):
                bad_entry = dataclasses.replace(entry,
                                                **{field: getattr(entry, field) + 1})
                new_entries = entries[:i] + (bad_entry,) + entries[i + 1:]
                bad = dataclasses.replace(sig, **{attr: new_entries})
                assert not epid.verify_membership(
                    gpk, b"msg", b"npv", bad, sig_rl, issuer_rl), (attr, i, field)
                perturbed += 1
    assert perturbed == 9 + 3 * 4


def _forge_signature_around_revocation(gpk, sk, sig_rl, message, nonce, rng,
                                       fake_W=None):
    """What a revoked signer can actually construct: a fully honest sigma1
    plus a sigma2 entry whose algebra holds.  For its own RL entry the only
    provable W is the identity; ``fake_W`` substitutes an arbitrary value
    instead (which breaks the proof equation)."""
    prof = gpk.profile
    p, q, N = gpk.p, gpk.q, gpk.N
    from chainanchor.groupmath import random_subgroup_element

    B = random_subgroup_element(p, q, rng)
    K = pow(B, sk.f, p)
    w = rng.getrandbits(prof.l_v + prof.l_phi - prof.l_e)
    T = sk.A * pow(gpk.S, w, N) % N
    v_hat = sk.v - sk.e * w
    r_e = rng.getrandbits(prof.l_e_prime + prof.l_phi + prof.l_H)
    r_f = rng.getrandbits(prof.l_f + prof.l_phi + prof.l_H)
    r_v = rng.getrandbits(prof.l_v + prof.l_phi + prof.l_H)
    t1 = pow(T, r_e, N) * pow(gpk.R, r_f, N) * pow(gpk.S, r_v, N) % N
    t2 = pow(B, r_f, p)
    c = epid._sigma1_challenge(gpk, B, K, T, t1, t2, sig_rl.epoch, 0,
                               nonce, message)

    B_i, K_i = sig_rl.entries[0]
    mu = rand_below(rng, q - 1) + 1
    W = 1 if fake_W is None else fake_W       # (B_i^f / K_i)^mu == 1 here
    r_a, r_b = rand_below(rng, q), rand_below(rng, q)
    t_a = pow(B_i, r_a, p) * pow(K_i, -r_b, p) % p
    t_b = pow(B, r_a, p) * pow(K, -r_b, p) % p
    c_i = epid._nonrevocation_challenge(b"sig-rl", c, 0, B_i, K_i, B, K, W,
                                        t_a, t_b, prof.l_H)
    entry = epid.NonRevocationProof(
        W=W, c=c_i, s_alpha=(r_a + c_i * (sk.f * mu % q)) % q,
        s_beta=(r_b + c_i * mu) % q)
    return epid.MembershipSignature(
        B=B, K=K, T=T, c=c,
        s_e=r_e + c * (sk.e - (1 << (prof.l_e - 1))),
        s_f=r_f + c * sk.f, s_v=r_v + c * v_hat,
        sig_rl_epoch=sig_rl.epoch, issuer_rl_epoch=0,
        nonrevocation_sig=(entry,), nonrevocation_iss=())


def test_criterion_06_revocation(accept_group):
    gpk, gipk = accept_group
    rng = random.Random(6)
    members = [make_member(gpk, gipk, rng, nonce=f"m{i}".encode())
               for i in range(10)]
    victim = members[0]

    first = epid.sign_membership(victim, gpk, b"m", b"n", EMPTY, EMPTY, rng)
    assert epid.verify_membership(gpk, b"m", b"n", first, EMPTY, EMPTY)
    sig_rl = epid.revoke_signature(EMPTY, first.B, first.K)

    with pytest.raises(RevokedKeyError, match="revoked"):
        epid.sign_membership(victim, gpk, b"m2", b"n2", sig_rl, EMPTY, rng)

    # bypass attempt 1: everything honest except W = 1 (the only value the
    # revoked signer can prove); exactly the W != 1 clause must fire
    forged = _forge_signature_around_revocation(gpk, victim, sig_rl,
                                                b"m2", b"n2", rng)
    res = epid.verify_membership(gpk, b"m2", b"n2", forged, sig_rl, EMPTY)
    assert not res and res.reason.endswith("W identity")

    # bypass attempt 2: substitute a non-identity W; the proof equation
    # cannot hold for it
    forged = _forge_signature_around_revocation(gpk, victim, sig_rl,
                                                b"m2", b"n2", rng,
                                                fake_W=pow(first.B, 7, gpk.p))
    res = epid.verify_membership(gpk, b"m2", b"n2", forged, sig_rl, EMPTY)
    assert not res and res.reason.endswith("proof")

    # the other nine members still sign and verify against the updated list
    for sk in members[1:]:
        sig = epid.sign_membership(sk, gpk, b"m3", b"n3", sig_rl, EMPTY, rng)
        assert epid.verify_membership(gpk, b"m3", b"n3", sig, sig_rl, EMPTY)


def test_criterion_07_access_control_safety(accept_group):
    gpk, _ = accept_group
    group = schnorr.SigningGroup(gpk.p, gpk.q, gpk.u)
    rng = random.Random(7)

    for run in range(20):
        clock = LogicalClock()
        members = [schnorr.generate_keypair(group, rng)
                   for _ in range(2 + rand_below(rng, 3))]
        outsiders = [schnorr.generate_keypair(group, rng)
                     for _ in range(1 + rand_below(rng, 3))]
        registered = {kp.public for kp in members}
        db_view = registered.__contains__
        node = ledger.ConsensusNode(f"honest-{run}")
        expected_dropped = []
        for round_no in range(3):
            pool = ledger.TransactionPool(group)
            for kp in members + outsiders:
                clock.tick()
                tx = ledger.create_transaction(
                    kp, f"r{run}.{round_no}".encode(), clock)
                ledger.submit(pool, tx)
                if kp.public not in registered:
                    expected_dropped.append(tx.txid)
            ledger.node_process(node, pool, db_view, clock)
        assert ledger.chain_scan_membership(node.chain, db_view)
        assert [txid for txid, _ in node.drop_log] == expected_dropped
        assert all(reason == "not-a-member" for _, reason in node.drop_log)

        # dishonest node over the same population: the validators must flag
        # exactly the non-member transactions
        cheater = ledger.ConsensusNode(f"cheater-{run}", dishonest=True)
        pool = ledger.TransactionPool(group)
        violating = set()
        for kp in members + outsiders:
            clock.tick()
            tx = ledger.create_transaction(kp, b"cheat round", clock)
            ledger.submit(pool, tx)
            if kp.public not in registered:
                violating.add(tx.txid)
        block = ledger.node_process(cheater, pool, db_view, clock)
        report = ledger.validator_audit(db_view, block)
        assert {txid for txid, _ in report.violations} == violating
        assert not ledger.chain_scan_membership(cheater.chain, db_view)


def test_criterion_08_identity_separation():
    world, failures = run_demo(21)
    assert failures == []
    verifier_bytes = world.transcript.received_by(roles.VERIFIER_ID)
    issuer_bytes = world.transcript.received_by(roles.ISSUER_ID)
    enrolled = [u for name, u in world.users.items() if u.enrollments]
    assert len(enrolled) == 3
    for user in enrolled:
        assert user.internet_identity.encode() not in verifier_bytes
    registered = {pk for pk, _ in world.verifier.permissions_db.entries.items()}
    assert len(registered) == 5
    for pk in registered:
        assert int_to_bytes(pk) not in issuer_bytes
        assert hex(pk).encode() not in issuer_bytes
        assert hex(pk)[2:].encode() not in issuer_bytes


def test_criterion_09_determinism(tmp_path):
    world_a, failures_a = run_demo(42)
    world_b, failures_b = run_demo(42)
    assert failures_a == [] and failures_b == []
    assert world_a.transcript_text() == world_b.transcript_text()
    assert world_a.state_hash() == world_b.state_hash()

    path = tmp_path / "demo-world.json"
    world_a.save(str(path))
    reloaded = World.load(str(path))
    assert reloaded.state_hash() == world_a.state_hash()
    assert reloaded.transcript_text() == world_a.transcript_text()
    assert doc_bytes(reloaded.to_doc()) == doc_bytes(world_a.to_doc())


def test_criterion_10_psk_agreement(accept_group):
    gpk, gipk = accept_group
    stage = Stage(gpk, gipk, seed=10)
    for i in range(5):
        user = stage.enroll_and_join(f"psk-user{i}")
        session_id, session = stage.prove(user)
        assert session.psk == stage.verifier.sessions[session_id].psk

    # tampering the user's share: rejected, no session on either side
    user = stage.enroll_and_join("psk-tamper-a")
    sid, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    stage.transcript.tamper = _share_squarer(gpk, "step-6.4")
    with pytest.raises(ProtocolError, match="confirmation failed"):
        roles.user_prove_membership(user, stage.verifier, sid, 0,
                                    stage.transcript, stage.rng, stage.clock)
    stage.transcript.tamper = None
    assert sid not in stage.verifier.sessions
    assert sid not in user.psk_sessions

    # tampering the verifier's share: same outcome
    sid2, _, _ = roles.pv_challenge(stage.verifier, stage.rng, stage.clock)
    stage.transcript.tamper = _share_squarer(gpk, "step-6.5")
    with pytest.raises(ProtocolError, match="confirmation failed"):
        roles.user_prove_membership(user, stage.verifier, sid2, 0,
                                    stage.transcript, stage.rng, stage.clock)
    stage.transcript.tamper = None
    assert sid2 not in stage.verifier.sessions
    assert sid2 not in user.psk_sessions
