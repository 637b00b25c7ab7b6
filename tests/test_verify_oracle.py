"""verify_membership and verify_join_request against textbook verifiers
written from the equations.

Each reference raises every power with builtin ``pow`` and full-size
exponents, checks each order strictly and in the order the scheme states
its checks, and uses no combs, no Straus chains and no partner.  Each
signature or join-request field is perturbed one at a time, and the
verdict and reason of the production verifier must be the reference's.
"""

import dataclasses
import math
import os
import random

import pytest

from chainanchor import epid, groupmath
from chainanchor.groupmath import hash_to_subgroup, random_subgroup_element


def _in_order_q(x, p, q):
    return 1 < x < p and pow(x, q, p) == 1


def _reference_verify_membership(gpk, message, nonce_pv, sig, sig_rl,
                                 issuer_rl):
    """The reason of the first failing check, or "" for a valid signature."""
    prof = gpk.profile
    N, p, q = gpk.N, gpk.p, gpk.q
    if sig.sig_rl_epoch != sig_rl.epoch or sig.issuer_rl_epoch != issuer_rl.epoch:
        return "epoch"
    if len(sig.nonrevocation_sig) != len(sig_rl.entries):
        return "sig-rl length"
    if len(sig.nonrevocation_iss) != len(issuer_rl.entries):
        return "issuer-rl length"
    for name, value in (("B", sig.B), ("K", sig.K)):
        if not _in_order_q(value, p, q):
            return f"{name} subgroup"
    for holds, reason in (
            (1 <= sig.T < N, "T range"),
            (0 <= sig.c < 2 ** prof.l_H, "challenge range"),
            (0 <= sig.s_e < 2 ** (prof.l_e_prime + prof.l_phi + prof.l_H + 1),
             "s_e interval"),
            (0 <= sig.s_f < 2 ** (prof.l_f + prof.l_phi + prof.l_H + 1),
             "s_f interval"),
            (abs(sig.s_v) < 2 ** (prof.l_v + prof.l_phi + prof.l_H + 1),
             "s_v interval")):
        if not holds:
            return reason
    # t1 = Z^-c T^(s_e + c 2^(l_e - 1)) R^s_f S^s_v and t2 = B^s_f K^-c.
    t1 = (pow(gpk.Z, -sig.c, N)
          * pow(sig.T, sig.s_e + sig.c * 2 ** (prof.l_e - 1), N)
          * pow(gpk.R, sig.s_f, N) * pow(gpk.S, sig.s_v, N)) % N
    t2 = pow(sig.B, sig.s_f, p) * pow(sig.K, -sig.c, p) % p
    if epid._sigma1_challenge(gpk, sig.B, sig.K, sig.T, t1, t2,
                              sig.sig_rl_epoch, sig.issuer_rl_epoch,
                              nonce_pv, message) != sig.c:
        return "sigma1"
    for tag, rl, proofs in ((b"sig-rl", sig_rl, sig.nonrevocation_sig),
                            (b"issuer-rl", issuer_rl, sig.nonrevocation_iss)):
        for i, ((B_i, K_i), pr) in enumerate(zip(rl.entries, proofs)):
            label = f"{tag.decode()} entry {i}"
            if not 1 < K_i < p:
                return f"{label} range"
            if pr.W == 1:
                return f"{label} W identity"
            if not _in_order_q(pr.W, p, q):
                return f"{label} W subgroup"
            if not (0 <= pr.s_alpha < q and 0 <= pr.s_beta < q):
                return f"{label} response range"
            if not 0 <= pr.c < 2 ** prof.l_H:
                return f"{label} challenge range"
            # t_a = B_i^s_alpha K_i^-s_beta W^-c, t_b = B^s_alpha K^-s_beta.
            t_a = (pow(B_i, pr.s_alpha, p) * pow(K_i, -pr.s_beta, p)
                   * pow(pr.W, -pr.c, p)) % p
            t_b = pow(sig.B, pr.s_alpha, p) * pow(sig.K, -pr.s_beta, p) % p
            if epid._nonrevocation_challenge(tag, sig.c, i, B_i, K_i, sig.B,
                                             sig.K, pr.W, t_a, t_b,
                                             prof.l_H) != pr.c:
                return f"{label} proof"
    return ""


def _perturbed(value, p, modulus, bound, rng, small=()):
    """A random value below ``bound``, an out-of-range value, the honest
    value times p - 1 and times each element of ``small``, reduced mod the
    ``modulus`` of an element."""
    yield rng.randrange(bound)
    yield bound
    yield value * (p - 1) % modulus if modulus else value * (p - 1)
    yield from (value * g % modulus for g in small)


def _small_order(p, q):
    """Elements of order 3 and 7 mod p, which the desk group has: both
    divide (p - 1) / q."""
    elements = []
    for order in (3, 7):
        assert (p - 1) // q % order == 0
        element = next(g for g in (pow(x, (p - 1) // order, p)
                                   for x in range(2, p)) if g != 1)
        assert pow(element, order, p) == 1
        elements.append(element)
    return elements


def _variants(gpk, sig, other, rng):
    """(label, signature) pairs, each with one field perturbed; the fields
    taken mod p also by elements of order 3 and 7."""
    prof, N, p, q = gpk.profile, gpk.N, gpk.p, gpk.q
    challenge = 1 << prof.l_H
    small = _small_order(p, q)
    # (field, modulus of an element or None for an exponent, bound)
    for field, modulus, bound in (
            ("B", p, p), ("K", p, p), ("T", N, N), ("c", None, challenge),
            ("s_e", None, 1 << (prof.l_e_prime + prof.l_phi + prof.l_H + 1)),
            ("s_f", None, 1 << epid._f_bits(prof)),
            ("s_v", None, 1 << epid._v_bits(prof))):
        for value in _perturbed(getattr(sig, field), p, modulus, bound, rng,
                                small if modulus == p else ()):
            yield field, dataclasses.replace(sig, **{field: value})
    for name in ("nonrevocation_sig", "nonrevocation_iss"):
        proofs = getattr(sig, name)
        for i, proof in enumerate(proofs):
            changes = [(f"{name}[{i}] swapped", getattr(other, name)[i])]
            for field, modulus, bound in (("W", p, p), ("c", None, challenge),
                                          ("s_alpha", None, q),
                                          ("s_beta", None, q)):
                changes += [(f"{name}[{i}].{field}",
                             dataclasses.replace(proof, **{field: value}))
                            for value in _perturbed(
                                getattr(proof, field), p, modulus, bound,
                                rng, small if modulus == p else ())]
            for label, changed in changes:
                yield label, dataclasses.replace(sig, **{name: (
                    *proofs[:i], changed, *proofs[i + 1:])})


@pytest.mark.parametrize("rule", ["split", "in order"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_verify_membership_matches_the_textbook_verifier(
        desk_gpk, member_key, monkeypatch, n, rule):
    gpk = desk_gpk
    if rule == "split":
        # Desk batches are split with the partner, on two CPUs or one.
        monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = random.Random(100 + n)
    sig_rl, issuer_rl = (epid.RevocationList(entries=tuple(
        (random_subgroup_element(gpk.p, gpk.q, rng),
         random_subgroup_element(gpk.p, gpk.q, rng)) for _ in range(n)),
        epoch=epoch) for epoch in (n, 2 * n))
    sig, other = (epid.sign_membership(member_key, gpk, b"m", b"n", sig_rl,
                                       issuer_rl, rng) for _ in range(2))
    refused = 0
    try:
        for label, bad in [("honest", sig),
                           *_variants(gpk, sig, other, rng)]:
            expect = _reference_verify_membership(gpk, b"m", b"n", bad,
                                                  sig_rl, issuer_rl)
            res = epid.verify_membership(gpk, b"m", b"n", bad, sig_rl,
                                         issuer_rl)
            assert (bool(res), res.reason) == (not expect, expect), label
            refused += not res
    finally:
        groupmath.stop_partner()
    # Three values per field, two more for each of B, K and W.
    assert refused == 3 * 7 + 2 * 2 + n * 2 * (4 * 3 + 2 + 1)


def _small_order_proof(gpk, sig, f, B_i, K_i, W, order, rng):
    """A revoked signer's proof for its own entry (B_i, K_i = B_i^f) with a
    ``W`` of small ``order``, whose challenge is ground until the power of W
    that the verifier computes, W^(-c mod q), is 1.  Returns (proof,
    hashes)."""
    p, q, l_H = gpk.p, gpk.q, gpk.profile.l_H
    mu = rng.randrange(1, q)
    for hashes in range(1, 65):
        r_a, r_b = rng.randrange(q), rng.randrange(q)
        # B_i^r_a K_i^-r_b and B^r_a K^-r_b: the honest commitments, with
        # alpha = f*mu and beta = mu.
        t_a = pow(B_i, r_a, p) * pow(K_i, -r_b, p) % p
        t_b = pow(sig.B, r_a, p) * pow(sig.K, -r_b, p) % p
        c = epid._nonrevocation_challenge(b"sig-rl", sig.c, 0, B_i, K_i,
                                          sig.B, sig.K, W, t_a, t_b, l_H)
        if -c % q % order == 0:
            return epid.NonRevocationProof(
                W=W, c=c, s_alpha=(r_a + c * f * mu) % q,
                s_beta=(r_b + c * mu) % q), hashes
    raise AssertionError(f"no exponent divisible by {order} in 64 challenges")


@pytest.mark.parametrize("order", [2, 3, 7], ids=["W=p-1", "order-3",
                                                  "order-7"])
def test_revoked_signer_with_a_small_order_w_is_refused(desk_gpk, member_key,
                                                        order):
    # The signer's own pseudonym is on the sig-RL.  With W = p - 1, or an
    # element of order 3 or 7, and a ground challenge, the verifier's proof
    # equation holds, so only W's order check can refuse (the small-order
    # attack on a batched or unchecked non-revocation proof).
    gpk, sk = desk_gpk, member_key
    p, q = gpk.p, gpk.q
    W = {2: p - 1, **dict(zip((3, 7), _small_order(p, q)))}[order]
    rng = random.Random(300)
    old = epid.sign_membership(sk, gpk, b"m0", b"n0", epid.RevocationList(),
                               epid.RevocationList(), rng)
    sig_rl = epid.RevocationList(entries=((old.B, old.K),), epoch=1)
    with pytest.raises(epid.RevokedKeyError):
        epid.sign_membership(sk, gpk, b"m", b"n", sig_rl,
                             epid.RevocationList(), rng)
    # sigma1 binds the epoch, not the entries: sign over a stand-in entry
    # and swap in the forged proof for the real one.
    stand_in = epid.RevocationList(entries=((
        random_subgroup_element(p, q, rng),
        random_subgroup_element(p, q, rng)),), epoch=1)
    sig = epid.sign_membership(sk, gpk, b"m", b"n", stand_in,
                               epid.RevocationList(), rng)
    proof, hashes = _small_order_proof(gpk, sig, sk.f, old.B, old.K, W, order,
                                       rng)
    assert hashes <= 4 * order
    forged = dataclasses.replace(sig, nonrevocation_sig=(proof,))
    # The equation the verifier checks holds for this W.
    t_a = (pow(old.B, proof.s_alpha, p) * pow(old.K, -proof.s_beta, p)
           * pow(proof.W, -proof.c % q, p)) % p
    t_b = pow(sig.B, proof.s_alpha, p) * pow(sig.K, -proof.s_beta, p) % p
    assert epid._nonrevocation_challenge(
        b"sig-rl", sig.c, 0, old.B, old.K, sig.B, sig.K, proof.W, t_a, t_b,
        gpk.profile.l_H) == proof.c
    for verify in (epid.verify_membership, _reference_verify_membership):
        res = verify(gpk, b"m", b"n", forged, sig_rl, epid.RevocationList())
        reason = res if isinstance(res, str) else res.reason
        assert reason == "sig-rl entry 0 W subgroup", verify


def test_rl_entry_whose_k_i_has_an_order_two_part(desk_gpk, member_key):
    # K_i = p - K_0 has order 2q, so K_i^-s_beta must be an inverse raised
    # to s_beta, never K_i^(-s_beta mod q): q is odd, so that flips the
    # sign.  W carries (-1)^mu, so some seeds are refused on W's order and
    # some on the proof, and those with an even mu whose responses keep
    # the parity of r_b are accepted.
    gpk = desk_gpk
    p, q = gpk.p, gpk.q
    rng = random.Random(400)
    B_i, K_0 = (random_subgroup_element(p, q, rng) for _ in range(2))
    sig_rl = epid.RevocationList(entries=((B_i, p - K_0),), epoch=1)
    reasons = []
    for seed in range(8):
        sig = epid.sign_membership(member_key, gpk, b"m", b"n", sig_rl,
                                   epid.RevocationList(),
                                   random.Random(seed))
        expect = _reference_verify_membership(gpk, b"m", b"n", sig, sig_rl,
                                              epid.RevocationList())
        res = epid.verify_membership(gpk, b"m", b"n", sig, sig_rl,
                                     epid.RevocationList())
        assert (bool(res), res.reason) == (not expect, expect), seed
        reasons.append(expect)
    assert set(reasons) == {"", "sig-rl entry 0 W subgroup",
                            "sig-rl entry 0 proof"}


def test_signature_with_minus_k_and_a_ground_challenge_is_refused(
        desk_gpk, member_key, monkeypatch):
    # The signer hashes K' = p - K into sigma1 and grinds its seed until
    # -c mod q is even: then K'^(-c mod q) = K^(-c mod q), the verifier's
    # t2 is the honest one, and only K's order check can refuse K'.
    gpk = desk_gpk
    p, q = gpk.p, gpk.q
    challenge = epid._sigma1_challenge
    with monkeypatch.context() as patch:
        patch.setattr(epid, "_sigma1_challenge",
                      lambda gpk, B, K, *rest: challenge(gpk, B, p - K, *rest))
        for seed in range(64):
            sig = epid.sign_membership(member_key, gpk, b"m", b"n",
                                       epid.RevocationList(),
                                       epid.RevocationList(),
                                       random.Random(500 + seed))
            if -sig.c % q % 2 == 0:
                break
        else:
            raise AssertionError("no even exponent in 64 challenges")
    forged = dataclasses.replace(sig, K=p - sig.K)
    for verify in (epid.verify_membership, _reference_verify_membership):
        res = verify(gpk, b"m", b"n", forged, epid.RevocationList(),
                     epid.RevocationList())
        reason = res if isinstance(res, str) else res.reason
        assert reason == "K subgroup", verify


def _reference_verify_join(gpk, req, issuer_nonce, gipk):
    """The issuer's reason for the first failing check of a join request,
    or "" for a valid one; U must also be a square mod N."""
    prof = gpk.profile
    N, p, q = gpk.N, gpk.p, gpk.q
    pr = req.proof
    if req.nonce_echo != issuer_nonce:
        return "nonce"
    if not (1 <= req.U < N and math.gcd(req.U, N) == 1):
        return "U range"
    # Euler's criterion modulo each prime factor of N.
    if not all(pow(req.U, (P - 1) // 2, P) == 1
               for P in (gipk.p_N, gipk.q_N)):
        return "U not a quadratic residue"
    if not _in_order_q(req.K_I, p, q):
        return "K_I range"
    for holds, reason in (
            (0 <= pr.c < 2 ** prof.l_H, "challenge range"),
            (0 <= pr.s_f < 2 ** (prof.l_f + prof.l_phi + prof.l_H + 1),
             "s_f interval"),
            (0 <= pr.s_v < 2 ** (prof.l_v + prof.l_phi + prof.l_H + 1),
             "s_v interval")):
        if not holds:
            return reason
    # t1 = R^s_f S^s_v U^-c and t2 = B_I^s_f K_I^-c.
    B_I = hash_to_subgroup(gpk.issuer_basename, p, q)
    t1 = (pow(gpk.R, pr.s_f, N) * pow(gpk.S, pr.s_v, N)
          * pow(req.U, -pr.c, N)) % N
    t2 = pow(B_I, pr.s_f, p) * pow(req.K_I, -pr.c, p) % p
    if epid._join_challenge(gpk, B_I, req.U, req.K_I, t1, t2, issuer_nonce,
                            prof.l_H) != pr.c:
        return "proof"
    return ""


def _join_variants(gpk, req, rng):
    """(label, join request) pairs, each with one field perturbed: U times
    N - 1 and K_I times p - 1 for their third value, and K_I also by
    elements of order 3 and 7."""
    prof, N, p = gpk.profile, gpk.N, gpk.p
    small = _small_order(p, gpk.q)
    for field, value in (
            *(("U", value) for value in _perturbed(req.U, N, N, N, rng)),
            *(("K_I", value)
              for value in _perturbed(req.K_I, p, p, p, rng, small))):
        yield field, dataclasses.replace(req, **{field: value})
    for field, bound in (("c", 1 << prof.l_H),
                         ("s_f", 1 << epid._f_bits(prof)),
                         ("s_v", 1 << epid._v_bits(prof))):
        for value in _perturbed(getattr(req.proof, field), p, None, bound,
                                rng):
            yield field, dataclasses.replace(req, proof=dataclasses.replace(
                req.proof, **{field: value}))


@pytest.mark.parametrize("rule", ["split", "in order"])
def test_verify_join_request_matches_the_textbook_verifier(
        desk_group, monkeypatch, rule):
    gpk, gipk = desk_group
    if rule == "split":
        monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = random.Random(201)
    refused = 0
    try:
        for _ in range(2):
            _, req = epid.join_request(gpk, b"nonce", rng)
            for label, bad in [("honest", req),
                               *_join_variants(gpk, req, rng)]:
                expect = _reference_verify_join(gpk, bad, b"nonce", gipk)
                res = epid.verify_join_request(gpk, bad, b"nonce", gipk)
                assert (bool(res), res.reason) == (not expect, expect), label
                refused += not res
    finally:
        groupmath.stop_partner()
    # Three values per field, two more for K_I.
    assert refused == 2 * (5 * 3 + 2)
