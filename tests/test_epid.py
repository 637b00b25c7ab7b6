import dataclasses
import functools
import math
import random
import re

import pytest
import sympy

from chainanchor import epid, groupmath
from chainanchor.errors import (
    CredentialError,
    InvariantViolation,
    ProtocolError,
    RevokedKeyError,
)
from chainanchor.groupmath import (
    fiat_shamir_challenge,
    gen_prime,
    hash_to_subgroup,
    is_probable_prime,
    random_subgroup_element,
)
from chainanchor.world import World
from conftest import TINY, make_member

EMPTY = epid.RevocationList()
MSG = b"challenge message m"
NONCE = b"nonce-pv"


def sign(sk, gpk, rng, msg=MSG, nonce=NONCE, sig_rl=EMPTY, issuer_rl=EMPTY,
         basename=None):
    return epid.sign_membership(sk, gpk, msg, nonce, sig_rl, issuer_rl, rng,
                                basename=basename)


def verify(gpk, sig, msg=MSG, nonce=NONCE, sig_rl=EMPTY, issuer_rl=EMPTY,
           basename=None):
    return epid.verify_membership(gpk, msg, nonce, sig, sig_rl, issuer_rl,
                                  basename=basename)


# ---------------------------------------------------------------------------
# setup + validation

def test_setup_produces_valid_gpk(desk_group):
    gpk, gipk = desk_group
    assert epid.validate_gpk(gpk)
    assert gipk.p_N * gipk.q_N == gpk.N


def test_generators_are_quadratic_residues(desk_group):
    # Legendre symbols via the known factorization: every derived element
    # must be a square modulo both prime factors.
    gpk, gipk = desk_group
    for x in (gpk.g_prime, gpk.g, gpk.h, gpk.R, gpk.S, gpk.Z):
        assert pow(x, (gipk.p_N - 1) // 2, gipk.p_N) == 1
        assert pow(x, (gipk.q_N - 1) // 2, gipk.q_N) == 1


def test_validate_rejects_low_order_u(desk_gpk):
    # p-1 has order 2 mod p, like 22 mod 23
    bad = dataclasses.replace(desk_gpk, u=desk_gpk.p - 1)
    res = epid.validate_gpk(bad)
    assert not res and res.reason == "u order"


def test_validate_rejects_composite_q(desk_gpk):
    # An even q of the right length, and a prime p = k*q + 1: only the
    # prime test of q can refuse this key.
    q = desk_gpk.q - 1
    k = (1 << (desk_gpk.profile.l_p - 1)) // q + 1
    while not sympy.isprime(k * q + 1):
        k += 1
    bad = dataclasses.replace(desk_gpk, p=k * q + 1, q=q, u=2)
    res = epid.validate_gpk(bad)
    assert not res and res.reason == "q not prime"


def _refused(gpk, reason, **change):
    """Assert that ``gpk`` with ``change`` cannot be built, in memory or
    from a document, and that both refusals give ``reason``."""
    with pytest.raises(ValueError) as refused:
        dataclasses.replace(gpk, **change)
    assert str(refused.value) == reason
    doc = dict(gpk.to_doc(), **{k: hex(v) for k, v in change.items()})
    with pytest.raises(ProtocolError,
                       match=f"^malformed document: {re.escape(reason)}$"):
        epid.GroupPublicKey.from_doc(doc)


def test_validate_names_p_without_order_q_subgroup(desk_gpk):
    rng = random.Random(12)
    while True:
        p = gen_prime(desk_gpk.profile.l_p, rng)
        if (p - 1) % desk_gpk.q != 0:
            break
    _refused(desk_gpk, "need 1 < q < p with q | (p - 1)", p=p)


def test_validate_rejects_tampered_proof(desk_gpk):
    proofs = list(desk_gpk.correctness_proofs)
    proofs[0] = dataclasses.replace(proofs[0], c=proofs[0].c + 1)
    bad = dataclasses.replace(desk_gpk, correctness_proofs=tuple(proofs))
    res = epid.validate_gpk(bad)
    assert not res and res.reason.startswith("proof")


def test_validate_rejects_wrong_lengths(desk_gpk):
    _refused(desk_gpk, "N length", N=desk_gpk.N >> 1)


def test_malformed_key_is_refused_before_any_power(desk_group, monkeypatch):
    # The key's type refuses it: no proof is checked, no power is taken.
    desk_gpk, gipk = desk_group
    proofs = []
    monkeypatch.setattr(epid, "_verify_dlog",
                        lambda *args: proofs.append(args) or True)
    before = groupmath.MULTIPLICATIONS.copy()
    for change, reason in (({"N": desk_gpk.N >> 1}, "N length"),
                           ({"p": desk_gpk.p << 1}, "p length"),
                           ({"q": desk_gpk.q >> 1}, "q length"),
                           ({"h": desk_gpk.N}, "h range"),
                           ({"Z": 0}, "Z range"),
                           ({"g": gipk.p_N}, "g range"),
                           ({"u": 1}, "need 1 < u < p")):
        _refused(desk_gpk, reason, **change)
    assert proofs == [] and groupmath.MULTIPLICATIONS == before


# ---------------------------------------------------------------------------
# the per-process memo of group-key verdicts

def _spy_check(monkeypatch):
    """Count the full validations that validate_gpk runs from now on, from
    an empty memo, so that an earlier test cannot hide a run."""
    epid.validate_gpk.cache_clear()
    runs = []
    check = epid._check_gpk

    def spy(gpk):
        runs.append(gpk)
        return check(gpk)

    monkeypatch.setattr(epid, "_check_gpk", spy)
    return runs


def test_validate_remembers_accepted_key_by_value(desk_gpk, monkeypatch):
    runs = _spy_check(monkeypatch)
    assert epid.validate_gpk(desk_gpk)
    copy = epid.GroupPublicKey.from_doc(desk_gpk.to_doc())
    assert copy is not desk_gpk
    assert epid.validate_gpk(copy)
    assert runs == [desk_gpk]


def _field_changes(gpk):
    proofs = gpk.correctness_proofs
    changes = {name: {name: getattr(gpk, name) + 1}
               for name in ("N", "g_prime", "g", "h", "R", "S", "Z",
                            "p", "q", "u")}
    changes["proof s"] = {"correctness_proofs": (
        dataclasses.replace(proofs[0], s=proofs[0].s + 1),) + proofs[1:]}
    changes["proof label"] = {"correctness_proofs": (
        dataclasses.replace(proofs[0], label="x"),) + proofs[1:]}
    changes["profile"] = {"profile": dataclasses.replace(
        gpk.profile, l_p=gpk.profile.l_p + 1)}
    return changes


def test_validate_reruns_and_rejects_any_changed_field(desk_gpk, monkeypatch):
    # A change that the key's type refuses never reaches validate_gpk.
    runs = _spy_check(monkeypatch)
    assert epid.validate_gpk(desk_gpk)
    refused = {}
    for name, change in _field_changes(desk_gpk).items():
        try:
            bad = dataclasses.replace(desk_gpk, **change)
        except ValueError as exc:
            refused[name] = str(exc)
            continue
        assert not epid.validate_gpk(bad), name
        assert runs[-1] is bad, name
    assert refused == {"N": "g_prime range",  # N + 1 is even, and so is g'
                       "p": "need 1 < q < p with q | (p - 1)",
                       "q": "need 1 < q < p with q | (p - 1)",
                       "profile": "p length"}


def test_validate_never_records_rejected_key(desk_gpk, monkeypatch):
    # Both verdicts are memoized: a repeated rejection gives the same
    # reason from memory, and the check runs once.
    bad = dataclasses.replace(desk_gpk, u=desk_gpk.p - 1)
    runs = _spy_check(monkeypatch)
    for _ in range(2):
        res = epid.validate_gpk(bad)
        assert not res and res.reason == "u order"
    assert runs == [bad]


def test_validate_record_stays_bounded(desk_gpk, monkeypatch):
    # The issuer basename is outside every validation clause, so each of
    # these keys is distinct and valid.
    runs = _spy_check(monkeypatch)
    info = epid.validate_gpk.cache_info
    keys = [dataclasses.replace(desk_gpk, issuer_basename=b"bound-%d" % i)
            for i in range(info().maxsize + 3)]
    for key in keys:
        assert epid.validate_gpk(key)
        assert epid.validate_gpk(key)           # a hit
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize == 8
    assert runs == keys


def test_issuer_crt_power_matches_builtin_pow(desk_group):
    gpk, gipk = desk_group
    N, order = gpk.N, gipk.qr_order
    rng = random.Random(21)
    exponents = [0, 1, -1, -rng.getrandbits(600), order, order + 3,
                 gipk.p_N - 1, N, rng.getrandbits(2000)]
    bases = [gpk.R, gpk.S, gpk.Z, N - 1]
    while len(bases) < 12:
        x = rng.getrandbits(gpk.profile.l_N) % N
        if math.gcd(x, N) == 1:
            bases.append(x)
    for base in bases:
        for exp in exponents:
            assert (gipk.pow_N(((base, exp, None),))
                    == pow(base, exp, N)), (base, exp)
    for exp in (0, 1, 5, gipk.p_N - 1):
        assert gipk.pow_N(((gipk.p_N, exp, None),)) == pow(gipk.p_N, exp, N)
    with pytest.raises(ValueError):
        gipk.pow_N(((gipk.q_N, -1, None),))
    # Products: fresh and comb terms together, one base divisible by p_N.
    v_bits = epid._v_bits(gpk.profile)
    for terms in (((gpk.R, 5, None), (gpk.S, -3, None)),
                  ((bases[4], exponents[3], None), (bases[5], exponents[8], None),
                   (gpk.Z, -1, None)),
                  ((gipk.p_N, 3, None), (gpk.R, 7, None)),
                  ((5 * gipk.p_N, order + 3, None), (bases[6], -1, None),
                   (gpk.S, exponents[8], v_bits)),
                  ((gpk.R, order, v_bits), (gipk.q_N, 0, None),
                   (bases[7], -exponents[8], None))):
        expect = 1
        for base, exp, _ in terms:
            expect = expect * pow(base, exp, N) % N
        assert gipk.pow_N(terms) == expect, terms
    with pytest.raises(ValueError):
        gipk.pow_N(((gpk.R, 3, None), (bases[4], 2, None),
                    (gipk.p_N, -1, None)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_issuer_fixed_base_crt_power_matches_builtin_pow(desk_group):
    # The comb path reduces the exponent mod P-1; a base divisible by a
    # factor must still give pow's 0, 1 or ValueError on that side.
    gpk, gipk = desk_group
    N, order = gpk.N, gipk.qr_order
    p_N, q_N = gipk.p_N, gipk.q_N
    rng = random.Random(22)
    bits = epid._v_bits(gpk.profile)
    exponents = [0, 1, 2, -1, -rng.getrandbits(300), order, order + 1,
                 2 * order, p_N - 1, 3 * (p_N - 1), q_N - 1,
                 (p_N - 1) * (q_N - 1), N, rng.getrandbits(bits)]
    bases = [gpk.R, gpk.S, p_N, q_N, 3 * p_N, q_N * (N - 1), N - 1, N + gpk.S]
    for base in bases:
        for exp in exponents:
            assert (_outcome(gipk.pow_N, ((base, exp, bits),))
                    == _outcome(pow, base, exp, N)), (base, exp)
    # an exponent longer than the stated bound still gets a right answer
    long_exp = rng.getrandbits(3 * gpk.profile.l_N)
    assert gipk.pow_N(((gpk.Z, long_exp, 8),)) == pow(gpk.Z, long_exp, N)


def test_setup_group_raises_if_its_key_fails_validation(monkeypatch):
    # A check, not an assert: it must hold under python -O too.
    monkeypatch.setattr(epid, "validate_gpk", lambda gpk: epid._fail("probe"))
    with pytest.raises(InvariantViolation, match="invalid group key: probe"):
        epid.setup_group(TINY, b"tiny", random.Random(3))


def test_gpk_doc_round_trip(desk_gpk):
    again = epid.GroupPublicKey.from_doc(desk_gpk.to_doc())
    assert again == desk_gpk
    assert again.transcript_bytes() == desk_gpk.transcript_bytes()


# ---------------------------------------------------------------------------
# join

def test_join_round_trip(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(10)
    state, req = epid.join_request(gpk, b"n-1", rng)
    assert epid.verify_join_request(gpk, req, b"n-1", gipk)
    # blinded commitment recomputes from the retained secrets
    assert req.U == pow(gpk.R, state.f, gpk.N) * pow(gpk.S, state.v_prime, gpk.N) % gpk.N
    B_I = hash_to_subgroup(gpk.issuer_basename, gpk.p, gpk.q)
    assert req.K_I == pow(B_I, state.f, gpk.p)


def test_join_deterministic_under_seed(desk_gpk):
    a = epid.join_request(desk_gpk, b"n", random.Random(77))
    b = epid.join_request(desk_gpk, b"n", random.Random(77))
    assert (a[1].U, a[1].K_I) == (b[1].U, b[1].K_I)


def test_join_rejects_invalid_gpk(desk_gpk):
    bad = dataclasses.replace(desk_gpk, u=desk_gpk.p - 1)
    with pytest.raises(ProtocolError):
        epid.join_request(bad, b"n", random.Random(1))


def test_join_request_tamper_detected(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(11)
    _, req = epid.join_request(gpk, b"n", rng)
    bad = dataclasses.replace(req, U=req.U * gpk.R % gpk.N)
    assert not epid.verify_join_request(gpk, bad, b"n", gipk)


def test_join_request_nonce_binding(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(12)
    _, req = epid.join_request(gpk, b"n-a", rng)
    assert not epid.verify_join_request(gpk, req, b"n-b", gipk)
    replay = dataclasses.replace(req, nonce_echo=b"n-b")
    assert not epid.verify_join_request(gpk, replay, b"n-b", gipk)


def test_issue_credential_equation(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(13)
    _, req = epid.join_request(gpk, b"n", rng)
    resp = epid.issue_credential(gpk, gipk, req, b"n", rng)
    lhs = pow(resp.A, resp.e, gpk.N) * req.U % gpk.N
    lhs = lhs * pow(gpk.S, resp.v_double_prime, gpk.N) % gpk.N
    assert lhs == gpk.Z
    lo = 1 << (gpk.profile.l_e - 1)
    assert lo <= resp.e <= lo + (1 << (gpk.profile.l_e_prime - 1))
    assert is_probable_prime(resp.e)


def test_issue_credential_randomized(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(14)
    _, req = epid.join_request(gpk, b"n", rng)
    r1 = epid.issue_credential(gpk, gipk, req, b"n", rng)
    r2 = epid.issue_credential(gpk, gipk, req, b"n", rng)
    assert (r1.A, r1.e) != (r2.A, r2.e)


def test_issue_credential_rejects_bad_request(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(15)
    _, req = epid.join_request(gpk, b"n", rng)
    bad = dataclasses.replace(req, U=req.U * gpk.R % gpk.N)
    with pytest.raises(ProtocolError):
        epid.issue_credential(gpk, gipk, bad, b"n", rng)


def test_complete_join_checks_credential(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(16)
    state, req = epid.join_request(gpk, b"n", rng)
    resp = epid.issue_credential(gpk, gipk, req, b"n", rng)
    key = epid.complete_join(state, resp, gpk)
    assert epid.key_relation_holds(gpk, key)
    assert key.v == state.v_prime + resp.v_double_prime

    tampered = dataclasses.replace(resp, A=resp.A + 1)
    with pytest.raises(CredentialError, match="credential invalid"):
        epid.complete_join(state, tampered, gpk)


def test_join_tests_its_e_once_in_one_process(monkeypatch):
    # The issuer accepts e and the member checks it again; in one process
    # the member's check is a memo hit, so the uncached test runs on e once.
    uncached = is_probable_prime.__wrapped__
    tested = []

    def counting(n):
        tested.append(n)
        return uncached(n)

    memo = functools.lru_cache(
        maxsize=is_probable_prime.cache_info().maxsize)(counting)
    for module in (groupmath, epid):
        monkeypatch.setattr(module, "is_probable_prime", memo)
    world = World.create("memo", groupmath.DESK, 11)
    world.enroll("a")
    hits = memo.cache_info().hits
    world.join("a")
    e = world.users["a"].member_keys[0].e
    assert tested.count(e) == 1
    assert memo.cache_info().hits == hits + 1


def test_composite_e_rejected_after_a_join_memoized_its_prime(desk_group,
                                                              monkeypatch):
    gpk, gipk = desk_group
    rng = random.Random(18)
    state, req = epid.join_request(gpk, b"n", rng)
    resp = epid.issue_credential(gpk, gipk, req, b"n", rng)
    epid.complete_join(state, resp, gpk)
    # A dishonest issuer picks a composite e in the interval with no factor
    # below 4096 and builds a consistent A for it, so only the primality
    # test stands between it and the member key.
    lo, hi = epid._e_interval(gpk.profile)
    small = 4099
    composite = small * sympy.nextprime(lo // small + 1)
    assert lo <= composite <= hi and math.gcd(composite, gipk.qr_order) == 1
    monkeypatch.setattr(epid, "gen_prime_in_range", lambda lo, hi, rng: composite)
    state, req = epid.join_request(gpk, b"m", rng)
    forged = epid.issue_credential(gpk, gipk, req, b"m", rng)
    assert forged.e == composite
    key = epid.UserMemberPrivateKey(A=forged.A, e=composite, f=state.f,
                                    v=state.v_prime + forged.v_double_prime)
    assert epid.key_relation_holds(gpk, key)
    with pytest.raises(CredentialError, match="credential invalid"):
        epid.complete_join(state, forged, gpk)


# ---------------------------------------------------------------------------
# sign / verify

def test_sign_verify_round_trip(desk_gpk, member_key):
    rng = random.Random(17)
    sig = sign(member_key, desk_gpk, rng)
    assert verify(desk_gpk, sig)


def test_completeness_randomized(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(18)
    for trial in range(5):
        sk = make_member(gpk, gipk, rng, nonce=f"n{trial}".encode())
        msg = rng.getrandbits(128).to_bytes(16, "big")
        nonce = rng.getrandbits(128).to_bytes(16, "big")
        sig = epid.sign_membership(sk, gpk, msg, nonce, EMPTY, EMPTY, rng)
        assert epid.verify_membership(gpk, msg, nonce, sig, EMPTY, EMPTY)


def test_signer_raises_each_revoked_base_to_f_once(desk_gpk, member_key,
                                                  monkeypatch):
    rng = random.Random(22)
    entries = []
    for _ in range(3):
        B_i = random_subgroup_element(desk_gpk.p, desk_gpk.q, rng)
        entries.append((B_i, random_subgroup_element(desk_gpk.p, desk_gpk.q,
                                                      rng)))
    rl = epid.RevocationList(entries=tuple(entries), epoch=1)
    raised = []

    def counting_modexp(base, exp, mod, bits=None):
        if mod == desk_gpk.p and bits is None and exp == member_key.f:
            raised.append(base)
        return groupmath.modexp(base, exp, mod, bits)

    monkeypatch.setattr(epid, "modexp", counting_modexp)
    sig = sign(member_key, desk_gpk, rng, sig_rl=rl)
    assert sorted(raised) == sorted(B_i for B_i, _ in entries)
    assert verify(desk_gpk, sig, sig_rl=rl)


def _random_rl(gpk, n, rng, epoch=None):
    return epid.RevocationList(
        entries=tuple((random_subgroup_element(gpk.p, gpk.q, rng),
                       random_subgroup_element(gpk.p, gpk.q, rng))
                      for _ in range(n)),
        epoch=n if epoch is None else epoch)


def _count_epid_powers_mod_p(gpk, monkeypatch):
    """The (base, exponent) pairs of the single builtin powers mod p
    (``modexp`` without ``bits``) that epid takes from now on, with the
    subgroup-verdict record cleared first."""
    groupmath.in_subgroup.cache_clear()
    bases = []

    def counting_modexp(base, exp, mod, bits=None):
        if mod == gpk.p and bits is None:
            bases.append((base, exp))
        return groupmath.modexp(base, exp, mod, bits)

    monkeypatch.setattr(epid, "modexp", counting_modexp)
    return bases


@pytest.mark.parametrize("n", [0, 3])
def test_random_base_signer_powers_mod_p_are_per_entry_only(
        desk_gpk, member_key, monkeypatch, n):
    # B = u^r, so K, t2 and each t_b run on u's comb, and t_a is one
    # power_product: the single builtin powers left are B_i^f, K_i^-1 and
    # W, three per entry, and each B_i and K_i is raised once.
    rng = random.Random(23)
    rl = _random_rl(desk_gpk, n, rng)
    powers = _count_epid_powers_mod_p(desk_gpk, monkeypatch)
    sig = sign(member_key, desk_gpk, rng, sig_rl=rl)
    assert len(powers) == 3 * n
    bases = [base for base, _ in powers]
    for B_i, K_i in rl.entries:
        assert bases.count(B_i) == 1 and bases.count(K_i) == 1
        assert (B_i, member_key.f) in powers and (K_i, -1) in powers
    monkeypatch.undo()
    assert verify(desk_gpk, sig, sig_rl=rl)


@pytest.mark.parametrize("n", [0, 3])
def test_random_base_verifier_powers_mod_p_are_the_entry_inverses(
        desk_gpk, member_key, monkeypatch, n):
    # t2, t_a and t_b are each one power_product; besides the order checks
    # (in groupmath), the verifier's only single builtin powers mod p are
    # K_i^-1.
    rng = random.Random(27)
    rl = _random_rl(desk_gpk, n, rng)
    sig = sign(member_key, desk_gpk, rng, sig_rl=rl)
    powers = _count_epid_powers_mod_p(desk_gpk, monkeypatch)
    assert verify(desk_gpk, sig, sig_rl=rl)
    assert powers == [(K_i, -1) for _, K_i in rl.entries]


def test_a_long_rl_s_base_checks_are_paid_once(desk_gpk, member_key):
    # Under a revocation list of 100 entries the signer checks each B_i's
    # order.  The verdicts outlast a verification, whose fresh W checks
    # come between, so the second signature under the same list skips
    # every B_i's power by q (~240 multiplications each on desk).
    rng = random.Random(36)
    rl = _random_rl(desk_gpk, 100, rng)
    groupmath.in_subgroup.cache_clear()
    counts = []
    for _ in range(2):
        groupmath.MULTIPLICATIONS.clear()
        sig = sign(member_key, desk_gpk, rng, sig_rl=rl)
        counts.append(sum(groupmath.MULTIPLICATIONS.values()))
        assert verify(desk_gpk, sig, sig_rl=rl)
    assert counts[0] - counts[1] >= 20000, counts


def _tamper_entry(sig, tag, i, **fields):
    name = "nonrevocation_sig" if tag == "sig-rl" else "nonrevocation_iss"
    proofs = list(getattr(sig, name))
    proofs[i] = dataclasses.replace(proofs[i], **fields)
    return dataclasses.replace(sig, **{name: tuple(proofs)})


def test_a_tampered_entry_at_every_position_is_named(desk_gpk, member_key):
    gpk = desk_gpk
    p, q = gpk.p, gpk.q
    rng = random.Random(31)
    sig_rl = _random_rl(gpk, 3, rng)
    issuer_rl = _random_rl(gpk, 2, rng, epoch=1)
    sig = sign(member_key, gpk, rng, sig_rl=sig_rl, issuer_rl=issuer_rl)
    assert verify(gpk, sig, sig_rl=sig_rl, issuer_rl=issuer_rl)
    other = random_subgroup_element(p, q, rng)
    for tag, proofs in (("sig-rl", sig.nonrevocation_sig),
                        ("issuer-rl", sig.nonrevocation_iss)):
        for i, pr in enumerate(proofs):
            for fields, reason in (
                    ({"W": 1}, "W identity"),
                    ({"W": p - 1}, "W subgroup"),
                    ({"W": other}, "proof"),
                    ({"c": pr.c ^ 1}, "proof"),
                    ({"s_alpha": (pr.s_alpha + 1) % q}, "proof"),
                    ({"s_beta": (pr.s_beta + 1) % q}, "proof"),
                    ({"s_beta": q}, "response range"),
                    ({"c": 1 << gpk.profile.l_H}, "challenge range")):
                bad = _tamper_entry(sig, tag, i, **fields)
                res = verify(gpk, bad, sig_rl=sig_rl, issuer_rl=issuer_rl)
                assert not res and res.reason == f"{tag} entry {i} {reason}", (
                    tag, i, fields)


def test_verifier_inverts_an_rl_key_outside_the_subgroup(desk_gpk, member_key,
                                                        monkeypatch):
    # K_i = p - 1 has order 2, so K_i^-s_beta must not become
    # K_i^(-s_beta mod q): the two differ in sign for an odd q.
    gpk = desk_gpk
    p = gpk.p
    rng = random.Random(32)
    rl = _random_rl(gpk, 3, rng)
    sig = sign(member_key, gpk, rng, sig_rl=rl)
    entries = list(rl.entries)
    B_1 = entries[1][0]
    entries[1] = (B_1, p - 1)
    altered = dataclasses.replace(rl, entries=tuple(entries))
    hashed = []
    challenge = epid._nonrevocation_challenge

    def spy(tag, main_c, index, B_i, K_i, B, K, W, t_a, t_b, l_H):
        hashed.append((index, t_a))
        return challenge(tag, main_c, index, B_i, K_i, B, K, W, t_a, t_b, l_H)

    monkeypatch.setattr(epid, "_nonrevocation_challenge", spy)
    res = verify(gpk, sig, sig_rl=altered)
    assert not res and res.reason == "sig-rl entry 1 proof"
    pr = sig.nonrevocation_sig[1]
    assert groupmath.in_subgroup(pr.W, p, gpk.q)
    assert hashed[-1] == (1, pow(B_1, pr.s_alpha, p) * pow(p - 1, -pr.s_beta, p)
                          * pow(pr.W, -pr.c, p) % p)


@pytest.mark.parametrize("K_i", ["p", 0, 1])
def test_verifier_refuses_an_rl_key_outside_the_signers_range(
        desk_gpk, member_key, K_i):
    # A K_i the signer would refuse (not in (1, p)) is named, never
    # inverted: a multiple of p has no inverse.
    gpk = desk_gpk
    p, u = gpk.p, gpk.u
    rl = epid.RevocationList(entries=((u, pow(u, 5, p)),), epoch=1)
    sig = sign(member_key, gpk, random.Random(11), sig_rl=rl)
    assert sig.nonrevocation_sig[0].s_beta
    altered = epid.RevocationList(entries=((u, p if K_i == "p" else K_i),),
                                  epoch=1)
    res = verify(gpk, sig, sig_rl=altered)
    assert not res and res.reason == "sig-rl entry 0 range"


def test_signature_doc_round_trip(desk_gpk, member_key):
    rng = random.Random(19)
    sig = sign(member_key, desk_gpk, rng)
    again = epid.MembershipSignature.from_doc(sig.to_doc())
    assert again == sig
    assert verify(desk_gpk, again)


def test_random_base_signatures_unlinkable(desk_gpk, member_key):
    rng = random.Random(20)
    sigs = [sign(member_key, desk_gpk, rng) for _ in range(3)]
    for field in ("B", "K", "T", "c"):
        values = {getattr(s, field) for s in sigs}
        assert len(values) == len(sigs)


def test_named_base_pseudonym_stable(desk_group, member_key):
    gpk, gipk = desk_group
    rng = random.Random(21)
    a = sign(member_key, gpk, rng, basename=b"verifier-basename")
    b = sign(member_key, gpk, rng, nonce=b"other", basename=b"verifier-basename")
    assert a.K == b.K and a.B == b.B
    assert a.T != b.T and a.c != b.c
    other = make_member(gpk, gipk, random.Random(22))
    c = sign(other, gpk, rng, basename=b"verifier-basename")
    assert c.K != a.K


def test_named_base_check_refuses_other_bases(desk_gpk, member_key,
                                              monkeypatch):
    rng = random.Random(24)
    named = sign(member_key, desk_gpk, rng, basename=b"verifier-basename")
    assert verify(desk_gpk, named, basename=b"verifier-basename")
    random_base = sign(member_key, desk_gpk, rng)
    assert verify(desk_gpk, random_base)

    def no_power(*args):
        raise AssertionError("a refused base must cost no power")

    monkeypatch.setattr(epid, "in_subgroup", no_power)
    for sig, name in ((random_base, b"verifier-basename"),
                      (named, b"other-basename")):
        res = verify(desk_gpk, sig, basename=name)
        assert not res and res.reason == "basename"


def test_verify_rejects_wrong_message_or_nonce(desk_gpk, member_key):
    rng = random.Random(23)
    sig = sign(member_key, desk_gpk, rng)
    assert not verify(desk_gpk, sig, msg=b"other message")
    assert not verify(desk_gpk, sig, nonce=b"other nonce")


def test_verify_tamper_smoke(desk_gpk, member_key):
    rng = random.Random(24)
    sig = sign(member_key, desk_gpk, rng)
    for field in ("T", "c", "s_e", "s_f", "s_v"):
        bad = dataclasses.replace(sig, **{field: getattr(sig, field) + 1})
        assert not verify(desk_gpk, bad), field


def test_verify_rejects_oversized_response(desk_gpk, member_key):
    # Same algebra as the signer but with r_f far outside its interval:
    # the challenge recomputation still matches, the interval check must
    # reject anyway.
    gpk, sk = desk_gpk, member_key
    prof = gpk.profile
    rng = random.Random(25)
    p, q, N = gpk.p, gpk.q, gpk.N
    B = random_subgroup_element(p, q, rng)
    K = pow(B, sk.f, p)
    w = rng.getrandbits(prof.l_v + prof.l_phi - prof.l_e)
    T = sk.A * pow(gpk.S, w, N) % N
    v_hat = sk.v - sk.e * w
    r_e = rng.getrandbits(prof.l_e_prime + prof.l_phi + prof.l_H)
    r_f = rng.getrandbits(prof.l_f + prof.l_phi + prof.l_H + 8)  # oversized
    r_f |= 1 << (prof.l_f + prof.l_phi + prof.l_H + 7)
    r_v = rng.getrandbits(prof.l_v + prof.l_phi + prof.l_H)
    t1 = pow(T, r_e, N) * pow(gpk.R, r_f, N) * pow(gpk.S, r_v, N) % N
    t2 = pow(B, r_f, p)
    c = epid._sigma1_challenge(gpk, B, K, T, t1, t2, 0, 0, NONCE, MSG)
    sig = epid.MembershipSignature(
        B=B, K=K, T=T, c=c,
        s_e=r_e + c * (sk.e - (1 << (prof.l_e - 1))),
        s_f=r_f + c * sk.f, s_v=r_v + c * v_hat,
        sig_rl_epoch=0, issuer_rl_epoch=0,
        nonrevocation_sig=(), nonrevocation_iss=())
    res = verify(desk_gpk, sig)
    assert not res and res.reason == "s_f interval"


def test_sign_rejects_mismatched_key(desk_gpk, member_key):
    wrong = dataclasses.replace(member_key, f=member_key.f + 1)
    with pytest.raises(ProtocolError):
        sign(wrong, desk_gpk, random.Random(26))


def _spy_key_relation(monkeypatch):
    """Count the member-key relation checks run from now on, from an empty
    memo, so that an earlier test cannot hide a run."""
    epid._member_key_matches.cache_clear()
    runs = []
    holds = epid.key_relation_holds

    def spy(gpk, key):
        runs.append(key)
        return holds(gpk, key)

    monkeypatch.setattr(epid, "key_relation_holds", spy)
    return runs


def test_sign_checks_an_equal_member_key_once(desk_gpk, member_key,
                                              monkeypatch):
    rng = random.Random(29)
    runs = _spy_key_relation(monkeypatch)
    assert verify(desk_gpk, sign(member_key, desk_gpk, rng))
    copy = dataclasses.replace(member_key)
    assert copy is not member_key
    assert verify(desk_gpk, sign(copy, desk_gpk, rng))
    assert runs == [member_key]


@pytest.mark.parametrize("field", ["A", "e", "f", "v"])
def test_sign_rejects_a_member_key_changed_in_one_field(desk_gpk, member_key,
                                                        field, monkeypatch):
    runs = _spy_key_relation(monkeypatch)
    sign(member_key, desk_gpk, random.Random(30))      # the pair is recorded
    wrong = dataclasses.replace(member_key,
                                **{field: getattr(member_key, field) + 1})
    # The failed relation is memoized too: the same refusal, checked once.
    for _ in range(2):
        with pytest.raises(ProtocolError,
                           match="member key does not match group public key"):
            sign(wrong, desk_gpk, random.Random(31))
    assert runs == [member_key, wrong]


def test_member_key_record_stays_bounded(desk_group, monkeypatch):
    gpk, gipk = desk_group
    rng = random.Random(32)
    runs = _spy_key_relation(monkeypatch)
    info = epid._member_key_matches.cache_info
    keys = []
    for _ in range(info().maxsize + 2):
        keys.append(make_member(gpk, gipk, rng))
        assert epid._member_key_matches(gpk, keys[-1])     # a hit
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize == 16
    assert runs == keys


def test_key_with_a_non_invertible_Z_or_S_cannot_be_built(desk_group):
    # verify_membership raises Z and S to negative powers mod N: a key
    # whose Z or S has no inverse is refused before any verify.
    gpk, gipk = desk_group
    for name in ("Z", "S"):
        for factor in (gipk.p_N, gipk.q_N):
            _refused(gpk, f"{name} range", **{name: factor})


def test_blinding_hides_secret_distribution(desk_gpk):
    # U = R^f S^v' over fresh v' should look the same for two different f:
    # compare mean bit frequency of the commitment bytes.
    gpk = desk_gpk
    rng = random.Random(27)

    def mean_bit(f):
        total = 0.0
        for _ in range(100):
            v_prime = rng.getrandbits(gpk.profile.l_v)
            U = pow(gpk.R, f, gpk.N) * pow(gpk.S, v_prime, gpk.N) % gpk.N
            bits = bin(U)[2:].zfill(gpk.profile.l_N)
            total += bits.count("1") / len(bits)
        return total / 100

    f1 = rng.getrandbits(gpk.profile.l_f)
    f2 = rng.getrandbits(gpk.profile.l_f)
    assert abs(mean_bit(f1) - mean_bit(f2)) < 0.02


# ---------------------------------------------------------------------------
# revocation

def test_revocation_lists_append_and_idempotence():
    rl = epid.revoke_signature(EMPTY, 5, 7)
    assert rl.entries == ((5, 7),) and rl.epoch == 1
    again = epid.revoke_signature(rl, 5, 7)
    assert again is rl and again.epoch == 1
    more = epid.revoke_signature(rl, 6, 8)
    assert more.epoch == 2 and len(more.entries) == 2


def test_rl_doc_round_trip():
    rl = epid.revoke_signature(epid.revoke_signature(EMPTY, 3, 9), 4, 16)
    assert epid.RevocationList.from_doc(rl.to_doc()) == rl


def test_signature_revocation_end_to_end(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(28)
    victim = make_member(gpk, gipk, rng)
    other = make_member(gpk, gipk, rng)

    sig = epid.sign_membership(victim, gpk, MSG, NONCE, EMPTY, EMPTY, rng)
    assert epid.verify_membership(gpk, MSG, NONCE, sig, EMPTY, EMPTY)
    sig_rl = epid.revoke_signature(EMPTY, sig.B, sig.K)

    with pytest.raises(RevokedKeyError, match="revoked"):
        epid.sign_membership(victim, gpk, MSG, NONCE, sig_rl, EMPTY, rng)

    ok = epid.sign_membership(other, gpk, MSG, NONCE, sig_rl, EMPTY, rng)
    assert epid.verify_membership(gpk, MSG, NONCE, ok, sig_rl, EMPTY)


def test_issuer_revocation_by_join_pseudonym(desk_group):
    # The issuer can revoke using the (B_I, K_I) pair from the join.
    gpk, gipk = desk_group
    rng = random.Random(29)
    state, req = epid.join_request(gpk, b"n", rng)
    sk = epid.complete_join(
        state, epid.issue_credential(gpk, gipk, req, b"n", rng), gpk)
    B_I = hash_to_subgroup(gpk.issuer_basename, gpk.p, gpk.q)
    issuer_rl = epid.revoke_signature(EMPTY, B_I, req.K_I)
    with pytest.raises(RevokedKeyError):
        epid.sign_membership(sk, gpk, MSG, NONCE, EMPTY, issuer_rl, rng)
    other = make_member(gpk, gipk, rng, nonce=b"n2")
    sig = epid.sign_membership(other, gpk, MSG, NONCE, EMPTY, issuer_rl, rng)
    assert epid.verify_membership(gpk, MSG, NONCE, sig, EMPTY, issuer_rl)


def test_stale_epoch_rejected(desk_group, member_key):
    gpk, _ = desk_group
    rng = random.Random(30)
    sig = sign(member_key, gpk, rng)
    moved = epid.revoke_signature(EMPTY, 12345, 6789)  # unrelated entry
    res = epid.verify_membership(gpk, MSG, NONCE, sig, moved, EMPTY)
    assert not res and res.reason == "epoch"


def test_forged_nonrevocation_entry_fails(desk_group):
    # A revoked signer cannot fabricate sigma2: any W it can prove for its
    # own entry is the identity, and a random W breaks the proof.
    gpk, gipk = desk_group
    rng = random.Random(31)
    victim = make_member(gpk, gipk, rng)
    sig = epid.sign_membership(victim, gpk, MSG, NONCE, EMPTY, EMPTY, rng)
    sig_rl = epid.revoke_signature(EMPTY, sig.B, sig.K)

    honest = epid.sign_membership(victim, gpk, MSG, NONCE, EMPTY, EMPTY, rng)
    fake_entry = epid.NonRevocationProof(
        W=random_subgroup_element(gpk.p, gpk.q, rng),
        c=fiat_shamir_challenge([b"fake"], gpk.profile.l_H),
        s_alpha=rng.getrandbits(gpk.profile.l_q - 1),
        s_beta=rng.getrandbits(gpk.profile.l_q - 1))
    forged = dataclasses.replace(honest, sig_rl_epoch=sig_rl.epoch,
                                 nonrevocation_sig=(fake_entry,))
    assert not epid.verify_membership(gpk, MSG, NONCE, forged, sig_rl, EMPTY)
