"""RSA-group anonymous membership scheme.

One group public key verifies signatures from many independently issued
member keys.  A member key is a Camenisch-Lysyanskaya credential (A, e, f, v)
with A^e * R^f * S^v = Z (mod N); membership signatures are Fiat-Shamir
signatures of knowledge over that relation plus a pseudonym K = B^f in a
prime-order subgroup, and carry non-revocation proofs against two
revocation lists.

Every verifier-facing check returns a :class:`Check` whose ``reason`` names
the first failed clause; prover-side failures raise exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CredentialError,
    InvariantViolation,
    ProtocolError,
    RevokedKeyError,
)
from .groupmath import (
    ParameterProfile,
    beside,
    canonical_encode,
    fiat_shamir_challenge,
    fixed_base_pow,
    gen_prime_in_range,
    gen_rsa_group,
    gen_schnorr_group,
    hash_to_subgroup,
    in_subgroup,
    int_to_bytes,
    is_probable_prime,
    jacobi,
    multiexp,
    power_product,
    rand_below,
    rand_range,
    remember,
    subgroup_pow,
)
from .serial import JsonInt, Record, SignedInt


@dataclass(frozen=True)
class Check:
    """Boolean verdict plus the first failing clause, for diagnostics."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


OK = Check(True)


def _fail(reason: str) -> Check:
    return Check(False, reason)


def _enc(*values) -> list:
    out = []
    for v in values:
        out.append(v if isinstance(v, bytes) else int_to_bytes(v))
    return out


# ---------------------------------------------------------------------------
# group keys

@dataclass(frozen=True)
class DlogProof:
    """Knowledge of x with value = base^x (mod N), order of the group hidden."""

    label: str
    c: int
    s: int


def _dlog_challenge(label: str, N: int, base: int, value: int, t: int, l_H: int) -> int:
    return fiat_shamir_challenge(
        _enc(b"generator-proof", label.encode(), N, base, value, t), l_H)


def _prove_dlog(label, N, base, value, exponent, profile, rng,
                gipk) -> DlogProof:
    r = rng.getrandbits(profile.l_N + profile.l_phi + profile.l_H)
    t = gipk.pow_N(base, r)
    c = _dlog_challenge(label, N, base, value, t, profile.l_H)
    return DlogProof(label, c, r + c * exponent)


def _verify_dlog(proof: DlogProof, N, base, value, profile) -> bool:
    bound = 1 << (profile.l_N + profile.l_phi + profile.l_H + 1)
    if not (0 <= proof.c < (1 << profile.l_H) and 0 <= proof.s < bound):
        return False
    try:
        t = pow(base, proof.s, N) * pow(value, -proof.c, N) % N
    except ValueError:
        return False
    return _dlog_challenge(proof.label, N, base, value, t, profile.l_H) == proof.c


@dataclass(frozen=True)
class GroupPublicKey(Record):
    """Membership verification public key (N, g', g, h, R, S, Z, p, q, u)."""

    N: int
    g_prime: int
    g: int
    h: int
    R: int
    S: int
    Z: int
    p: int
    q: int
    u: int
    profile: ParameterProfile
    issuer_basename: bytes
    correctness_proofs: tuple[DlogProof, ...]

    def transcript_bytes(self) -> bytes:
        return canonical_encode(_enc(
            b"group-public-key", self.N, self.g_prime, self.g, self.h,
            self.R, self.S, self.Z, self.p, self.q, self.u,
            self.issuer_basename, self.profile.transcript_bytes()))


@dataclass(frozen=True)
class GroupIssuingPrivateKey:
    """Factorization of N; never serialized next to the public key."""

    p_N: int
    q_N: int
    p_N_prime: int
    q_N_prime: int

    @property
    def qr_order(self) -> int:
        return self.p_N_prime * self.q_N_prime

    def pow_N(self, base: int, exp: int, bits: Optional[int] = None) -> int:
        """``pow(base, exp, N)`` by the Chinese remainder theorem: two
        half-size powers with the exponent reduced mod p_N-1 and q_N-1.

        ``bits`` marks a fixed base (R, S) and bounds its exponents: the
        half-size powers then run on comb tables, which hold powers modulo
        the secret factors and so stay in this process's memory and its
        partner's (see ``groupmath.beside``), which computes the q_N half.
        """
        x_q, x_p = beside(
            (_prime_term(base, exp, self.q_N, bits),), self.q_N,
            lambda: power_product((_prime_term(base, exp, self.p_N, bits),),
                                  self.p_N))
        h = (x_p - x_q) * pow(self.q_N, -1, self.p_N) % self.p_N
        return x_q + h * self.q_N

    def is_quadratic_residue(self, x: int) -> bool:
        """Legendre symbol 1 modulo both factors."""
        return jacobi(x, self.p_N) == 1 and jacobi(x, self.q_N) == 1


def _prime_term(base: int, exp: int, P: int, bits: Optional[int]):
    """The ``power_product`` term for ``base^exp`` mod the prime P."""
    if base % P == 0:
        return base, exp, None  # pow's 0, 1 or ValueError
    if bits is not None:
        return base, exp % (P - 1), min(bits, P.bit_length())
    # Builtin pow inverts first: a short negative exponent (a challenge)
    # stays short.
    return base, exp % (P - 1) if exp >= 0 else -(-exp % (P - 1)), None


def setup_group(profile: ParameterProfile, issuer_basename: bytes, rng):
    """Create a fresh group: returns (GroupPublicKey, GroupIssuingPrivateKey).

    g' generates the quadratic residues mod N; g, h are random powers of g'
    (h a generator of that subgroup) and R, S, Z random powers of h, each
    accompanied by a discrete-log knowledge proof.
    """
    p_N, q_N = gen_rsa_group(profile, rng)
    N = p_N * q_N
    gipk = GroupIssuingPrivateKey(p_N, q_N, (p_N - 1) // 2, (q_N - 1) // 2)
    order = gipk.qr_order

    while True:
        x = rand_range(rng, 2, N)
        if math.gcd(x, N) != 1:
            continue
        g_prime = x * x % N
        # gcd(g'-1, N) == 1 rules out elements that collapse mod a factor.
        if g_prime != 1 and math.gcd(g_prime - 1, N) == 1:
            break

    def random_power(base, generator_needed=False):
        while True:
            a = rand_range(rng, 1, order)
            if generator_needed and math.gcd(a, order) != 1:
                continue
            return gipk.pow_N(base, a), a

    g, exp_g = random_power(g_prime)
    h, exp_h = random_power(g_prime, generator_needed=True)
    R, exp_R = random_power(h)
    S, exp_S = random_power(h)
    Z, exp_Z = random_power(h)

    proofs = (
        _prove_dlog("g", N, g_prime, g, exp_g, profile, rng, gipk),
        _prove_dlog("h", N, g_prime, h, exp_h, profile, rng, gipk),
        _prove_dlog("R", N, h, R, exp_R, profile, rng, gipk),
        _prove_dlog("S", N, h, S, exp_S, profile, rng, gipk),
        _prove_dlog("Z", N, h, Z, exp_Z, profile, rng, gipk),
    )

    p, q, u = gen_schnorr_group(profile, rng)
    gpk = GroupPublicKey(N=N, g_prime=g_prime, g=g, h=h, R=R, S=S, Z=Z,
                         p=p, q=q, u=u, profile=profile,
                         issuer_basename=issuer_basename,
                         correctness_proofs=proofs)
    check = validate_gpk(gpk)
    if not check:
        raise InvariantViolation(
            f"setup produced an invalid group key: {check.reason}")
    return gpk, gipk


# Group keys this process has accepted, oldest first.  Keyed on the frozen
# key itself, so a hit needs every field equal, proofs and profile included.
_ACCEPTED_GPKS: dict[GroupPublicKey, None] = {}
_ACCEPTED_GPKS_MAX = 8


def validate_gpk(gpk: GroupPublicKey) -> Check:
    """Check proofs, subgroup structure and parameter lengths of a group key.

    A key that passes is remembered for the life of the process, so a key
    equal to one already accepted (a reload, a delivered copy) costs a hash
    lookup; a rejected key is never remembered.
    """
    if gpk in _ACCEPTED_GPKS:
        return OK
    check = _check_gpk(gpk)
    if check:
        remember(_ACCEPTED_GPKS, gpk, None, _ACCEPTED_GPKS_MAX)
    return check


def _check_gpk(gpk: GroupPublicKey) -> Check:
    prof = gpk.profile
    # The cheap checks come first, so a malformed key costs no power.
    if gpk.N.bit_length() != prof.l_N:
        return _fail("N length")
    if gpk.p.bit_length() != prof.l_p:
        return _fail("p length")
    if gpk.q.bit_length() != prof.l_q:
        return _fail("q length")
    for name, value in (("g_prime", gpk.g_prime), ("g", gpk.g), ("h", gpk.h),
                        ("R", gpk.R), ("S", gpk.S), ("Z", gpk.Z)):
        if not 2 <= value < gpk.N or math.gcd(value, gpk.N) != 1:
            return _fail(f"{name} range")

    bases = {"g": (gpk.g_prime, gpk.g), "h": (gpk.g_prime, gpk.h),
             "R": (gpk.h, gpk.R), "S": (gpk.h, gpk.S), "Z": (gpk.h, gpk.Z)}
    seen = set()
    for proof in gpk.correctness_proofs:
        if proof.label not in bases:
            return _fail(f"proof {proof.label} unknown")
        base, value = bases[proof.label]
        if not _verify_dlog(proof, gpk.N, base, value, prof):
            return _fail(f"proof {proof.label}")
        seen.add(proof.label)
    if seen != set(bases):
        return _fail("proof missing")

    if not is_probable_prime(gpk.p):
        return _fail("p not prime")
    if not is_probable_prime(gpk.q):
        return _fail("q not prime")
    if (gpk.p - 1) % gpk.q != 0:
        return _fail("q does not divide p-1")
    if ((gpk.p - 1) // gpk.q) % gpk.q == 0:
        return _fail("q square")
    if not 1 < gpk.u < gpk.p:
        return _fail("u range")
    if not in_subgroup(gpk.u, gpk.p, gpk.q):
        return _fail("u order")
    return OK


# ---------------------------------------------------------------------------
# fixed-base powers

# The widest exponents of R and S are the responses: s_f for R, s_v for S,
# one bit longer than r_f and r_v.  A comb table sized for them on first use
# is never rebuilt.  (B_I's exponents reduce mod q: see subgroup_pow.)
def _f_bits(prof: ParameterProfile) -> int:
    return prof.l_f + prof.l_phi + prof.l_H + 1


def _v_bits(prof: ParameterProfile) -> int:
    return prof.l_v + prof.l_phi + prof.l_H + 1


def _R_pow(gpk: GroupPublicKey, exp: int) -> int:
    return fixed_base_pow(gpk.R, exp, gpk.N, _f_bits(gpk.profile))


def _S_pow(gpk: GroupPublicKey, exp: int) -> int:
    return fixed_base_pow(gpk.S, exp, gpk.N, _v_bits(gpk.profile))


# ---------------------------------------------------------------------------
# join protocol

@dataclass(frozen=True)
class JoinProof:
    c: int
    s_f: int
    s_v: int


@dataclass(frozen=True)
class JoinState:
    """User-side transient join secrets (f and its blinding v')."""

    f: int
    v_prime: int


@dataclass(frozen=True)
class JoinRequest:
    U: int
    K_I: int
    proof: JoinProof
    nonce_echo: bytes


def _join_challenge(gpk, B_I, U, K_I, t1, t2, nonce, l_H) -> int:
    return fiat_shamir_challenge(
        _enc(b"join-request", gpk.transcript_bytes(), B_I, U, K_I, t1, t2, nonce),
        l_H)


def join_request(gpk: GroupPublicKey, issuer_nonce: bytes, rng):
    """Blind a fresh secret f into U = R^f S^v' and the issuer pseudonym
    K_I = B_I^f (B_I from the key's issuer basename), with a signature of
    knowledge tying the two together.

    Returns (JoinState, JoinRequest).  The group key is validated first;
    an invalid key is rejected before any secret is derived from it.
    """
    check = validate_gpk(gpk)
    if not check:
        raise ProtocolError(f"group public key rejected: {check.reason}")
    prof = gpk.profile

    B_I = hash_to_subgroup(gpk.issuer_basename, gpk.p, gpk.q)
    f = rng.getrandbits(prof.l_f)
    v_prime = rng.getrandbits(prof.l_v)
    r_f = rng.getrandbits(prof.l_f + prof.l_phi + prof.l_H)
    r_v = rng.getrandbits(prof.l_v + prof.l_phi + prof.l_H)
    U, t1 = beside(((gpk.R, f, _f_bits(prof)), (gpk.S, v_prime, _v_bits(prof))),
                   gpk.N, lambda: _R_pow(gpk, r_f) * _S_pow(gpk, r_v) % gpk.N)
    K_I = subgroup_pow(B_I, f, gpk.p, gpk.q)
    t2 = subgroup_pow(B_I, r_f, gpk.p, gpk.q)
    c = _join_challenge(gpk, B_I, U, K_I, t1, t2, issuer_nonce, prof.l_H)
    proof = JoinProof(c=c, s_f=r_f + c * f, s_v=r_v + c * v_prime)

    return (JoinState(f=f, v_prime=v_prime),
            JoinRequest(U=U, K_I=K_I, proof=proof, nonce_echo=issuer_nonce))


def verify_join_request(gpk: GroupPublicKey, req: JoinRequest,
                        issuer_nonce: bytes,
                        gipk: Optional[GroupIssuingPrivateKey] = None) -> Check:
    """Check the join proof.  With the issuing key the mod-N powers run by
    CRT and U must also be a quadratic residue, which only the issuer can
    test: a non-residue U passes the proof whenever its challenge is even."""
    prof = gpk.profile
    if req.nonce_echo != issuer_nonce:
        return _fail("nonce")
    if not 1 <= req.U < gpk.N or math.gcd(req.U, gpk.N) != 1:
        return _fail("U range")
    if gipk is not None and not gipk.is_quadratic_residue(req.U):
        return _fail("U not a quadratic residue")
    if not in_subgroup(req.K_I, gpk.p, gpk.q):
        return _fail("K_I range")
    pr = req.proof
    if not 0 <= pr.c < (1 << prof.l_H):
        return _fail("challenge range")
    if not 0 <= pr.s_f < (1 << _f_bits(prof)):
        return _fail("s_f interval")
    if not 0 <= pr.s_v < (1 << _v_bits(prof)):
        return _fail("s_v interval")
    N = gpk.N
    if gipk is not None:
        t1 = (gipk.pow_N(gpk.R, pr.s_f, _f_bits(prof))
              * gipk.pow_N(gpk.S, pr.s_v, _v_bits(prof))
              * gipk.pow_N(req.U, -pr.c)) % N
    else:
        t1 = (_R_pow(gpk, pr.s_f) * _S_pow(gpk, pr.s_v)
              * pow(req.U, -pr.c, N)) % N
    B_I = hash_to_subgroup(gpk.issuer_basename, gpk.p, gpk.q)
    # K_I passed in_subgroup, so its exponent reduces mod q.
    t2 = (subgroup_pow(B_I, pr.s_f, gpk.p, gpk.q)
          * pow(req.K_I, -pr.c % gpk.q, gpk.p) % gpk.p)
    if _join_challenge(gpk, B_I, req.U, req.K_I, t1, t2,
                       issuer_nonce, prof.l_H) != pr.c:
        return _fail("proof")
    return OK


@dataclass(frozen=True)
class CredentialResponse:
    A: int
    e: int
    v_double_prime: int


def _e_interval(profile: ParameterProfile):
    lo = 1 << (profile.l_e - 1)
    return lo, lo + (1 << (profile.l_e_prime - 1))


def issue_credential(gpk: GroupPublicKey, gipk: GroupIssuingPrivateKey,
                     req: JoinRequest, issuer_nonce: bytes, rng) -> CredentialResponse:
    """Issue (A, e, v'') with A^e * U * S^v'' = Z (mod N) for a verified request."""
    check = verify_join_request(gpk, req, issuer_nonce, gipk)
    if not check:
        raise ProtocolError(f"join request rejected: {check.reason}")
    order = gipk.qr_order
    lo, hi = _e_interval(gpk.profile)
    while True:
        e = gen_prime_in_range(lo, hi, rng)
        if math.gcd(e, order) == 1:
            break
    v_double_prime = rng.getrandbits(gpk.profile.l_v)
    blinded = req.U * gipk.pow_N(gpk.S, v_double_prime,
                                 _v_bits(gpk.profile)) % gpk.N
    A = gipk.pow_N(gpk.Z * pow(blinded, -1, gpk.N) % gpk.N, pow(e, -1, order))
    # A faulty A must never leave: gcd(A^e - x, N) would factor N.
    if gipk.pow_N(A, e) * blinded % gpk.N != gpk.Z:
        raise ProtocolError("issued credential failed its self-check")
    return CredentialResponse(A=A, e=e, v_double_prime=v_double_prime)


@dataclass(frozen=True)
class UserMemberPrivateKey:
    """Member credential (A, e, f, v): A^e * R^f * S^v = Z (mod N)."""

    A: int
    e: int
    f: int
    v: int


def key_relation_holds(gpk: GroupPublicKey, key: UserMemberPrivateKey) -> bool:
    A_e, R_f_S_v = beside(
        ((key.A, key.e, None),), gpk.N,
        lambda: _R_pow(gpk, key.f) * _S_pow(gpk, key.v) % gpk.N)
    return A_e * R_f_S_v % gpk.N == gpk.Z


# (member key, group key) pairs whose relation this process has checked and
# found to hold, oldest first.  A rejected pair is never recorded.
_ACCEPTED_MEMBER_KEYS: dict[tuple[UserMemberPrivateKey, GroupPublicKey], None] = {}
_ACCEPTED_MEMBER_KEYS_MAX = 16


def _member_key_matches(gpk: GroupPublicKey, key: UserMemberPrivateKey) -> bool:
    """``key_relation_holds``, run once per equal (key, gpk) pair."""
    if (key, gpk) in _ACCEPTED_MEMBER_KEYS:
        return True
    if not key_relation_holds(gpk, key):
        return False
    remember(_ACCEPTED_MEMBER_KEYS, (key, gpk), None, _ACCEPTED_MEMBER_KEYS_MAX)
    return True


def complete_join(state: JoinState, resp: CredentialResponse,
                  gpk: GroupPublicKey) -> UserMemberPrivateKey:
    """Assemble (A, e, f, v = v' + v'') after checking the credential."""
    lo, hi = _e_interval(gpk.profile)
    v = state.v_prime + resp.v_double_prime
    key = UserMemberPrivateKey(A=resp.A, e=resp.e, f=state.f, v=v)
    if not (lo <= resp.e <= hi and is_probable_prime(resp.e)):
        raise CredentialError()
    if not 1 <= resp.A < gpk.N or not _member_key_matches(gpk, key):
        raise CredentialError()
    return key


# ---------------------------------------------------------------------------
# revocation lists

@dataclass(frozen=True)
class RevocationList(Record):
    """Ordered (B, K) pseudonym pairs with a monotone epoch counter."""

    entries: tuple[tuple[int, int], ...] = ()
    epoch: JsonInt = 0


def revoke_signature(rl: RevocationList, B: int, K: int) -> RevocationList:
    """Append a pseudonym pair taken from a verified signature.

    Duplicate pairs are a silent no-op and leave the epoch untouched.
    """
    if (B, K) in rl.entries:
        return rl
    return RevocationList(entries=rl.entries + ((B, K),), epoch=rl.epoch + 1)


# ---------------------------------------------------------------------------
# membership signatures

@dataclass(frozen=True)
class NonRevocationProof:
    """Proof that the signer's f satisfies B_i^f != K_i for one RL entry."""

    W: int
    c: int
    s_alpha: int
    s_beta: int


@dataclass(frozen=True)
class MembershipSignature(Record):
    """sigma = (sigma1, sigma2, sigma3) over a pseudonym (B, K) and blinded
    credential T."""

    B: int
    K: int
    T: int
    c: int
    s_e: int
    s_f: int
    s_v: SignedInt
    sig_rl_epoch: JsonInt
    issuer_rl_epoch: JsonInt
    nonrevocation_sig: tuple[NonRevocationProof, ...]
    nonrevocation_iss: tuple[NonRevocationProof, ...]

    def transcript_bytes(self) -> bytes:
        parts = _enc(b"membership-signature", self.B, self.K, self.T, self.c,
                     self.s_e, self.s_f)
        parts.append(hex(self.s_v).encode())
        parts += _enc(self.sig_rl_epoch, self.issuer_rl_epoch)
        for pr in self.nonrevocation_sig + self.nonrevocation_iss:
            parts += _enc(pr.W, pr.c, pr.s_alpha, pr.s_beta)
        return canonical_encode(parts)


def _sigma1_challenge(gpk, B, K, T, t1, t2, sig_epoch, iss_epoch,
                      nonce_pv, message) -> int:
    return fiat_shamir_challenge(
        _enc(gpk.transcript_bytes(), B, K, T, t1, t2, sig_epoch, iss_epoch,
             nonce_pv, message),
        gpk.profile.l_H)


def _nonrevocation_challenge(tag, main_c, index, B_i, K_i, B, K, W,
                             t_a, t_b, l_H) -> int:
    return fiat_shamir_challenge(
        _enc(tag, main_c, index, B_i, K_i, B, K, W, t_a, t_b), l_H)


def _prove_not_revoked(tag, index, B_i, K_i, B_i_f, B, K, B_pow, f, main_c,
                       gpk, rng):
    p, q = gpk.p, gpk.q
    mu = rand_range(rng, 1, q)
    K_i_inv = pow(K_i, -1, p)
    base = B_i_f * K_i_inv % p
    if base == 1:
        raise RevokedKeyError()
    W = pow(base, mu, p)
    alpha = f * mu % q
    beta = mu
    r_a = rand_below(rng, q)
    r_b = rand_below(rng, q)
    # B_i^r_a * K_i^-r_b: K_i is only range-checked, so it is inverted,
    # never given an exponent reduced mod q.
    t_a = multiexp(((B_i, r_a), (K_i_inv, r_b)), p)
    # B^r_a * K^-r_b with K = B^f.
    t_b = B_pow(r_a - f * r_b)
    c = _nonrevocation_challenge(tag, main_c, index, B_i, K_i, B, K, W,
                                 t_a, t_b, gpk.profile.l_H)
    return NonRevocationProof(W=W, c=c, s_alpha=(r_a + c * alpha) % q,
                              s_beta=(r_b + c * beta) % q)


def _verify_not_revoked(tag, index, B_i, K_i, B, K, proof, main_c, gpk) -> Check:
    p, q = gpk.p, gpk.q
    label = f"{tag.decode()} entry {index}"
    # The signer's rule for an entry: a K_i outside (1, p) has no inverse.
    if not 1 < K_i < p:
        return _fail(f"{label} range")
    if proof.W == 1:
        return _fail(f"{label} W identity")
    if not in_subgroup(proof.W, p, q):
        return _fail(f"{label} W subgroup")
    if not (0 <= proof.s_alpha < q and 0 <= proof.s_beta < q):
        return _fail(f"{label} response range")
    if not 0 <= proof.c < (1 << gpk.profile.l_H):
        return _fail(f"{label} challenge range")
    # W, B and K have passed in_subgroup, so their exponents reduce mod q;
    # B_i and K_i are unchecked, so K_i is inverted, never reduced.
    K_i_inv = pow(K_i, -1, p)
    t_a = multiexp(((B_i, proof.s_alpha), (K_i_inv, proof.s_beta),
                    (proof.W, -proof.c % q)), p)
    t_b = multiexp(((B, proof.s_alpha), (K, -proof.s_beta % q)), p)
    expect = _nonrevocation_challenge(tag, main_c, index, B_i, K_i, B, K,
                                      proof.W, t_a, t_b, gpk.profile.l_H)
    if expect != proof.c:
        return _fail(f"{label} proof")
    return OK


def sign_membership(sk: UserMemberPrivateKey, gpk: GroupPublicKey,
                    message: bytes, nonce_pv: bytes,
                    sig_rl: RevocationList, issuer_rl: RevocationList, rng,
                    basename: Optional[bytes] = None) -> MembershipSignature:
    """Produce sigma = (sigma1, sigma2, sigma3) over ``message`` and ``nonce_pv``.

    ``basename=None`` selects a random base B (unlinkable signatures); a named
    base derives B from the verifier's basename, making K a stable pseudonym.
    Raises RevokedKeyError if the signer's pseudonym appears on either list.
    """
    if not _member_key_matches(gpk, sk):
        raise ProtocolError("member key does not match group public key")
    prof = gpk.profile
    p, q, N = gpk.p, gpk.q, gpk.N

    # B_i^f per entry, sig-RL then issuer-RL; the non-revocation proofs
    # reuse them.
    B_i_f = []
    for B_i, K_i in sig_rl.entries + issuer_rl.entries:
        # B_i outside the subgroup would make B_i^f == K_i leak f (Lim-Lee).
        if not (in_subgroup(B_i, p, q) and 1 < K_i < p):
            raise ProtocolError("revocation list entry out of range")
        B_i_f.append(pow(B_i, sk.f, p))
        if B_i_f[-1] == K_i:
            raise RevokedKeyError()

    if basename is None:
        # B = u^r for a uniform r in [1, q): uniform over the subgroup minus
        # 1, as a verifier sees it, while every power of B the signer needs
        # is one power of u on its comb.  r is never kept or sent.
        r = rand_range(rng, 1, q)
        B = subgroup_pow(gpk.u, r, p, q)

        def B_pow(exp: int) -> int:
            return subgroup_pow(gpk.u, r * exp, p, q)
    else:
        B = hash_to_subgroup(basename, p, q)

        def B_pow(exp: int) -> int:
            return pow(B, exp % q, p)
    K = B_pow(sk.f)

    # The widest w with e*w still inside the declared s_v response interval.
    w = rng.getrandbits(prof.l_v + prof.l_phi - prof.l_e)
    v_hat = sk.v - sk.e * w

    r_e = rng.getrandbits(prof.l_e_prime + prof.l_phi + prof.l_H)
    r_f = rng.getrandbits(prof.l_f + prof.l_phi + prof.l_H)
    r_v = rng.getrandbits(prof.l_v + prof.l_phi + prof.l_H)

    def T_and_power():
        T = sk.A * _S_pow(gpk, w) % N
        return T, pow(T, r_e, N)

    R_S, (T, T_r_e) = beside(
        ((gpk.R, r_f, _f_bits(prof)), (gpk.S, r_v, _v_bits(prof))), N,
        T_and_power)
    t1 = T_r_e * R_S % N
    t2 = B_pow(r_f)
    c = _sigma1_challenge(gpk, B, K, T, t1, t2, sig_rl.epoch, issuer_rl.epoch,
                          nonce_pv, message)

    s_e = r_e + c * (sk.e - (1 << (prof.l_e - 1)))
    s_f = r_f + c * sk.f
    s_v = r_v + c * v_hat

    n_sig = len(sig_rl.entries)
    sigma2 = tuple(
        _prove_not_revoked(b"sig-rl", i, B_i, K_i, B_i_f[i], B, K, B_pow,
                           sk.f, c, gpk, rng)
        for i, (B_i, K_i) in enumerate(sig_rl.entries))
    sigma3 = tuple(
        _prove_not_revoked(b"issuer-rl", i, B_i, K_i, B_i_f[n_sig + i], B, K,
                           B_pow, sk.f, c, gpk, rng)
        for i, (B_i, K_i) in enumerate(issuer_rl.entries))

    return MembershipSignature(B=B, K=K, T=T, c=c, s_e=s_e, s_f=s_f, s_v=s_v,
                               sig_rl_epoch=sig_rl.epoch,
                               issuer_rl_epoch=issuer_rl.epoch,
                               nonrevocation_sig=sigma2,
                               nonrevocation_iss=sigma3)


def verify_membership(gpk: GroupPublicKey, message: bytes, nonce_pv: bytes,
                      sig: MembershipSignature, sig_rl: RevocationList,
                      issuer_rl: RevocationList,
                      basename: Optional[bytes] = None) -> Check:
    """Verify sigma1 algebra, response intervals, both non-revocation vectors
    and that the signature was bound to the current revocation epochs.

    With a ``basename`` the signature must be on the named base derived from
    it, so K is the signer's stable pseudonym for that name.
    """
    prof = gpk.profile
    p, q, N = gpk.p, gpk.q, gpk.N

    if sig.sig_rl_epoch != sig_rl.epoch or sig.issuer_rl_epoch != issuer_rl.epoch:
        return _fail("epoch")
    if len(sig.nonrevocation_sig) != len(sig_rl.entries):
        return _fail("sig-rl length")
    if len(sig.nonrevocation_iss) != len(issuer_rl.entries):
        return _fail("issuer-rl length")
    if basename is not None and sig.B != hash_to_subgroup(basename, p, q):
        return _fail("basename")

    # t1 leaves for the partner only once every range holds, so a hostile T
    # or s_v never reaches it; B's and K's reasons still come first.
    bad = next((reason for ok, reason in (
        (1 <= sig.T < N, "T range"),
        (0 <= sig.c < (1 << prof.l_H), "challenge range"),
        (0 <= sig.s_e < (1 << (prof.l_e_prime + prof.l_phi + prof.l_H + 1)),
         "s_e interval"),
        (0 <= sig.s_f < (1 << _f_bits(prof)), "s_f interval"),
        (abs(sig.s_v) < (1 << _v_bits(prof)), "s_v interval")) if not ok), None)

    def t2_here():
        for name, value in (("B", sig.B), ("K", sig.K)):
            if not in_subgroup(value, p, q):
                return _fail(f"{name} subgroup")
        # B and K passed in_subgroup, so their exponents reduce mod q.
        return _fail(bad) if bad else multiexp(
            ((sig.B, sig.s_f % q), (sig.K, -sig.c % q)), p)

    if bad:
        return t2_here()
    t1_terms = ((gpk.Z, -sig.c, prof.l_H),
                (sig.T, sig.s_e + sig.c * (1 << (prof.l_e - 1)), None),
                (gpk.R, sig.s_f, _f_bits(prof)), (gpk.S, sig.s_v, _v_bits(prof)))
    try:
        t1, t2 = beside(t1_terms, N, t2_here)
    except ValueError:
        t1, t2 = None, t2_here()
    if isinstance(t2, Check):
        return t2
    if t1 is None:
        return _fail("sigma1")
    expect = _sigma1_challenge(gpk, sig.B, sig.K, sig.T, t1, t2,
                               sig.sig_rl_epoch, sig.issuer_rl_epoch,
                               nonce_pv, message)
    if expect != sig.c:
        return _fail("sigma1")

    for tag, rl, proofs in ((b"sig-rl", sig_rl, sig.nonrevocation_sig),
                            (b"issuer-rl", issuer_rl, sig.nonrevocation_iss)):
        for i, ((B_i, K_i), proof) in enumerate(zip(rl.entries, proofs)):
            check = _verify_not_revoked(tag, i, B_i, K_i, sig.B, sig.K,
                                        proof, sig.c, gpk)
            if not check:
                return check
    return OK
