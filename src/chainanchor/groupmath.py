"""Arbitrary-precision modular arithmetic, prime/group generation, and
transcript hashing.

All values are plain Python ints.  Randomness always comes from an injected
source exposing ``getrandbits(k)`` (``random.Random``, ``random.SystemRandom``
or :class:`chainanchor.rng.DeterministicRng`); nothing in this module touches
global RNG state, so every function is reproducible under a seeded source.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import marshal
import math
import operator
import os
import threading
from array import array
from dataclasses import dataclass

from .errors import ProtocolError
from .serial import Record, SignedJsonInt

# Single fixed hash for Fiat-Shamir challenges, basename derivation and key
# derivation.  Challenge lengths l_H therefore cannot exceed HASH_BITS.
HASH_NAME = "sha256"
HASH_BITS = 256


def _hash(data: bytes) -> bytes:
    return hashlib.new(HASH_NAME, data).digest()


def hash_expand(data: bytes, nbytes: int) -> bytes:
    """Expand ``data`` into ``nbytes`` of digest output (counter mode)."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out += _hash(data + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(out[:nbytes])


# ---------------------------------------------------------------------------
# integer <-> byte-string encoding

def int_to_bytes(n: int) -> bytes:
    """Minimal big-endian encoding of a non-negative integer (0 -> b'\\x00')."""
    if n < 0:
        raise ValueError("int_to_bytes takes non-negative integers")
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def canonical_encode(parts) -> bytes:
    """Length-prefix (4-byte big-endian) and concatenate byte strings.

    The encoding is injective: two distinct lists never encode to the same
    byte string, so it is safe as hash input.
    """
    out = bytearray()
    for part in parts:
        if not isinstance(part, (bytes, bytearray)):
            raise TypeError(f"transcript elements must be bytes, got {type(part)}")
        if len(part) >= 1 << 32:
            raise ValueError("transcript element too long")
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


def fiat_shamir_challenge(transcript, l_H: int) -> int:
    """Hash an ordered list of byte strings to a challenge in [0, 2^l_H)."""
    if not 0 < l_H <= HASH_BITS:
        raise ValueError(f"challenge length must be in (0, {HASH_BITS}]")
    digest = _hash(canonical_encode(transcript))
    return int.from_bytes(digest, "big") >> (HASH_BITS - l_H)


# ---------------------------------------------------------------------------
# randomness helpers (uniform draws from a getrandbits source)

# Each draw of rand_below is rejected with probability below 1/2, so an
# honest source is rejected this many times in a row with probability below
# 2^-128; a source that is, is broken.
_MAX_REJECTED_DRAWS = 128


def rand_below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection sampling.

    Raises RuntimeError after ``_MAX_REJECTED_DRAWS`` draws in a row of
    ``bound``'s bit length that are all out of range.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    for _ in range(_MAX_REJECTED_DRAWS):
        x = rng.getrandbits(bits)
        if x < bound:
            return x
    raise RuntimeError(f"no draw below {bound} in {_MAX_REJECTED_DRAWS} "
                       f"tries: the randomness source is broken")


def rand_range(rng, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi)."""
    return lo + rand_below(rng, hi - lo)


def rand_bytes(rng, n: int) -> bytes:
    return rng.getrandbits(8 * n).to_bytes(n, "big")


# ---------------------------------------------------------------------------
# parameter profiles

@dataclass(frozen=True)
class ParameterProfile(Record):
    """Bit lengths for one deployment scale.

    l_N   RSA modulus, l_f secret exponent, l_e/l_e_prime prime-credential
    interval, l_v blinding randomizer, l_phi statistical-hiding slack,
    l_H challenge hash, l_p/l_q pseudonym subgroup.
    """

    name: str
    # Signed for the codec: __post_init__ refuses a length below 1 itself.
    l_N: SignedJsonInt
    l_f: SignedJsonInt
    l_e: SignedJsonInt
    l_e_prime: SignedJsonInt
    l_v: SignedJsonInt
    l_phi: SignedJsonInt
    l_H: SignedJsonInt
    l_p: SignedJsonInt
    l_q: SignedJsonInt

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if field.name != "name" and getattr(self, field.name) < 1:
                raise ValueError(f"{field.name} must be at least 1")
        if self.l_v != self.l_N + self.l_f + self.l_phi:
            raise ValueError("l_v must equal l_N + l_f + l_phi")
        if self.l_e <= self.l_f + 2:
            raise ValueError("l_e must exceed l_f + 2")
        if self.l_e_prime >= self.l_e:
            raise ValueError("l_e_prime must be below l_e")
        if not 2 < self.l_q < self.l_p:
            raise ValueError("need 2 < l_q < l_p for q | (p - 1)")
        if not 0 < self.l_H <= HASH_BITS:
            raise ValueError(f"l_H must be in (0, {HASH_BITS}]")
        if self.l_N % 2 != 0 or self.l_N < 16:
            raise ValueError("l_N must be even and at least 16")

    def transcript_bytes(self) -> bytes:
        fields = [self.name.encode()] + [
            int_to_bytes(v) for v in (
                self.l_N, self.l_f, self.l_e, self.l_e_prime, self.l_v,
                self.l_phi, self.l_H, self.l_p, self.l_q)
        ]
        return canonical_encode(fields)


# `desk` keeps the test suite fast; `full` mirrors deployment-scale DAA
# parameter choices.
DESK = ParameterProfile("desk", l_N=512, l_f=40, l_e=120, l_e_prime=40,
                        l_v=592, l_phi=40, l_H=160, l_p=256, l_q=160)
FULL = ParameterProfile("full", l_N=2048, l_f=104, l_e=368, l_e_prime=120,
                        l_v=2232, l_phi=80, l_H=256, l_p=1632, l_q=256)

PROFILES = {p.name: p for p in (DESK, FULL)}


def load_profiles(path) -> dict:
    """Load extra profiles from a JSON file {name: {l_N: ..., ...}}."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the top level must be an object of name -> lengths")
    profiles = {}
    for name, lengths in raw.items():
        doc = dict(lengths, name=name) if isinstance(lengths, dict) else lengths
        try:
            profiles[name] = ParameterProfile.from_doc(doc)
        except ProtocolError as exc:
            raise ValueError(f"profile {name!r}: {exc}") from None
    return profiles


# ---------------------------------------------------------------------------
# fixed-base exponentiation

def remember(record: dict, key, value, cap: int) -> None:
    """Store ``key`` in a bounded per-process record, evicting the oldest."""
    record.pop(key, None)
    if len(record) >= cap:
        del record[next(iter(record))]
    record[key] = value


# Lim-Lee comb (CRYPTO 1994) with h = 8 rows, stacked v = ``blocks`` high:
# block k covers exponent bits [8*cols*k, 8*cols*(k+1)), cut into 8 rows of
# ``cols`` bits, and entry i of its table is the product of
# base^(2^(8*cols*k + j*cols)) over the set bits j of i.  A power reads one
# column of every block it reaches per squaring, so it costs ``cols``
# squarings, shared by the blocks, and at most ``cols`` multiplications per
# block read.  Tables are built from ``*`` and ``%`` alone.
_COMB_ROWS = 8
# Up to this many blocks, each at least this many columns wide, so a short
# table (desk's u, 20 columns) stays one block.
_COMB_BLOCKS = 4
_COMB_MIN_COLS = 16
# (base, mod) -> (cols, [table of block 0, block 1, ...]), oldest first; a
# 256-entry 2048-bit table is ~79 KB.  One group key uses 9 records (R, S, Z
# mod N; u, B_I mod p; the issuer's R and S mod each factor of N), ~1.5 MB
# on `full`, so the cap leaves room for a second key.
_COMB_TABLES: dict[tuple[int, int], tuple[int, list[list[int]]]] = {}
_COMB_TABLES_MAX = 16


def _comb_table(base: int, mod: int, cols: int) -> list[int]:
    table = [1 % mod]
    row = base % mod
    for j in range(_COMB_ROWS):
        for _ in range(cols if j else 0):
            row = row * row % mod
        table += [t * row % mod for t in table]
    return table


def _stacked_combs(base: int, mod: int, width: int):
    """``(cols, tables)`` for exponents of up to ``width`` bits: at most
    ``_COMB_BLOCKS`` blocks of at least ``_COMB_MIN_COLS`` columns."""
    columns = -(-width // _COMB_ROWS)
    blocks = max(1, min(_COMB_BLOCKS, columns // _COMB_MIN_COLS))
    cols = -(-columns // blocks)
    tables = [_comb_table(base, mod, cols)]
    for _ in range(blocks - 1):
        # Block k's base is block k-1's top row squared ``cols`` more times.
        row = tables[-1][1 << (_COMB_ROWS - 1)]
        for _ in range(cols):
            row = row * row % mod
        tables.append(_comb_table(row, mod, cols))
    return cols, tables


def fixed_base_pow(base: int, exp: int, mod: int, bits: int = 0) -> int:
    """``pow(base, exp, mod)`` for a base that recurs, by cached combs.

    The tables for (base, mod) are built on first use for exponents of up
    to ``bits`` bits, or of ``exp``'s length if that is longer, and rebuilt
    wider when a longer exponent arrives: a caller that passes the widest
    exponent the base will take never pays for a second build.  A shorter
    exponent reads only the blocks it reaches.  A negative exponent inverts
    the result with builtin ``pow``, which raises the same ``ValueError``
    for a base that has no inverse.  The result always equals ``pow``'s;
    like ``pow``, the running time depends on the exponent.
    """
    if exp < 0:
        return pow(fixed_base_pow(base, -exp, mod, bits), -1, mod)
    if exp == 0:
        return 1 % mod
    n = exp.bit_length()
    entry = _COMB_TABLES.get((base, mod))
    if entry is None or entry[0] * _COMB_ROWS * len(entry[1]) < n:
        entry = _stacked_combs(base, mod, max(bits, n))
        remember(_COMB_TABLES, (base, mod), entry, _COMB_TABLES_MAX)
    cols, tables = entry
    width = cols * _COMB_ROWS
    tables = tables[:-(-n // width)]
    mask = (1 << cols) - 1
    zero = int.from_bytes(b"0" * cols, "big")
    # Spread each row of a block one bit per byte, most significant column
    # first, and add the rows shifted by their number: byte c of the sum is
    # column c's table index in that block.
    indices = []
    for k in range(len(tables)):
        chunk = exp >> (k * width)
        spread = 0
        for j in range(_COMB_ROWS):
            row = chunk >> (j * cols) & mask
            if row:
                spread += (int.from_bytes(format(row, f"0{cols}b").encode(),
                                          "big") - zero) << j
        indices.append(spread.to_bytes(cols, "big"))
    acc = 1
    blocks = range(len(tables))
    for column in zip(*indices):
        acc = acc * acc % mod
        for k in blocks:
            if index := column[k]:
                acc = acc * tables[k][index] % mod
    return acc


# ---------------------------------------------------------------------------
# products of powers

# Sliding-window width by exponent length.  Width w costs 2^(w-1) table
# multiplications up front and about bits/(w+1) in the scan, so width w + 1
# is the cheaper from _WINDOW_FROM_BITS[w - 1] bits on.
_WINDOW_FROM_BITS = (19, 25, 81, 241, 673)


def multiexp(pairs, mod: int) -> int:
    """The product of ``pow(base, exp, mod)`` over ``(base, exp)`` pairs with
    non-negative exponents, by Straus's method (Amer. Math. Monthly 1964).

    Every base reads its exponent in sliding windows over a table of its
    odd powers, and all of them share one squaring chain, so a product of
    k powers pays for the squarings of one.  Built from ``*`` and ``%``
    alone; like ``pow``, the running time depends on the exponents.
    """
    steps: dict[int, list[int]] = {}  # bit position -> table entries
    for base, exp in pairs:
        if exp < 0:
            raise ValueError("multiexp takes non-negative exponents")
        if not exp:
            continue  # base^0 = 1, 0^0 included, as pow has it
        bits = format(exp, "b")
        width = 1 + bisect.bisect_right(_WINDOW_FROM_BITS, len(bits))
        odd = [base % mod]
        if width > 1:
            square = odd[0] * odd[0] % mod
            for _ in range((1 << (width - 1)) - 1):
                odd.append(odd[-1] * square % mod)
        # Each window runs from a set bit to the last set bit at most
        # ``width`` bits below it, so its value is odd.
        i = bits.find("1")
        while i >= 0:
            j = bits.rfind("1", i, i + width)
            steps.setdefault(len(bits) - 1 - j, []).append(
                odd[int(bits[i:j + 1], 2) >> 1])
            i = bits.find("1", j + 1)
    acc = 1 % mod
    for position in range(max(steps, default=-1), -1, -1):
        acc = acc * acc % mod
        for entry in steps.get(position, ()):
            acc = acc * entry % mod
    return acc


def power_product(terms, mod: int) -> int:
    """The product mod ``mod`` of ``base^exp`` over ``(base, exp, bits)``
    terms: by :func:`fixed_base_pow` where ``bits`` is given, else by
    builtin ``pow``, whose ``ValueError`` for a base with no inverse
    passes through."""
    acc = 1 % mod
    for base, exp, bits in terms:
        acc = acc * (pow(base, exp, mod) if bits is None
                     else fixed_base_pow(base, exp, mod, bits)) % mod
    return acc


# ---------------------------------------------------------------------------
# the partner process

# One forked copy of this process computes products of powers on a second
# CPU while the caller does other work.  A product mod fewer bits is too
# cheap for a pipe round trip, so desk never starts one.
_PARTNER_MIN_BITS = 1024
# None until first needed; (pid, request pipe, reply pipe) while it runs;
# False in a forked child of a process that runs one.
_partner = None
_partner_busy = False


def _start_partner():
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (requests_r, requests_w, replies_r, replies_w):
            os.close(fd)
        return None
    if pid == 0:
        # As _across_workers' children, it leaves by os._exit alone: at EOF,
        # once every copy of the request pipe is closed.
        try:
            os.close(requests_w)
            os.close(replies_r)
            with open(requests_r, "rb") as requests, \
                    open(replies_w, "wb") as replies, \
                    contextlib.suppress(EOFError):
                while True:
                    terms, mod = marshal.load(requests)
                    try:
                        reply = power_product(terms, mod), ""
                    except ValueError as exc:
                        reply = 0, str(exc)
                    marshal.dump(reply, replies)
                    replies.flush()
        finally:
            os._exit(0)
    os.close(requests_r)
    os.close(replies_w)
    return pid, open(requests_w, "wb"), open(replies_r, "rb")


def stop_partner() -> None:
    """Close the partner's pipes and reap it (at exit, or once it has died);
    a later product that wants a partner starts another."""
    global _partner
    if _partner:
        pid, requests, replies = _partner
        _partner = None
        with contextlib.suppress(OSError):  # unsent bytes for a dead partner
            requests.close()
        replies.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _leave_partner() -> None:
    """In a forked child: close the copies of the parent's pipes, so that
    the partner still exits with its parent, and never start one."""
    global _partner
    if _partner:
        for pipe in _partner[1:]:
            pipe.close()
        _partner = False


atexit.register(stop_partner)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_leave_partner)


def beside(terms, mod: int, here):
    """``(power_product(terms, mod), here())``, the product computed by the
    partner process while ``here()`` runs in this one; the partner's
    ``ValueError`` is raised here.

    The product runs in the caller instead for a small modulus, on one CPU,
    without ``fork``, beside other threads (which could share the pipes or
    hold a lock at the fork), in a nested call, in a forked child, or when
    the partner has died (it is then reaped): the result is the same.
    """
    global _partner, _partner_busy
    if (_partner_busy or _partner is False
            or mod.bit_length() < _PARTNER_MIN_BITS
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() > 1):
        return power_product(terms, mod), here()
    if _partner is None:
        # Fork after this first product, so that the partner inherits the
        # comb tables it built (a one-shot command raises few powers).
        product, result = power_product(terms, mod), here()
        _partner = _start_partner()
        return product, result
    _, requests, replies = _partner
    _partner_busy, reply = True, None
    try:
        with contextlib.suppress(OSError):  # a dead partner: its reply is EOF
            marshal.dump((terms, mod), requests)
            requests.flush()
        try:
            result = here()
        finally:
            with contextlib.suppress(EOFError, OSError):  # it has died
                reply = marshal.load(replies)
    finally:
        _partner_busy = False
        if reply is None:
            # It has died, or an interrupt cut a message short, whose rest
            # must never be read as another: reap it.
            stop_partner()
    if reply is None:
        return power_product(terms, mod), result
    if reply[1]:
        raise ValueError(reply[1])
    return reply[0], result


# ---------------------------------------------------------------------------
# quadratic residuosity

def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0; the Legendre symbol if n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# primality

@functools.cache
def _sieve(limit):
    """The primes below ``limit``, as a compact ``array('I')``."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit, i)))
    return array("I", itertools.compress(range(limit), flags))


_SMALL_PRIMES = _sieve(4096)
# Trial division by all of them is one membership test or one gcd.
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)
# Wider sieve for safe-prime search at deployment sizes, where every saved
# Miller-Rabin call on a ~1024-bit candidate is worth it.  Built on the first
# such search, not at import: most processes never run one.
_WIDE_SIEVE_LIMIT = 1 << 20


# Hash-derived Miller-Rabin rounds that is_probable_prime runs after the
# Baillie-PSW test.
PRIME_TEST_ROUNDS = 4


@functools.lru_cache(maxsize=32)
def is_probable_prime(n: int) -> bool:
    """Baillie-PSW plus ``PRIME_TEST_ROUNDS`` hash-derived Miller-Rabin
    rounds, in this process: the one prime test of the system.

    Trial division by all primes below 4096, then a strong base-2 test
    (:func:`_strong_probable_prime`), a strong Lucas test with Selfridge's
    parameters (:func:`_strong_lucas`), and the Miller-Rabin rounds
    (:func:`_miller_rabin`).  No composite is known to pass the first two
    together, and the rounds' witnesses are derived from ``n``, so a
    caller cannot choose them.  The verdict is a pure function of ``n`` and
    is memoized: when the issuer and the member share a process, the
    member's test of the credential exponent ``e`` that the issuer has just
    accepted is a lookup.
    """
    if n < 4096:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    return (_strong_probable_prime(n, 2) and _strong_lucas(n)
            and _miller_rabin(n, range(PRIME_TEST_ROUNDS)))


def _strong_probable_prime(n: int, base: int) -> bool:
    """One Miller-Rabin round: whether the odd n > 3 is a strong probable
    prime to ``base``."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    x = pow(base, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _miller_rabin(n: int, rounds: range) -> bool:
    """The Miller-Rabin rounds numbered in ``rounds``, for an odd n with no
    factor below 4096."""
    # Witnesses derived from n itself: primality answers are then
    # deterministic across runs, which keeps replay byte-stable.
    seed = _hash(b"mr-witness" + int_to_bytes(n))
    for i in rounds:
        witness = int.from_bytes(_hash(seed + i.to_bytes(8, "big")), "big")
        if not _strong_probable_prime(n, 2 + witness % (n - 3)):
            return False
    return True


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of an odd n > 2 (Baillie and
    Wagstaff, Math. Comp. 1980), with Selfridge's method A: D is the first
    of 5, -7, 9, -11, ... with (D|n) = -1, P = 1 and Q = (1 - D) / 4.

    With n + 1 = d * 2^s, d odd, n passes if U_d = 0 or V_(d*2^r) = 0 mod
    n for some 0 <= r < s.  Every prime above 5 passes.  The sequences run
    on ``*`` and ``%`` alone.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D|n) = -1
    D = 5
    while (j := jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return n == abs(D)
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k and Q^k mod n from k = 1 up the bits of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and with P = 1,
    # U_2k+1 = (U_2k + V_2k) / 2, V_2k+1 = (D U_2k + V_2k) / 2.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = ((U + n if U & 1 else U) >> 1) % n
            V = ((V + n if V & 1 else V) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# Candidates that gen_prime, gen_prime_in_range and a safe-prime search
# below 20 bits draw before they give up: a source that offers this many
# without a prime among them is broken.
_PRIME_MAX_ATTEMPTS = 100000


def gen_prime(bits: int, rng) -> int:
    """Random prime with exactly ``bits`` bits (top bit forced)."""
    if bits < 2:
        raise ValueError("need bits >= 2")
    for _ in range(_PRIME_MAX_ATTEMPTS):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand
    raise RuntimeError(f"no {bits}-bit prime after {_PRIME_MAX_ATTEMPTS} "
                       f"attempts")


def gen_prime_in_range(lo: int, hi: int, rng) -> int:
    """Random prime in [lo, hi]."""
    for _ in range(_PRIME_MAX_ATTEMPTS):
        cand = rand_range(rng, lo, hi + 1) | 1
        if lo <= cand <= hi and is_probable_prime(cand):
            return cand
    raise RuntimeError(f"no prime found in [{lo}, {hi}]")


# At most this many processes share one window of a safe-prime search,
# however many CPUs the host offers: each is a copy of the calling process.
_MAX_SEARCH_WORKERS = 4


def _search_workers(bits: int) -> int:
    """How many processes share each window of a ``bits``-bit safe-prime
    search.

    One per CPU this process may run on, up to ``_MAX_SEARCH_WORKERS``, from
    the wide-sieve size up, where the work pays for the forks many times
    over.  Forking copies only the calling thread, so a process running
    other threads (whose locks could be held at the fork) works alone, as
    does a platform without ``fork``.
    """
    if (bits < 512 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_SEARCH_WORKERS)


def _across_workers(task, workers: int) -> list[bytes]:
    """``[task(0), ..., task(workers - 1)]``: ``task(0)`` runs in this
    process, the others in forked children that send back their bytes.

    ``task`` returns non-empty bytes, so a child that exits without a report
    (it raised, or was killed) raises RuntimeError here.  No child outlives
    the call: one still running when this process raises is killed, and
    every child is reaped.  If ``os.fork`` fails (a process limit, short of
    memory), this process runs the tasks left over itself: a task is a pure
    function of ``w``, so the results are the same.
    """
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                # The child leaves by os._exit alone, on every path: it must
                # not run the caller's cleanup or flush its inherited
                # buffers.  A child that raises exits 1 without a report.
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(task(w))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [task(0)]
        left_over = [task(w) for w in range(1 + len(children), workers)]
        for pid, pipe in children:
            report = pipe.read()
            if not report:
                raise RuntimeError(f"prime-test worker {pid} exited "
                                   f"without a result")
            results.append(report)
    finally:
        if children:
            import signal  # only a forking search needs it
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results + left_over


def _safe_prime_interval(q0: int, bits: int, span: int):
    """Indices i where neither q0+2i nor 2(q0+2i)+1 has a small factor.

    The sieving primes are dealt out among the search's workers, and an
    index survives only if every worker's share of the primes left it.
    """
    sieve = _sieve(_WIDE_SIEVE_LIMIT) if bits >= 512 else _SMALL_PRIMES
    workers = _search_workers(bits)
    shares = _across_workers(
        lambda w: _sieve_share(q0, sieve, span, w, workers), workers)
    ok = functools.reduce(
        operator.and_, (int.from_bytes(share, "big") for share in shares))
    return bytearray(ok.to_bytes(span, "big"))


def _sieve_share(q0: int, sieve, span: int, share: int, workers: int):
    """The sieve of :func:`_safe_prime_interval` by the odd primes of
    ``sieve`` at positions ``share``, ``share + workers``, ... alone."""
    ok = bytearray([1]) * span
    # One big-int reduction per prime; the rest is small-int arithmetic.
    cut = bisect.bisect_right(sieve, 4 * span)
    for sp in itertools.islice(sieve, 1 + share, cut, workers):
        # q0 + 2i ≡ 0 (mod sp) at i0 = -r/2; 2(q0 + 2i) + 1 ≡ 0 at
        # i1 = -(2r + 1)/4 = i0 - 1/4.
        inv2 = (sp + 1) >> 1
        i0 = (sp - q0 % sp) * inv2 % sp
        ok[i0::sp] = bytes(len(range(i0, span, sp)))
        i1 = (i0 - inv2 * inv2) % sp
        ok[i1::sp] = bytes(len(range(i1, span, sp)))
    # Above 4 * span, 2i and 4i are below sp, so each is a residue itself:
    # with t = -q0 mod sp, q0 + 2i ≡ 0 iff 2i = t, and 2(q0 + 2i) + 1 ≡ 0
    # iff 4i = (2t - 1) mod sp.  Each marks at most one index.
    neg_q0 = -q0
    for sp in itertools.islice(sieve, cut + share, None, workers):
        t = neg_q0 % sp
        if t < 2 * span and not t & 1:
            ok[t >> 1] = 0
        t = (2 * t - 1) % sp
        if t < 4 * span and not t & 3:
            ok[t >> 2] = 0
    return ok


def _euler_base2(q: int) -> bool:
    """Whether p = 2q + 1 meets Euler's criterion in base 2:
    2^q = 2^((p-1)/2) is the Legendre symbol (2|p), +1 for p = ±1 mod 8
    and -1 otherwise.  Every odd prime p passes."""
    p = 2 * q + 1
    return pow(2, q, p) == (1 if p % 8 in (1, 7) else p - 1)


def _first_safe(qs: list[int], workers: int):
    """The safe prime 2q + 1 for the first q in the sieved candidates
    ``qs`` that gives one, or None.

    Worker w tests qs[w], qs[w + workers], ... and reports the index of its
    first pass; the answer is the lowest index reported.  Each test is a
    pure function of its candidate, so this is the q that a scan in order
    finds, for any number of workers.

    One power on p weeds out nearly every candidate, and q is then tested
    by :func:`is_probable_prime`.  Once q passes, p is proved prime by
    Pocklington's theorem: q > sqrt(p), 2^(p-1) = (2^q)^2 = 1 (mod p), and
    gcd(2^((p-1)/q) - 1, p) = gcd(3, p) = 1 because 3 is sieved.
    """
    workers = max(1, min(workers, len(qs)))

    def first_passing(w: int) -> bytes:
        for k in range(w, len(qs), workers):
            if _euler_base2(qs[k]) and is_probable_prime(qs[k]):
                return b"%d" % k
        return b"-1"

    hits = [k for k in map(int, _across_workers(first_passing, workers))
            if k >= 0]
    return 2 * qs[min(hits)] + 1 if hits else None


def gen_safe_prime(bits: int, rng, _top_two: bool = False) -> int:
    """Random safe prime P = 2P' + 1 (P' prime) with exactly ``bits`` bits.

    From 20 bits up, P' is tested by :func:`is_probable_prime` and P is
    then proved prime by Pocklington's theorem rather than tested; below,
    both are tested.
    ``_top_two`` additionally forces the two top bits, so that the product of
    two such primes has exactly twice their bit length (RSA modulus shaping).
    Below 20 bits the search draws ``_PRIME_MAX_ATTEMPTS`` candidates,
    above it sieves a number of windows derived from ``bits``; running out
    of either raises RuntimeError and means the randomness source is
    broken.  From 512 bits each window is sieved and tested by forked
    worker processes (:func:`_search_workers`), which leave no process
    behind; the prime found does not depend on how many there are.  This
    is the only prime search that forks.
    """
    if bits < 4:
        raise ValueError("need bits >= 4")
    if bits < 20:
        # Small sizes (test scale): plain rejection sampling.
        for _ in range(_PRIME_MAX_ATTEMPTS):
            q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
            if _top_two and bits >= 5:
                q |= 1 << (bits - 3)
            p = 2 * q + 1
            if p.bit_length() == bits and is_probable_prime(q) and is_probable_prime(p):
                return p
        raise RuntimeError(f"no {bits}-bit safe prime found")
    span = 1 << 14
    # 64 windows, plus enough that an honest source exhausts the extra ones
    # with a chance below 1e-9: a window holds about 0.086 safe primes at
    # 1024 bits and the density falls as 1/bits^2 (241 extra at 1024 bits).
    # Keeping the first 64 keeps every draw that finds a prime in them.
    windows = 64 + math.ceil(math.log(1e9) / (0.086 * (1024 / bits) ** 2))
    workers = _search_workers(bits)
    top = 1 << (bits - 1)
    for _ in range(windows):
        # q is (bits-1) bits; force its top bit (and next, for _top_two) so
        # that p = 2q + 1 lands on the requested length.
        q0 = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if _top_two:
            q0 |= 1 << (bits - 3)
        ok = _safe_prime_interval(q0, bits, span)
        qs = [q0 + 2 * i for i in itertools.compress(range(span), ok)
              if q0 + 2 * i < top]
        p = _first_safe(qs, workers)
        if p:
            return p
    raise RuntimeError(f"no {bits}-bit safe prime after {windows} windows")


# ---------------------------------------------------------------------------
# groups

@functools.lru_cache(maxsize=64)
def in_subgroup(x: int, p: int, q: int) -> bool:
    """Whether ``x`` is a non-identity element of the order-q subgroup of
    Z_p^*.  The one membership test for every value that comes from outside;
    for a prime q such an element generates the subgroup.

    The verdict is a pure function of ``(x, p, q)`` and is memoized, as
    :func:`is_probable_prime` is: an RL entry that every signer checks, or
    a transaction key checked at registration and again per signature, costs
    one power per process while it stays in the record.
    """
    return 1 < x < p and pow(x, q, p) == 1


def subgroup_pow(base: int, exp: int, p: int, q: int) -> int:
    """``pow(base, exp, p)`` for a recurring ``base`` of order q (u, B_I).

    The exponent is reduced mod q, so one comb table sized from q serves
    every exponent, a negative one included, and is never rebuilt.  The
    result equals ``pow``'s only because ``base^q = 1``: callers pass bases
    built in, or checked against, the subgroup.
    """
    return fixed_base_pow(base, exp % q, p, q.bit_length())


# A randomness source that offers this many candidates p without a prime
# among them is broken: at 1632 bits about one in 570 is prime.
_SCHNORR_MAX_ATTEMPTS = 100000


def gen_schnorr_group(profile: ParameterProfile, rng):
    """Generate primes p, q with q | (p-1), q^2 ∤ (p-1), and a generator u
    of the order-q subgroup."""
    q = gen_prime(profile.l_q, rng)
    lo = (1 << (profile.l_p - 1)) // q + 1
    hi = ((1 << profile.l_p) - 1) // q
    for _ in range(_SCHNORR_MAX_ATTEMPTS):
        k = rand_range(rng, lo, hi + 1) & ~1  # k even so p is odd
        p = k * q + 1
        if (k >= lo and k % q and p.bit_length() == profile.l_p
                and is_probable_prime(p)):
            return p, q, random_subgroup_element(p, q, rng)
    raise RuntimeError(f"no {profile.l_p}-bit p after "
                       f"{_SCHNORR_MAX_ATTEMPTS} attempts")


def gen_rsa_group(profile: ParameterProfile, rng) -> tuple[int, int]:
    """Safe primes (p_N, q_N) whose product N has exactly l_N bits."""
    half = profile.l_N // 2
    p_N = gen_safe_prime(half, rng, _top_two=True)
    while True:
        q_N = gen_safe_prime(half, rng, _top_two=True)
        if q_N != p_N:
            break
    bits = (p_N * q_N).bit_length()
    if bits != profile.l_N:
        raise RuntimeError(f"modulus has {bits} bits, not {profile.l_N}")
    return p_N, q_N


@functools.lru_cache(maxsize=32)
def hash_to_subgroup(basename: bytes, p: int, q: int) -> int:
    """Deterministically map a basename into the order-q subgroup of Z_p^*.

    Digest output is expanded, reduced mod p and raised to the cofactor
    (p-1)/q; a counter is appended and the derivation repeated until the
    result is a non-identity subgroup element.  The map is pure, so results
    are memoized: the issuer base B_I is needed several times per join.
    """
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    cofactor = (p - 1) // q
    nbytes = (p.bit_length() + 128) // 8
    counter = 0
    while True:
        seed = canonical_encode([b"base-from-name", basename,
                                 counter.to_bytes(4, "big")])
        x = int.from_bytes(hash_expand(seed, nbytes), "big") % p
        counter += 1
        if x == 0:
            continue
        value = pow(x, cofactor, p)
        if value != 1:
            return value


def random_subgroup_element(p: int, q: int, rng) -> int:
    """Uniform non-identity element of the order-q subgroup of Z_p^*."""
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    cofactor = (p - 1) // q
    while True:
        x = rand_range(rng, 2, p - 1)
        value = pow(x, cofactor, p)
        if value != 1:
            return value
