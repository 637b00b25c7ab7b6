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
import os
import threading
from array import array
from collections import Counter
from dataclasses import dataclass

from .errors import ProtocolError, SearchExhausted
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
# single powers

# Lim-Lee comb (CRYPTO 1994) with h = 8 rows, stacked v = ``blocks`` high:
# block k covers exponent bits [8*cols*k, 8*cols*(k+1)), cut into 8 rows of
# ``cols`` bits, and entry i of its table is the product of
# base^(2^(8*cols*k + j*cols)) over the set bits j of i.  A power reads one
# column of every block it reaches per squaring, so it costs ``cols``
# squarings, shared by the blocks, and at most ``cols`` multiplications per
# block read.  Tables are built from ``*`` and ``%`` alone: 7*cols squarings
# and 255 products each, and cols more squarings per block above the first.
_COMB_ROWS = 8
# Up to this many blocks, each at least this many columns wide, so a short
# table (desk's u, 20 columns) stays one block.
_COMB_BLOCKS = 4
_COMB_MIN_COLS = 16

# Modular multiplications by modulus bit length, done in this process or
# for it by the partner (its replies carry its counts).  Each power, product
# or table build adds its count once, from a model of its work.
MULTIPLICATIONS: Counter[int] = Counter()


def _comb_table(base: int, mod: int, cols: int) -> list[int]:
    table = [1 % mod]
    row = base % mod
    for j in range(_COMB_ROWS):
        for _ in range(cols if j else 0):
            row = row * row % mod
        table += [t * row % mod for t in table]
    return table


# A 256-entry 2048-bit table is ~79 KB.  One group key uses 9 entries (R,
# S, Z mod N; u, B_I mod p; the issuer's R and S mod each factor of N),
# ~1.5 MB on `full`, so the cap leaves room for a second key.
def _comb_shape(width: int) -> tuple[int, int]:
    """``(cols, blocks)`` of the combs for exponents of up to ``width``
    bits: at most ``_COMB_BLOCKS`` blocks of ``_COMB_MIN_COLS``+ columns."""
    columns = -(-width // _COMB_ROWS)
    blocks = max(1, min(_COMB_BLOCKS, columns // _COMB_MIN_COLS))
    return -(-columns // blocks), blocks


@functools.lru_cache(maxsize=16)
def _stacked_combs(base: int, mod: int, width: int):
    """Shared, read-only ``(cols, tables)`` for exponents of up to ``width``
    bits (:func:`_comb_shape`)."""
    cols, blocks = _comb_shape(width)
    tables = [_comb_table(base, mod, cols)]
    for _ in range(blocks - 1):
        # Block k's base is block k-1's top row squared ``cols`` more times.
        row = tables[-1][1 << (_COMB_ROWS - 1)]
        for _ in range(cols):
            row = row * row % mod
        tables.append(_comb_table(row, mod, cols))
    MULTIPLICATIONS[mod.bit_length()] += blocks * (8 * cols + 255) - cols
    return cols, tables


def modexp(base: int, exp: int, mod: int, bits: int | None = None) -> int:
    """``pow(base, exp, mod)``, the one single power, counted in
    :data:`MULTIPLICATIONS`.

    ``bits=None`` is builtin ``pow``, counted as the binary method would
    do it: the exponent's bit length plus its set bits.  A number marks a
    recurring base, raised on the combs for (base, mod, bits), built on
    first use for exponents of up to ``bits`` bits; a longer exponent, or
    zero, is one builtin power.  A shorter exponent reads only the blocks
    it reaches, and a negative one inverts the result.  The result, and the
    ``ValueError`` for a base with no inverse, are ``pow``'s; like ``pow``,
    the running time depends on the exponent.
    """
    n = abs(exp).bit_length()
    if bits is None or not 0 < n <= bits:
        MULTIPLICATIONS[mod.bit_length()] += n + abs(exp).bit_count()
        return pow(base, exp, mod)
    if exp < 0:
        return modexp(modexp(base, -exp, mod, bits), -1, mod)
    cols, tables = _stacked_combs(base, mod, bits)
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
    # A squaring per column and a multiplication per non-zero index.
    MULTIPLICATIONS[mod.bit_length()] += cols + sum(
        cols - index.count(0) for index in indices)
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


def power_product(terms, mod: int) -> int:
    """The product mod ``mod`` of ``base^exp`` over ``(base, exp, bits)``
    terms; it always equals the product of builtin ``pow`` calls.

    A term with ``bits`` runs on its base's combs (:func:`modexp`).  The
    other, fresh, terms share one squaring chain by Straus's method
    (Amer. Math. Monthly 1964): each reads its exponent in sliding windows
    over a table of its odd powers, so k powers pay for the squarings of
    one.  A negative exponent first inverts its base with :func:`modexp`,
    whose ``ValueError`` for a base with no inverse passes through, and a
    lone fresh term is one builtin power; the rest is ``*`` and ``%``.
    Like ``pow``, the running time depends on the exponents.
    """
    combs, fresh = 1 % mod, []
    for base, exp, bits in terms:
        if bits is not None:
            combs = combs * modexp(base, exp, mod, bits) % mod
        elif exp:  # base^0 = 1, 0^0 included, as pow has it
            fresh.append((base, exp))
    if len(fresh) == 1:
        (base, exp), = fresh
        return combs * modexp(base, exp, mod) % mod
    steps: dict[int, list[int]] = {}  # bit position -> table entries
    tables = 0  # multiplications that build the tables
    for base, exp in fresh:
        if exp < 0:
            base, exp = modexp(base, -1, mod), -exp
        digits = format(exp, "b")
        width = 1 + bisect.bisect_right(_WINDOW_FROM_BITS, len(digits))
        odd = [base % mod]
        if width > 1:
            square = odd[0] * odd[0] % mod
            for _ in range((1 << (width - 1)) - 1):
                odd.append(odd[-1] * square % mod)
            tables += 1 << (width - 1)
        # Each window runs from a set bit to the last set bit at most
        # ``width`` bits below it, so its value is odd.
        i = digits.find("1")
        while i >= 0:
            j = digits.rfind("1", i, i + width)
            steps.setdefault(len(digits) - 1 - j, []).append(
                odd[int(digits[i:j + 1], 2) >> 1])
            i = digits.find("1", j + 1)
    top = max(steps, default=-1)
    MULTIPLICATIONS[mod.bit_length()] += top + 1 + tables + sum(
        map(len, steps.values()))
    acc = 1 % mod
    for position in range(top, -1, -1):
        acc = acc * acc % mod
        for entry in steps.get(position, ()):
            acc = acc * entry % mod
    return acc * combs % mod


# ---------------------------------------------------------------------------
# the partner process

# One forked copy of this process takes, on a second CPU, a share of the
# products of powers of every full-size step (shared) and half of every
# window of a safe-prime search; without it, this process takes both
# shares.  A batch mod fewer bits is too cheap to split, so desk never
# starts one.
_PARTNER_MIN_BITS = 1024
# None until first needed; (pid, request pipe, reply pipe) while it runs;
# False in a forked child of a process that runs one.
_partner = None
_partner_busy = False


def _partner_usable() -> bool:
    """Whether work may go to a partner: this process may run on two CPUs
    or more, has ``fork``, runs no other thread (which could share the
    pipes or hold a lock at the fork), is not a forked child of a process
    with a partner, and is not already waiting on the partner."""
    return (not _partner_busy and _partner is not False
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1)


def _start_partner() -> None:
    """Fork the partner, if none runs and one may be used; if ``fork``
    fails, the work stays in this process."""
    global _partner
    if _partner is not None or not _partner_usable():
        return
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (requests_r, requests_w, replies_r, replies_w):
            os.close(fd)
        return
    if pid == 0:
        # It leaves by os._exit alone, so it never runs its parent's cleanup
        # or flushes its inherited buffers: at EOF, once every copy of the
        # request pipe is closed, or when a task raises other than
        # ValueError, which its parent sees as a death.
        try:
            os.close(requests_w)
            os.close(replies_r)
            with open(requests_r, "rb") as requests, \
                    open(replies_w, "wb") as replies, \
                    contextlib.suppress(EOFError):
                while True:
                    name, args = marshal.load(requests)
                    MULTIPLICATIONS.clear()
                    try:
                        reply = _TASKS[name](*args), ""
                    except ValueError as exc:
                        reply = 0, str(exc)
                    marshal.dump((*reply, dict(MULTIPLICATIONS)), replies)
                    replies.flush()
        finally:
            os._exit(0)
    os.close(requests_r)
    os.close(replies_w)
    _partner = pid, open(requests_w, "wb"), open(replies_r, "rb")


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


def _on_partner(name: str, theirs: tuple, mine: tuple) -> tuple:
    """``(_TASKS[name](*theirs), _TASKS[name](*mine))``, the first run by
    the partner while this process runs the second; the partner's
    ``ValueError`` is raised here.

    The one place that decides where a share runs, never what runs: both
    run here instead when no partner runs or none may be used
    (:func:`_partner_usable`), or when the partner dies (it is then
    reaped).  Each task is a pure function of its arguments, so the
    results are the same, and the partner's multiplications are counted
    here too, so the counts are the same as well.
    """
    global _partner_busy
    task = _TASKS[name]
    if not (_partner and _partner_usable()):
        return task(*theirs), task(*mine)
    _, requests, replies = _partner
    _partner_busy, reply = True, None
    try:
        with contextlib.suppress(OSError):  # a dead partner: its reply is EOF
            marshal.dump((name, theirs), requests)
            requests.flush()
        try:
            result = task(*mine)
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
        return task(*theirs), result
    MULTIPLICATIONS.update(reply[2])
    if reply[1]:
        raise ValueError(reply[1])
    return reply[0], result


def shared(tasks) -> list:
    """The result of each of a step's independent tasks, in order: a
    product of powers ``(terms, mod)`` gives ``power_product(terms, mod)``
    and a subgroup check ``(x, p, q)`` gives ``in_subgroup(x, p, q)``.

    A batch with a product mod ``_PARTNER_MIN_BITS`` bits or more is
    split, on any host: its products are cut into units (:func:`_units`)
    and dealt (:func:`_deal`), with the checks' weight as this process's
    starting load, and :func:`_on_partner` computes the first share,
    products only, while this process computes the second and every
    check.  The first such batch then starts the partner, which so
    inherits the comb tables it built.  Any other batch runs here in
    order.  The values, the ``ValueError`` of a base with no inverse and
    the multiplications counted are the same with or without a partner:
    this process builds, and counts, every comb table that a split batch
    reads, and every check runs here, through :func:`in_subgroup`.
    """
    if max((task[1].bit_length() for task in tasks if len(task) == 2),
           default=0) < _PARTNER_MIN_BITS:
        return [_run(task) for task in tasks]
    checks = [task for task in tasks if len(task) == 3]
    owners, units = _units((i, task) for i, task in enumerate(tasks)
                           if len(task) == 2)
    _build_combs(units)
    shares = _deal([_weight(unit) for unit in units],
                   sum(map(_weight, checks)))
    theirs, mine = ([units[k] for k in share] for share in shares)
    done, ours = _on_partner("_share", (theirs,), (checks + mine,))
    _start_partner()
    verdicts = iter(ours[:len(checks)])
    results = [next(verdicts) if len(task) == 3 else 1 % task[1]
               for task in tasks]
    for k, value in zip(shares[0] + shares[1], done + ours[len(checks):]):
        results[owners[k]] = results[owners[k]] * value % tasks[owners[k]][1]
    return results


def _run(task):
    """One task of :func:`shared`, in this process."""
    return power_product(*task) if len(task) == 2 else in_subgroup(*task)


def _units(products) -> tuple[list[int], list]:
    """The units of :func:`shared`'s ``(index, product)`` pairs, and the
    index that owns each: every comb term alone, and all the fresh terms of
    a product together as the one Straus chain they share."""
    owners, units = [], []
    for i, (terms, mod) in products:
        fresh = tuple(term for term in terms if term[2] is None)
        cut = [((term,), mod) for term in terms if term[2] is not None]
        cut += [(fresh, mod)] if fresh else []
        owners += [i] * len(cut)
        units += cut
    return owners, units


def _weight(unit) -> int:
    """A unit's cost: its modeled multiplications, as
    :data:`MULTIPLICATIONS` would count them, times its modulus's bit
    length squared."""
    if len(unit) == 3:
        x, p, q = unit
        count = q.bit_length() + q.bit_count() if 1 < x < p else 0
        return count * p.bit_length() ** 2
    terms, mod = unit
    _, exp, bits = terms[0]
    exps = [abs(exp) for _, exp, _ in terms if exp]
    if bits is not None and 0 < abs(exp).bit_length() <= bits:
        cols, _ = _comb_shape(bits)
        count = cols * (1 + -(-abs(exp).bit_length() // (cols * _COMB_ROWS)))
    elif len(exps) == 1:
        count = exps[0].bit_length() + exps[0].bit_count()
    else:
        # One squaring per bit of the longest; per exponent, a table of
        # odd powers and a window about every width + 1 bits.
        count = max(map(int.bit_length, exps), default=0)
        for exp in exps:
            n = exp.bit_length()
            width = 1 + bisect.bisect_right(_WINDOW_FROM_BITS, n)
            count += (1 << (width - 1) if width > 1 else 0) + n // (width + 1)
    return count * mod.bit_length() ** 2


def _deal(weights: list[int], mine: int) -> tuple[list[int], list[int]]:
    """The indices of two shares, the first the partner's and the second
    this process's, which starts with load ``mine``: the heaviest first,
    each to the lighter share, the first on a tie (Graham's LPT rule, SIAM
    J. Appl. Math. 1969)."""
    shares, loads = ([], []), [0, mine]
    for k in sorted(range(len(weights)), key=lambda k: -weights[k]):
        lighter = int(loads[1] < loads[0])
        shares[lighter].append(k)
        loads[lighter] += weights[k]
    return shares


def _build_combs(units) -> None:
    """Build the comb tables that the units read (:func:`modexp`)."""
    for unit in units:
        if len(unit) == 2 and unit[0][0][2] is not None:
            (base, exp, bits), = unit[0]
            if 0 < abs(exp).bit_length() <= bits:
                _stacked_combs(base, unit[1], bits)


def _share(units) -> list:
    """The value of each unit of one share of :func:`shared`
    (:func:`_run`).  The caller has already counted the comb tables, so a
    table built here, in the partner, is not counted again."""
    kept = MULTIPLICATIONS.copy()
    _build_combs(units)
    MULTIPLICATIONS.clear()
    MULTIPLICATIONS.update(kept)
    return [_run(unit) for unit in units]


# ---------------------------------------------------------------------------
# quadratic residuosity

def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0; the Legendre symbol if n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= n
    result, bits, steps = 1, n.bit_length(), 0
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n, steps = n % a, a, steps + 1
    MULTIPLICATIONS[bits] += steps  # one reduction a step
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
    x = modexp(base, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = modexp(x, 2, n)
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
    on ``*`` and ``%`` alone: three full-size products per bit of d and two
    per later step, not counting those by the small D and Q.
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
    steps = 0
    while U and V and steps < s - 1:
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        steps += 1
    MULTIPLICATIONS[n.bit_length()] += 3 * (d.bit_length() - 1) + 2 * steps
    return not (U and V)


# Candidates that gen_prime, gen_prime_in_range and a safe-prime search
# below 20 bits draw before they give up with SearchExhausted: a range that
# holds a fair share of primes offers one long before, unless the source is
# broken.
_PRIME_MAX_ATTEMPTS = 100000


def gen_prime(bits: int, rng) -> int:
    """Random prime with exactly ``bits`` bits (top bit forced)."""
    if bits < 2:
        raise ValueError("need bits >= 2")
    for _ in range(_PRIME_MAX_ATTEMPTS):
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand
    raise SearchExhausted(f"no {bits}-bit prime after "
                          f"{_PRIME_MAX_ATTEMPTS} attempts")


def gen_prime_in_range(lo: int, hi: int, rng) -> int:
    """Random prime in [lo, hi]."""
    for _ in range(_PRIME_MAX_ATTEMPTS):
        cand = rand_range(rng, lo, hi + 1) | 1
        if lo <= cand <= hi and is_probable_prime(cand):
            return cand
    raise SearchExhausted(f"no prime found in [{lo}, {hi}] after "
                          f"{_PRIME_MAX_ATTEMPTS} attempts")


def _safe_prime_interval(q0: int, bits: int, span: int):
    """Indices i where neither q0+2i nor 2(q0+2i)+1 has a small factor.

    An index survives only if both shares of the sieving primes
    (:func:`_sieve_share`, share 1 on the partner) left it.
    """
    theirs, mine = _on_partner("_sieve_share", (q0, bits, span, 1),
                               (q0, bits, span, 0))
    ok = int.from_bytes(theirs, "big") & int.from_bytes(mine, "big")
    return bytearray(ok.to_bytes(span, "big"))


def _sieve_share(q0: int, bits: int, span: int, share: int):
    """The sieve of :func:`_safe_prime_interval` by the odd sieving primes
    at positions ``share``, ``share + 2``, ... alone: those below 2^20
    from 512 bits, else those below 4096."""
    sieve = _sieve(_WIDE_SIEVE_LIMIT) if bits >= 512 else _SMALL_PRIMES
    ok = bytearray([1]) * span
    # One big-int reduction per prime; the rest is small-int arithmetic.
    cut = bisect.bisect_right(sieve, 4 * span)
    for sp in itertools.islice(sieve, 1 + share, cut, 2):
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
    for sp in itertools.islice(sieve, cut + share, None, 2):
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
    return modexp(2, q, p) == (1 if p % 8 in (1, 7) else p - 1)


def _first_passing(qs: list[int], share: int) -> int:
    """The index of the first of qs[share], qs[share + 2], ... that passes
    the power on p and the test on q, or -1."""
    for k in range(share, len(qs), 2):
        if _euler_base2(qs[k]) and is_probable_prime(qs[k]):
            return k
    return -1


# Candidates per share in each block of a safe-prime window, the most a
# share tests past the answer; each block is a round trip to the partner.
_SCAN_BLOCK = 8


def _first_safe(qs: list[int]):
    """The safe prime 2q + 1 for the first q in the sieved candidates
    ``qs`` that gives one, or None.

    Each of the two shares (:func:`_first_passing`, share 1 on the
    partner) of a block of ``2 * _SCAN_BLOCK`` candidates scans its
    candidates in order and gives the index of its first pass; the answer
    is the lowest index given in the first block with one.  Each test is a
    pure function of its candidate, so this is the q that a scan in order
    finds, and the work is the same with or without a partner.

    One power on p weeds out nearly every candidate, and q is then tested
    by :func:`is_probable_prime`.  Once q passes, p is proved prime by
    Pocklington's theorem: q > sqrt(p), 2^(p-1) = (2^q)^2 = 1 (mod p), and
    gcd(2^((p-1)/q) - 1, p) = gcd(3, p) = 1 because 3 is sieved.
    """
    size = 2 * _SCAN_BLOCK
    for block in (qs[i:i + size] for i in range(0, len(qs), size)):
        if hits := [k for k in _on_partner("_first_passing", (block, 1),
                                           (block, 0)) if k >= 0]:
            return 2 * block[min(hits)] + 1
    return None


def gen_safe_prime(bits: int, rng, _top_two: bool = False) -> int:
    """Random safe prime P = 2P' + 1 (P' prime) with exactly ``bits`` bits.

    From 20 bits up, P' is tested by :func:`is_probable_prime` and P is
    then proved prime by Pocklington's theorem rather than tested; below,
    both are tested.
    ``_top_two`` additionally forces the two top bits, so that the product of
    two such primes has exactly twice their bit length (RSA modulus shaping).
    Below 20 bits the search draws ``_PRIME_MAX_ATTEMPTS`` candidates,
    above it sieves a number of windows derived from ``bits``; running out
    of either raises :class:`SearchExhausted`, which at a small size can
    mean that too few safe primes have the forced bits, and otherwise that
    the randomness source is broken.  A search of 512 bits or more starts
    the partner process (:func:`_start_partner`), which then sieves and
    tests half of each window; the prime found, and the work counted, do
    not depend on whether it runs.
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
        raise SearchExhausted(f"no {bits}-bit safe prime found")
    span = 1 << 14
    # 64 windows, plus enough that an honest source exhausts the extra ones
    # with a chance below 1e-9: a window holds about 0.086 safe primes at
    # 1024 bits and the density falls as 1/bits^2 (241 extra at 1024 bits).
    # Keeping the first 64 keeps every draw that finds a prime in them.
    windows = 64 + math.ceil(math.log(1e9) / (0.086 * (1024 / bits) ** 2))
    if bits >= 512:
        # Built first, so that the partner inherits the wide sieve.
        _sieve(_WIDE_SIEVE_LIMIT)
        _start_partner()
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
        p = _first_safe(qs)
        if p:
            return p
    raise SearchExhausted(f"no {bits}-bit safe prime after {windows} "
                          f"windows")


# The only work the partner process runs, by name.
_TASKS = {task.__name__: task
          for task in (_share, _sieve_share, _first_passing)}


# ---------------------------------------------------------------------------
# groups

@functools.lru_cache(maxsize=1 << 14)
def in_subgroup(x: int, p: int, q: int) -> bool:
    """Whether ``x`` is a non-identity element of the order-q subgroup of
    Z_p^*.  The one membership test for every value that comes from outside;
    for a prime q such an element generates the subgroup.

    The verdict is a pure function of ``(x, p, q)`` and is memoized, as
    :func:`is_probable_prime` is: an RL entry that every signer checks, or
    a transaction key checked at registration and again per signature, costs
    one power per process while it stays in the record.  The record holds a
    10,000-key permissions database together with the one-shot values (each
    signature's ``W``, ``B`` and ``K``, each DH share) checked between two
    uses of a key; those are the least recently used, so they go first.
    """
    return 1 < x < p and modexp(x, q, p) == 1


# Candidates p that gen_schnorr_group draws before it gives up: at 1632 bits
# about one in 570 is prime, so only a broken source or lengths that leave
# few multipliers k (l_q close to l_p) run out.
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
    raise SearchExhausted(f"no {profile.l_p}-bit p after "
                          f"{_SCHNORR_MAX_ATTEMPTS} attempts")


def gen_rsa_group(profile: ParameterProfile, rng) -> tuple[int, int]:
    """Distinct safe primes (p_N, q_N) whose product N has exactly l_N
    bits.  q_N is redrawn while it equals p_N, at most
    ``_MAX_REJECTED_DRAWS`` times: at l_N 16, 227 is the only safe prime
    with its top two bits set."""
    half = profile.l_N // 2
    p_N = gen_safe_prime(half, rng, _top_two=True)
    for _ in range(_MAX_REJECTED_DRAWS):
        q_N = gen_safe_prime(half, rng, _top_two=True)
        if q_N != p_N:
            break
    else:
        raise SearchExhausted(f"no {half}-bit safe prime other than {p_N}")
    bits = (p_N * q_N).bit_length()
    if bits != profile.l_N:
        raise RuntimeError(f"modulus has {bits} bits, not {profile.l_N}")
    return p_N, q_N


def _into_subgroup(candidates, p: int, q: int) -> int:
    """The first cofactor power x^((p-1)/q) of the candidates above 1."""
    if (p - 1) % q != 0:
        raise ValueError("q must divide p - 1")
    cofactor = (p - 1) // q
    return next(value for value in (modexp(x, cofactor, p)
                                    for x in candidates) if value > 1)


@functools.lru_cache(maxsize=32)
def hash_to_subgroup(basename: bytes, p: int, q: int) -> int:
    """Deterministically map a basename into the order-q subgroup of Z_p^*.

    Digest output is expanded, reduced mod p and raised to the cofactor
    (p-1)/q; a counter is appended and the derivation repeated until the
    result is a non-identity subgroup element.  The map is pure, so results
    are memoized: the issuer base B_I is needed several times per join.
    """
    nbytes = (p.bit_length() + 128) // 8
    seeds = (canonical_encode([b"base-from-name", basename,
                               counter.to_bytes(4, "big")])
             for counter in itertools.count())
    return _into_subgroup((int.from_bytes(hash_expand(seed, nbytes), "big") % p
                           for seed in seeds), p, q)


def random_subgroup_element(p: int, q: int, rng) -> int:
    """Uniform non-identity element of the order-q subgroup of Z_p^*."""
    return _into_subgroup((rand_range(rng, 2, p - 1)
                           for _ in itertools.count()), p, q)
