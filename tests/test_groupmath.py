import ast
import dataclasses
import functools
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
from collections import Counter

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from chainanchor import epid, groupmath
from chainanchor.groupmath import (
    DESK,
    FULL,
    ParameterProfile,
    canonical_encode,
    fiat_shamir_challenge,
    gen_prime_in_range,
    gen_rsa_group,
    gen_safe_prime,
    gen_schnorr_group,
    hash_to_subgroup,
    in_subgroup,
    int_to_bytes,
    is_probable_prime,
    jacobi,
    load_profiles,
    modexp,
    power_product,
    random_subgroup_element,
)
from chainanchor.world import World
from conftest import TINY


@pytest.fixture(autouse=True)
def no_partner():
    # A full-profile test earlier in the session may have left this
    # process's partner running; the fork counts and the no-child checks
    # below are about the safe-prime search alone.
    groupmath.stop_partner()


def trial_division_is_prime(n):
    # independent primality oracle for small n
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def safe_primes_by_enumeration(bits):
    lo, hi = 1 << (bits - 1), 1 << bits
    return {p for p in range(lo, hi)
            if trial_division_is_prime(p) and trial_division_is_prime((p - 1) // 2)}


# ---------------------------------------------------------------------------
# primes

def test_safe_prime_8bit_matches_enumeration():
    expected = safe_primes_by_enumeration(8)
    assert expected == {167, 179, 227}
    rng = random.Random(1)
    for _ in range(10):
        assert gen_safe_prime(8, rng) in expected


def test_safe_prime_4bit_unique():
    assert safe_primes_by_enumeration(4) == {11}
    rng = random.Random(2)
    for _ in range(5):
        assert gen_safe_prime(4, rng) == 11


def test_safe_prime_postcondition_desk_scale():
    rng = random.Random(3)
    p = gen_safe_prime(256, rng)
    assert p.bit_length() == 256
    # cross-check against an independent primality implementation
    assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)


def test_safe_prime_draws_distinct():
    rng = random.Random(4)
    draws = [gen_safe_prime(256, rng) for _ in range(20)]
    assert len(set(draws)) == 20


class _StuckRng:
    # a broken source that always returns the same bits
    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        return self.value & ((1 << k) - 1)


def test_safe_prime_attempt_cap_signals_bad_rng(monkeypatch):
    # q is forced to 7, p = 15 is composite, so the search can never finish
    monkeypatch.setattr(groupmath, "_PRIME_MAX_ATTEMPTS", 2000)
    with pytest.raises(RuntimeError):
        gen_safe_prime(5, _StuckRng(0b0111))


def test_safe_prime_search_outlasts_64_empty_windows(monkeypatch):
    # 64 windows used to be the cap at every size, though an honest source
    # runs dry that often (seed 6 needs 69 windows for the full profile)
    sieve = groupmath._safe_prime_interval
    calls = []

    def empty_at_first(q0, bits, span):
        calls.append(q0)
        return bytearray(span) if len(calls) <= 64 else sieve(q0, bits, span)

    monkeypatch.setattr(groupmath, "_safe_prime_interval", empty_at_first)
    p = gen_safe_prime(256, random.Random(3))
    assert len(calls) > 64 and p.bit_length() == 256
    assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)


# gen_safe_prime(512, random.Random(seed)): the wide-sieve path.  A sieve
# only removes candidates with a small factor and a proof only confirms a
# prime, so a change to either keeps these.
SAFE_512 = {seed: int(digits, 16) for seed, digits in (
    (1, "afbd67f8c32d339fc33115b3e0d8289404b6827f1534043d4c914fba0d073d72"
        "0b6dcdc60fa97db8a2862327cd87e67234571e3fe3fa85452eaba9827521467f"),
    (2, "bd143fa96e284218ccbae86b820cd265e8ecfe4c5286cb64e43bd477ec7e47a1"
        "b7ca7f95f6428fbeb9492bf4b52391372fdd56c99459cd78ba7fb30786992a17"),
    (3, "f81f9c59acc8bf53d150a53e06bdf44b3611247a218cffb3296571fb405e694c"
        "f2b7253d353501fbd4f6b7eabd6ac34842c6c6d316a536952f6ea12479d6845b"),
)}


@pytest.mark.parametrize("seed", sorted(SAFE_512))
def test_safe_prime_512_pinned(seed):
    assert gen_safe_prime(512, random.Random(seed)) == SAFE_512[seed]


def odd_primes_below(limit):
    # sympy's sieve, extended once; primerange is then a slice of it
    sympy.sieve.extend(limit)
    return list(sympy.sieve.primerange(3, limit))


class _FirstDrawRng:
    # hands out one chosen draw, then the draws of random.Random(seed)
    def __init__(self, first, seed):
        self.first, self.rest = first, random.Random(seed)

    def getrandbits(self, k):
        if self.first is None:
            return self.rest.getrandbits(k)
        value, self.first = self.first, None
        return value


def test_safe_prime_search_skips_prime_q_with_composite_p(monkeypatch):
    # A 511-bit prime q whose 2q + 1 is composite with no factor below the
    # wide sieve's limit, so only the test on p itself can refuse it.
    primes = odd_primes_below(groupmath._WIDE_SIEVE_LIMIT)
    q = (1 << 510) | (1 << 400)
    while True:
        q = sympy.nextprime(q)
        p = 2 * q + 1
        if not sympy.isprime(p) and all(p % sp for sp in primes):
            break
    sieve = groupmath._safe_prime_interval
    windows = []

    def offer_q_first(q0, bits, span):
        windows.append(q0)
        if len(windows) > 1:
            return sieve(q0, bits, span)
        ok = bytearray(span)
        ok[0] = 1
        return ok

    monkeypatch.setattr(groupmath, "_safe_prime_interval", offer_q_first)
    # after the refused window the draws are seed 1's, so is the prime
    assert gen_safe_prime(512, _FirstDrawRng(q, 1)) == SAFE_512[1]
    assert windows[0] == q and len(windows) > 1


def _count_forks(monkeypatch, cpus):
    # The search sees ``cpus`` CPUs; the list returned counts its forks.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _see_cpus(monkeypatch, cpus):
    # This process sees ``cpus`` CPUs and starts the partner if it may, so
    # that the partner takes a window's second share on two CPUs or more
    # and this process takes both on one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    groupmath._start_partner()
    assert bool(groupmath._partner) == (cpus > 1)


@pytest.mark.parametrize("cpus", [1, None, 8])
def test_safe_prime_512_same_for_any_cpu_count(monkeypatch, cpus):
    # One CPU, this host's CPUs (None) and 8 CPUs seen all find the prime
    # that a scan in order finds; the searches fork one partner between
    # them on two CPUs or more, and none on one.
    cpus = cpus or len(os.sched_getaffinity(0))
    forks = _count_forks(monkeypatch, cpus)
    for seed, prime in SAFE_512.items():
        assert gen_safe_prime(512, random.Random(seed)) == prime
    assert forks == ([os.getpid()] if cpus > 1 else [])
    groupmath.stop_partner()
    assert_no_child_left()


def test_safe_prime_window_answer_is_its_lowest_passing_index(monkeypatch):
    # Both shares find one (share 0 at index 2, share 1 at index 1): the
    # window's answer is index 1's, with or without a partner.
    a, b, c = ((SAFE_512[seed] - 1) // 2 for seed in (1, 2, 3))
    qs = [3 * a, b, a, c]
    assert [groupmath._first_passing(qs, share)
            for share in (0, 1)] == [2, 1]
    for cpus in (1, 2):
        _see_cpus(monkeypatch, cpus)
        assert groupmath._first_safe(qs) == SAFE_512[2]
        assert groupmath._first_safe([3 * a, 3 * b]) is None
        assert groupmath._first_safe([]) is None
    groupmath.stop_partner()
    assert_no_child_left()


def test_safe_prime_window_resumes_after_a_refused_confirmation(
        monkeypatch):
    # The lowest pass of the power on p (a) is refused by the prime test on
    # q: the share that holds it scans on, and the window finds c, ahead of
    # b, with or without a partner.  The partner, forked after the patch,
    # runs it too.
    a, b, c = ((SAFE_512[seed] - 1) // 2 for seed in (1, 2, 3))
    prime_test = groupmath.is_probable_prime
    monkeypatch.setattr(groupmath, "is_probable_prime",
                        lambda n: n != a and prime_test(n))
    for cpus in (1, 2):
        _see_cpus(monkeypatch, cpus)
        assert groupmath._first_safe([3 * b, a, 3 * c, c, b]) == SAFE_512[3]
    groupmath.stop_partner()
    assert_no_child_left()


def test_safe_prime_window_that_finds_its_prime_forks_once(monkeypatch):
    # Two CPUs: the partner tests its share of each window, and the q found
    # is confirmed by that same test; the windows fork nothing beyond the
    # partner.
    a, b = ((SAFE_512[seed] - 1) // 2 for seed in (1, 2))
    forks = _count_forks(monkeypatch, 2)
    groupmath._start_partner()
    assert groupmath._first_safe([3 * a, b, a]) == SAFE_512[2]
    assert groupmath._first_safe([a, 3 * b]) == SAFE_512[1]
    assert len(forks) == 1
    groupmath.stop_partner()
    assert_no_child_left()


def test_safe_prime_search_counts_the_same_on_one_cpu_or_two(monkeypatch):
    # Each window is cut into the same two shares with or without a
    # partner, and the partner's counts come back with its replies, so a
    # search counts the same multiplications on any host.
    for seed, prime in SAFE_512.items():
        counts = []
        for cpus in (1, 2):
            is_probable_prime.cache_clear()
            _see_cpus(monkeypatch, cpus)
            groupmath.MULTIPLICATIONS.clear()
            assert gen_safe_prime(512, random.Random(seed)) == prime
            counts.append(sum(groupmath.MULTIPLICATIONS.values()))
            groupmath.stop_partner()
        alone, beside = counts
        assert alone == beside, seed
    assert_no_child_left()


class _Refused(Exception):
    pass


@pytest.mark.parametrize("failing", ["child", "killed", "caller"])
def test_safe_prime_search_leaves_no_child_when_a_share_fails(monkeypatch,
                                                              failing):
    # A task that raises in the partner (child) or a partner killed in the
    # middle of a window leaves its share to the caller, which finds the
    # same prime; the caller's own error propagates as it is.  Every share
    # runs the power on p (not memoized, unlike the test on q) on its first
    # candidate.
    forks = _count_forks(monkeypatch, 2)
    caller, euler = os.getpid(), groupmath._euler_base2
    killed = []

    def refuse(q):
        if os.getpid() != caller:
            if failing == "child":
                raise _Refused
        elif failing == "caller":
            raise _Refused
        elif failing == "killed" and groupmath._partner and not killed:
            killed.append(groupmath._partner[0])
            os.kill(killed[0], signal.SIGKILL)
        return euler(q)

    monkeypatch.setattr(groupmath, "_euler_base2", refuse)
    if failing == "caller":
        with pytest.raises(_Refused):
            gen_safe_prime(512, random.Random(1))
        assert groupmath._partner
    else:
        assert gen_safe_prime(512, random.Random(1)) == SAFE_512[1]
        assert groupmath._partner is None
        assert killed or failing == "child"
    assert forks == [caller]
    groupmath.stop_partner()
    assert_no_child_left()


def test_safe_prime_search_in_a_threaded_process_does_not_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def no_fork():
        raise AssertionError("forked while another thread was running")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        for seed, prime in SAFE_512.items():
            assert gen_safe_prime(512, random.Random(seed)) == prime
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_safe_prime_pretest_accepts_every_safe_prime():
    # Euler's criterion in base 2 holds for every odd prime p = 2q + 1.
    for p in [5, 7, 11, 23, 47, 59, 83, 107] + sorted(SAFE_512.values()):
        assert groupmath._euler_base2((p - 1) // 2), p
    for p in sympy.primerange(3, 5000):
        assert groupmath._euler_base2((p - 1) // 2), p
    # q prime, p = 2q + 1 = 3 * 29 composite: refused by the one power
    assert not groupmath._euler_base2(43)


# From 512 bits the candidates of a safe-prime search's window are dealt
# out among the workers.  Inputs: primes, products of two primes, and
# r(2r - 1) with r = 3 mod 4, for which about a quarter of Miller-Rabin
# rounds pass.  The last, r(2r - 1) with r = 1 mod 4, passes the base-2
# Fermat test.
_P256, _Q256 = sympy.nextprime(3 << 254), sympy.nextprime(5 << 253)
_P600 = sympy.nextprime(7 << 597)
_LIAR_P = (3 << 254) + 119815
_FERMAT_R = (5 << 253) + 119157
FERMAT_LIAR_512 = _FERMAT_R * (2 * _FERMAT_R - 1)
SPLIT_INPUTS = (sorted(SAFE_512.values()) + [
    _P600, _P256 * _Q256, _P256 * _P600, _LIAR_P * (2 * _LIAR_P - 1),
    FERMAT_LIAR_512])


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_prime_test_and_first_safe_same_for_any_cpu_count(monkeypatch, cpus):
    for r in (_LIAR_P, _FERMAT_R):
        assert sympy.isprime(r) and sympy.isprime(2 * r - 1)
    assert pow(2, FERMAT_LIAR_512 - 1, FERMAT_LIAR_512) == 1
    forks = _count_forks(monkeypatch, cpus)
    for n in SPLIT_INPUTS:
        assert is_probable_prime.__wrapped__(n) == sympy.isprime(n), n
    assert not forks
    # A window of one candidate per CPU whose first or last candidate is a
    # found q: the share that holds it gives the safe prime, with or
    # without a partner.
    groupmath._start_partner()
    for p in SAFE_512.values():
        q = (p - 1) // 2
        for qs in ([q] + [3 * q] * (cpus - 1), [3 * q] * (cpus - 1) + [q]):
            assert groupmath._first_safe(qs) == p
    # The inputs, as candidates q, ahead of found ones: the answer is the
    # first q in order for which q and 2q + 1 are prime.
    qs = SPLIT_INPUTS + [(p - 1) // 2 for p in sorted(SAFE_512.values())]
    expected = next(2 * q + 1 for q in qs
                    if sympy.isprime(q) and sympy.isprime(2 * q + 1))
    assert groupmath._first_safe(qs) == expected
    assert forks == ([os.getpid()] if cpus > 1 else [])
    groupmath.stop_partner()
    assert_no_child_left()


def test_prime_test_and_first_safe_turn_down_a_fermat_composite(
        monkeypatch):
    # is_probable_prime refuses in this process every composite that trial
    # division leaves, a base-2 Fermat liar included; only a safe-prime
    # search forks, to start the partner, and with the power on p passing
    # every candidate, both shares' tests on q refuse them all too.
    forks = _count_forks(monkeypatch, 2)
    composites = [_P256 * _Q256, _P256 * _P600, _LIAR_P * (2 * _LIAR_P - 1),
                  FERMAT_LIAR_512]
    for n in composites:
        assert not is_probable_prime.__wrapped__(n)
    assert not forks
    monkeypatch.setattr(groupmath, "_euler_base2", lambda q: True)
    groupmath._start_partner()
    assert groupmath._first_safe(composites) is None
    assert forks
    groupmath.stop_partner()
    assert_no_child_left()


def test_prime_tests_run_in_process_when_fork_fails(monkeypatch, desk_gpk):
    # A host out of processes: validate_gpk tests a 512-bit p in this
    # process and never tries to fork, and a 512-bit safe-prime search, whose
    # workers cannot be forked, finds the prime that one process finds.
    q = desk_gpk.q
    k = ((1 << 511) // q + 2) & ~1
    while not sympy.isprime(k * q + 1):
        k += 2
    p = k * q + 1
    profile = dataclasses.replace(desk_gpk.profile, l_p=512)
    good = dataclasses.replace(desk_gpk, p=p, u=pow(2, k, p),
                               profile=profile)
    # A key's p is 1 mod q: the liar r(2r - 1) with r = 1 + j*q, r = 1
    # mod 4, is a strong probable prime to base 2 (j is the first such
    # multiple of 4 above 2^255 / q with r and 2r - 1 prime).
    j = (((1 << 255) // q + 4) & ~3) + 43236
    r = 1 + j * q
    assert sympy.isprime(r) and sympy.isprime(2 * r - 1)
    liar = r * (2 * r - 1)
    assert liar.bit_length() == 512 and groupmath._strong_probable_prime(
        liar, 2)
    bad = dataclasses.replace(good, p=liar)
    assert good.u != 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    tries = []

    def no_process_left():
        tries.append(os.getpid())
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process_left)
    assert epid.validate_gpk(good)
    res = epid.validate_gpk(bad)
    assert not res and res.reason == "p not prime"
    assert not tries
    assert gen_safe_prime(512, random.Random(1)) == SAFE_512[1]
    assert tries
    assert_no_child_left()


def test_first_safe_refuses_on_a_failure_in_the_partners_share(
        monkeypatch):
    # Every round the caller runs passes and every round the partner runs
    # fails: a found q in the partner's share gives no safe prime, the same
    # window in one process gives it.  The memo is cleared before the
    # partner starts, since a partner that inherits q's verdict never runs
    # a round on it.
    forks = _count_forks(monkeypatch, 2)
    caller, mr = os.getpid(), groupmath._miller_rabin

    def child_refuses(n, rounds):
        return mr(n, rounds) and os.getpid() == caller

    monkeypatch.setattr(groupmath, "_miller_rabin", child_refuses)
    is_probable_prime.cache_clear()
    groupmath._start_partner()
    for p in SAFE_512.values():
        assert groupmath._first_safe([3 * ((p - 1) // 2), (p - 1) // 2]) is None
    groupmath.stop_partner()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for p in SAFE_512.values():
        assert groupmath._first_safe([3 * ((p - 1) // 2), (p - 1) // 2]) == p
    assert len(forks) == 1
    assert_no_child_left()


def test_prime_test_forks_for_no_input(monkeypatch):
    # With 4 CPUs visible, is_probable_prime runs wholly in this process on
    # safe primes, a base-2 Fermat liar and a 1632-bit prime.
    forks = _count_forks(monkeypatch, 4)
    for n in (sorted(SAFE_512.values())
              + [FERMAT_LIAR_512, prime_of(1632)]):
        assert is_probable_prime.__wrapped__(n) == sympy.isprime(n), n
    assert not forks


@pytest.mark.parametrize("bits", [512, 1024])
def test_safe_prime_interval_matches_trial_division(bits):
    # ok[i] is set exactly when neither q0 + 2i nor 2(q0 + 2i) + 1 has a
    # prime factor below the wide sieve's limit.
    primes = odd_primes_below(groupmath._WIDE_SIEVE_LIMIT)
    rng = random.Random(bits)
    span = 48
    for _ in range(3):
        q0 = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        ok = groupmath._safe_prime_interval(q0, bits, span)
        assert len(ok) == span
        for i in range(span):
            q = q0 + 2 * i
            rough = all(q % sp and (2 * q + 1) % sp for sp in primes)
            assert ok[i] == rough, (q0, i)


@pytest.mark.parametrize("bits", [512, 1024])
def test_safe_prime_interval_same_for_any_cpu_count(monkeypatch, bits):
    # The two shares of the sieving primes, one on the partner, mark a full
    # window as one process does, whatever the CPU count seen.
    rng = random.Random(bits)
    q0s = [rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1 for _ in range(3)]
    windows = []
    for cpus in (1, 2, 8):
        _see_cpus(monkeypatch, cpus)
        windows.append([groupmath._safe_prime_interval(q0, bits, 1 << 14)
                        for q0 in q0s])
        groupmath.stop_partner()
    assert windows[0] == windows[1] == windows[2]
    assert_no_child_left()


def test_wide_sieve_is_built_by_the_first_wide_search():
    # Importing the module sieves only below 4096; the primes below 2^20
    # are sieved when a search of 512 bits or more first needs them.
    code = ("from chainanchor import groupmath as g\n"
            "sizes = [g._sieve.cache_info().currsize]\n"
            "g._safe_prime_interval(2 ** 255 + 1, 256, 64)\n"
            "sizes.append(g._sieve.cache_info().currsize)\n"
            "g._safe_prime_interval(2 ** 511 + 1, 512, 64)\n"
            "sizes.append(g._sieve.cache_info().currsize)\n"
            "print(*sizes)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "1", "2"]
    wide = groupmath._sieve(groupmath._WIDE_SIEVE_LIMIT)
    assert list(wide) == list(sympy.primerange(groupmath._WIDE_SIEVE_LIMIT))


def test_challenge_length_bounds():
    with pytest.raises(ValueError):
        fiat_shamir_challenge([b"x"], 0)
    with pytest.raises(ValueError):
        fiat_shamir_challenge([b"x"], 300)


def test_miller_rabin_agrees_with_oracle():
    for n in range(2, 2000):
        assert is_probable_prime(n) == trial_division_is_prime(n)
    # a few Carmichael numbers, refused by each half of Baillie-PSW too
    for n in (561, 1105, 1729, 2465, 6601, 8911, 41041):
        assert not is_probable_prime(n)
        assert not groupmath._strong_probable_prime(n, 2), n
        assert not groupmath._strong_lucas(n), n


# Strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
# and strong pseudoprimes to base 2 (A001262): each half of Baillie-PSW
# refuses what passes the other.
STRONG_LUCAS_LIARS = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                      40309]
STRONG_BASE2_LIARS = [2047, 3215031751, 3825123056546413051]


def test_strong_lucas_liars_fail_the_strong_base2_test():
    for n in STRONG_LUCAS_LIARS:
        assert not sympy.isprime(n)
        assert groupmath._strong_lucas(n), n
        assert not groupmath._strong_probable_prime(n, 2), n
        assert not is_probable_prime.__wrapped__(n)


def test_strong_base2_liars_fail_the_strong_lucas_test(monkeypatch):
    for n in STRONG_BASE2_LIARS:
        assert groupmath._strong_probable_prime(n, 2), n
    assert pow(2, FERMAT_LIAR_512 - 1, FERMAT_LIAR_512) == 1
    for n in STRONG_BASE2_LIARS + [FERMAT_LIAR_512,
                                   _LIAR_P * (2 * _LIAR_P - 1)]:
        assert not sympy.isprime(n)
        assert not groupmath._strong_lucas(n), n
    # 2047 = 23 * 89 and 3215031751 = 151 * 751 * 28351 fall to trial
    # division; 3825123056546413051 has no factor below 4096, so in the full
    # test only the Lucas half stands between it and a prime verdict.
    n = 3825123056546413051
    assert min(sympy.factorint(n)) > 4096
    assert not is_probable_prime.__wrapped__(n)
    monkeypatch.setattr(groupmath, "_strong_lucas", lambda n: True)
    assert not is_probable_prime.__wrapped__(2047)
    assert not is_probable_prime.__wrapped__(3215031751)
    monkeypatch.setattr(groupmath, "PRIME_TEST_ROUNDS", 0)
    assert is_probable_prime.__wrapped__(n)


def test_strong_lucas_test_passes_every_prime_and_refuses_squares():
    for p in sympy.primerange(7, 20000):
        assert groupmath._strong_lucas(p), p
    for r in (3, 5, 7, 59, 4099, _P256):
        assert not groupmath._strong_lucas(r * r), r


def _prime_test_by_division_loop(n):
    # is_probable_prime with trial division as one loop over the primes
    # below 4096, a division each
    if n < 2:
        return False
    for sp in groupmath._SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    return (groupmath._strong_probable_prime(n, 2) and groupmath._strong_lucas(n)
            and groupmath._miller_rabin(n, range(groupmath.PRIME_TEST_ROUNDS)))


def test_trial_division_in_one_step_equals_the_division_loop():
    for n in range(-3, 1 << 16):
        assert is_probable_prime.__wrapped__(n) == _prime_test_by_division_loop(n), n
    rng = random.Random(16)
    for _ in range(3000):
        n = rng.getrandbits(rng.randrange(13, 401))
        assert is_probable_prime.__wrapped__(n) == _prime_test_by_division_loop(n), n


@given(st.integers(min_value=0, max_value=2 ** 399 - 1).map(
    lambda k: 2 * k + 1))
def test_prime_test_equals_sympy_on_odd_n(n):
    assert is_probable_prime.__wrapped__(n) == sympy.isprime(n)


@functools.cache
def prime_of(bits):
    # the first prime above 7 * 2^(bits - 3), found once per run
    return sympy.nextprime(7 << (bits - 3))


@pytest.mark.parametrize("bits", [368, 512, 1632])
def test_prime_test_equals_sympy_on_primes_and_semiprimes(bits):
    # the sizes of e, of a test-scale safe prime and of the Schnorr p
    rng = random.Random(bits)
    halves = [sympy.nextprime(rng.getrandbits(bits // 2)
                              | 3 << (bits // 2 - 2)) for _ in range(4)]
    semiprimes = [halves[0] * halves[1], halves[2] * halves[3]]
    for n in [prime_of(bits)] + semiprimes:
        assert n.bit_length() == bits
        assert is_probable_prime.__wrapped__(n) == sympy.isprime(n), n


# Primes below 4096 and n < 2 decide in trial division; the rest reach
# Miller-Rabin: Carmichael numbers, strong base-2 pseudoprimes, an RSA-style
# product and a prime of the credential exponent's size.
_P184 = sympy.nextprime(3 << 182)
_Q184 = sympy.nextprime(5 << 181)
_P368 = sympy.nextprime(3 << 366)
MEMO_INPUTS = ([-7, 0, 1] + list(sympy.primerange(4096))
               + [561, 41041, 825265, 321197185]
               + [2047, 3215031751, 3825123056546413051]
               + [_P184 * _Q184, _P368])


def _memo_agrees(n):
    verdict = is_probable_prime.__wrapped__(n)
    assert is_probable_prime(n) == verdict, n
    assert is_probable_prime(n) == verdict, n
    return verdict


def test_memoized_prime_test_equals_uncached():
    for n in MEMO_INPUTS:
        assert _memo_agrees(n) == sympy.isprime(n), n


@given(st.integers(min_value=0, max_value=2 ** 400).map(lambda k: 2 * k + 1))
def test_memoized_prime_test_equals_uncached_on_odd_n(n):
    _memo_agrees(n)


def test_prime_test_memo_is_bounded():
    maxsize = is_probable_prime.cache_info().maxsize
    assert maxsize == 32
    for n in range(10 ** 6 + 1, 10 ** 6 + 1 + 4 * maxsize, 2):
        is_probable_prime(n)
    assert is_probable_prime.cache_info().currsize == maxsize


def test_prime_in_range():
    rng = random.Random(5)
    lo, hi = 1 << 19, (1 << 19) + (1 << 10)
    for _ in range(5):
        e = gen_prime_in_range(lo, hi, rng)
        assert lo <= e <= hi and trial_division_is_prime(e)


class _OnesThenRng:
    # ``ones`` draws of all ones, then draws of ``value``
    def __init__(self, ones, value):
        self.ones, self.value = ones, value

    def getrandbits(self, k):
        self.ones -= 1
        return (1 << k) - 1 if self.ones >= 0 else self.value


def test_rand_below_gives_up_on_a_source_stuck_at_all_ones(monkeypatch):
    # Every draw is 2^k - 1, at or above the bound: the rejection loop, and
    # the e search that draws through it, end with RuntimeError.
    stuck = _StuckRng(-1)
    assert stuck.getrandbits(7) == 127
    with pytest.raises(RuntimeError, match="randomness source is broken"):
        groupmath.rand_below(stuck, 100)
    monkeypatch.setattr(groupmath, "_PRIME_MAX_ATTEMPTS", 5)
    with pytest.raises(RuntimeError):
        gen_prime_in_range(1000, 1100, stuck)
    # 127 rejected draws are still an honest source's bad luck
    cap = groupmath._MAX_REJECTED_DRAWS
    assert groupmath.rand_below(_OnesThenRng(cap - 1, 5), 100) == 5
    with pytest.raises(RuntimeError):
        groupmath.rand_below(_OnesThenRng(cap, 5), 100)


# ---------------------------------------------------------------------------
# groups

def test_schnorr_group_tiny_profile():
    rng = random.Random(6)
    p, q, u = gen_schnorr_group(TINY, rng)
    assert p.bit_length() == 32 and q.bit_length() == 16
    assert (p - 1) % q == 0
    assert ((p - 1) // q) % q != 0
    assert u != 1 and pow(u, q, p) == 1


def test_schnorr_group_desk_profile():
    rng = random.Random(7)
    p, q, u = gen_schnorr_group(DESK, rng)
    assert p.bit_length() == DESK.l_p and q.bit_length() == DESK.l_q
    assert (p - 1) % q == 0 and ((p - 1) // q) % q != 0
    assert pow(u, q, p) == 1 and u != 1


def test_schnorr_group_attempt_cap_signals_bad_rng(monkeypatch):
    # A source stuck at 0 offers the same refused candidate p forever.
    q = sympy.nextprime(1 << (TINY.l_q - 1))
    monkeypatch.setattr(groupmath, "gen_prime", lambda bits, rng: q)
    k = ((1 << (TINY.l_p - 1)) // q + 1) & ~1
    assert k * q + 1 < 1 << (TINY.l_p - 1) or not sympy.isprime(k * q + 1)
    monkeypatch.setattr(groupmath, "_SCHNORR_MAX_ATTEMPTS", 50)
    with pytest.raises(RuntimeError, match="50 attempts"):
        gen_schnorr_group(TINY, _StuckRng(0))


def test_known_small_subgroup_values():
    # 2 generates the order-11 subgroup mod 23; 22 has order 2.
    assert pow(2, 11, 23) == 1 and 11 % 11 == 0 and (23 - 1) % 11 == 0
    assert 2 % 11 != 0  # 11 does not divide (p-1)/q = 2
    assert pow(22, 2, 23) == 1 and pow(22, 11, 23) != 1
    # so 2^1..2^10 are the whole subgroup but the identity
    subgroup = {pow(2, k, 23) for k in range(1, 11)}
    assert len(subgroup) == 10 and 1 not in subgroup
    for x in range(-1, 25):
        assert in_subgroup(x, 23, 11) == (x in subgroup), x


def test_in_subgroup_remembers_each_verdict(monkeypatch):
    in_subgroup.cache_clear()
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groupmath, "pow", counting_pow, raising=False)
    for _ in range(3):
        assert in_subgroup(2, 23, 11)             # a repeat costs no power
        assert not in_subgroup(22, 23, 11)        # nor does a repeated refusal
    assert calls == [(2, 11, 23), (22, 11, 23)]
    # the record is bounded, and what it forgot is simply tested again
    cap = in_subgroup.cache_info().maxsize
    assert cap == 1 << 14
    for p in range(23, 23 + 2 * cap):
        in_subgroup(2, p, 11)
    assert in_subgroup.cache_info().currsize == cap
    del calls[:]
    assert in_subgroup(2, 23, 11) and len(calls) == 1


def test_rsa_group_tiny():
    rng = random.Random(8)
    p_N, q_N = gen_rsa_group(TINY, rng)
    assert (p_N * q_N).bit_length() == TINY.l_N
    assert p_N != q_N
    for factor in (p_N, q_N, p_N // 2, q_N // 2):
        assert sympy.isprime(factor)


def test_rsa_group_of_the_wrong_length_raises(monkeypatch):
    # A check, not an assert: it must hold under python -O too.
    primes = iter([23, 47])
    monkeypatch.setattr(groupmath, "gen_safe_prime",
                        lambda bits, rng, _top_two: next(primes))
    with pytest.raises(RuntimeError, match="modulus has 11 bits, not 64"):
        gen_rsa_group(TINY, random.Random(0))


# ---------------------------------------------------------------------------
# subgroup maps

def test_hash_to_subgroup_deterministic():
    p, q = 23, 11
    a = hash_to_subgroup(b"idp-pi:group", p, q)
    b = hash_to_subgroup(b"idp-pi:group", p, q)
    assert a == b
    assert pow(a, q, p) == 1 and a != 1


def test_hash_to_subgroup_memo_equals_fresh_derivation(desk_gpk):
    p, q = desk_gpk.p, desk_gpk.q
    first = hash_to_subgroup(b"memo-check", p, q)
    assert hash_to_subgroup(b"memo-check", p, q) is first
    assert first == hash_to_subgroup.__wrapped__(b"memo-check", p, q)


def test_hash_to_subgroup_distinct_basenames(desk_gpk):
    p, q = desk_gpk.p, desk_gpk.q
    values = {hash_to_subgroup(f"basename-{i}".encode(), p, q)
              for i in range(100)}
    assert len(values) == 100


def test_random_subgroup_element_covers_subgroup():
    p, q = 23, 11
    subgroup = {x for x in range(1, p) if pow(x, q, p) == 1} - {1}
    assert len(subgroup) == 10
    rng = random.Random(9)
    seen = set()
    counts = {}
    for _ in range(1000):
        el = random_subgroup_element(p, q, rng)
        assert el in subgroup
        seen.add(el)
        counts[el] = counts.get(el, 0) + 1
    assert seen == subgroup
    # crude chi-square sanity: each of the 10 elements expected 100 times
    chi2 = sum((n - 100) ** 2 / 100 for n in counts.values())
    assert chi2 < 50


# ---------------------------------------------------------------------------
# transcripts

def test_challenge_deterministic_and_bounded():
    t = [b"alpha", b"beta", b""]
    c1 = fiat_shamir_challenge(t, 160)
    c2 = fiat_shamir_challenge(list(t), 160)
    assert c1 == c2
    assert 0 <= c1 < 1 << 160


def test_challenge_order_sensitive():
    assert (fiat_shamir_challenge([b"a", b"b"], 128)
            != fiat_shamir_challenge([b"b", b"a"], 128))
    # concatenation ambiguity must not collide either
    assert (fiat_shamir_challenge([b"ab", b""], 128)
            != fiat_shamir_challenge([b"a", b"b"], 128))


def test_challenge_empty_transcript():
    c = fiat_shamir_challenge([], 64)
    assert 0 <= c < 1 << 64
    assert c == fiat_shamir_challenge([], 64)


@given(st.lists(st.binary(max_size=24), max_size=6),
       st.lists(st.binary(max_size=24), max_size=6))
def test_canonical_encoding_injective(parts_a, parts_b):
    if canonical_encode(parts_a) == canonical_encode(parts_b):
        assert parts_a == parts_b


def test_int_to_bytes_round_trip():
    for n in (0, 1, 255, 256, 1 << 64, (1 << 256) - 1):
        assert int.from_bytes(int_to_bytes(n), "big") == n
    with pytest.raises(ValueError):
        int_to_bytes(-1)


# ---------------------------------------------------------------------------
# profiles

def test_builtin_profiles_valid():
    assert DESK.l_v == DESK.l_N + DESK.l_f + DESK.l_phi
    assert FULL.l_v == FULL.l_N + FULL.l_f + FULL.l_phi


@pytest.mark.parametrize("overrides", [
    {"l_v": 100},               # breaks l_v = l_N + l_f + l_phi
    {"l_e": 11},                # l_e must exceed l_f + 2
    {"l_e_prime": 40},          # must stay below l_e
    {"l_q": 40},                # must stay below l_p
    {"l_H": 512},               # hash output is 256 bits
    {"l_f": -5, "l_v": TINY.l_N - 5 + TINY.l_phi},   # lengths are >= 1
    {"l_phi": 0, "l_v": TINY.l_N + TINY.l_f},
    {"l_e_prime": 0},
])
def test_invalid_profiles_rejected(overrides):
    fields = TINY.to_doc()
    fields.update(overrides)
    with pytest.raises(ValueError):
        ParameterProfile(**fields)


def test_load_profiles_from_file(tmp_path):
    doc = {"custom": {k: v for k, v in TINY.to_doc().items() if k != "name"}}
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(doc))
    profiles = load_profiles(path)
    assert profiles["custom"].l_N == TINY.l_N
    assert profiles["custom"].name == "custom"


# ---------------------------------------------------------------------------
# comb powers (modexp with bits): every answer must be builtin pow's

def _comb_pow(base, exp, mod):
    """``modexp`` on combs sized for the exponent's width."""
    return modexp(base, exp, mod, abs(exp).bit_length())


def _pow_outcome(fn, base, exp, mod):
    try:
        return fn(base, exp, mod)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_modexp_combs_match_pow_on_group_bases(desk_group):
    gpk, gipk = desk_group
    N, order = gpk.N, gipk.qr_order
    rng = random.Random(40)
    exps = [0, 1, 2, -1, -2, order, order + 1, 2 * order - 1, -order,
            rng.getrandbits(DESK.l_v), -rng.getrandbits(DESK.l_v + 80),
            rng.getrandbits(DESK.l_f), rng.getrandbits(DESK.l_H)]
    for base in (gpk.R, gpk.S, gpk.Z):
        for exp in exps:
            assert _comb_pow(base, exp, N) == pow(base, exp, N), exp


def test_modexp_combs_match_pow_on_u_and_B_I(desk_gpk):
    groupmath._stacked_combs.cache_clear()
    p, q = desk_gpk.p, desk_gpk.q
    B_I = hash_to_subgroup(desk_gpk.issuer_basename, p, q)
    rng = random.Random(42)
    c = rng.getrandbits(DESK.l_H)
    s_f = rng.getrandbits(441) | 1 << 440
    for base in (desk_gpk.u, B_I):
        for exp in (0, 1, q - 1, q, q + 1, -1, -c, s_f):
            assert (modexp(base, exp % q, p, q.bit_length())
                    == pow(base, exp, p)), exp
    # one table per base, sized from q
    assert _layout(B_I, p, q.bit_length())[0] == -(-DESK.l_q // 8)
    assert groupmath._stacked_combs.cache_info().currsize == 2


def _layout(base, mod, bits):
    """``(cols, blocks)`` of the combs already built for (base, mod, bits)."""
    info = groupmath._stacked_combs.cache_info
    hits = info().hits
    cols, tables = groupmath._stacked_combs(base, mod, bits)
    assert info().hits == hits + 1, "no combs were built for these bits"
    return cols, len(tables)


def test_modexp_combs_leave_a_longer_exponent_to_pow(desk_gpk, monkeypatch):
    groupmath._stacked_combs.cache_clear()
    N, base = desk_gpk.N, desk_gpk.S
    v_bits = epid._v_bits(DESK)                  # 793 bits: 100 columns
    assert modexp(base, 12345, N, v_bits) == pow(base, 12345, N)
    assert _layout(base, N, v_bits) == (25, 4)   # 4 blocks of 25 columns
    # a longer exponent is one builtin power, counted as one: no table is
    # built or widened for it
    counts = Counter()
    monkeypatch.setattr(groupmath, "MULTIPLICATIONS", counts)
    exp = random.Random(41).getrandbits(900) | 1 << 900
    for e in (exp, -exp):
        assert modexp(base, e, N, v_bits) == pow(base, e, N)
    assert counts == {512: 2 * (901 + exp.bit_count())}
    assert groupmath._stacked_combs.cache_info().currsize == 1
    assert _layout(base, N, v_bits) == (25, 4)


def test_modexp_combs_size_a_new_table_for_the_stated_bits():
    mod = (1 << 89) - 1
    base = 0xFACADE
    groupmath._stacked_combs.cache_clear()
    assert modexp(base, 5, mod, 200) == pow(base, 5, mod)
    assert _layout(base, mod, 200) == (25, 1)   # fewer than 2 x 16 columns
    for exp in (2 ** 199 + 1, -(2 ** 150)):
        assert modexp(base, exp, mod, 200) == pow(base, exp, mod)
    assert _layout(base, mod, 200) == (25, 1)
    assert modexp(base, 2 ** 260 + 7, mod, 261) == pow(base, 2 ** 260 + 7, mod)
    assert _layout(base, mod, 261) == (17, 2)   # 261 bits: 33 columns


def test_modexp_combs_stack_blocks_on_full_profile_widths():
    # (cols, blocks) for the widths epid passes on `full`: S mod N, R mod N,
    # the issuer's S mod a factor of N, and Z, u, B_I
    mod = (1 << 127) - 1
    for width, layout in ((epid._v_bits(FULL), (81, 4)),
                          (epid._f_bits(FULL), (19, 3)),
                          (FULL.l_N // 2, (32, 4)),
                          (FULL.l_q, (16, 2)),
                          (DESK.l_q, (20, 1))):
        assert modexp(3, 5, mod, width) == pow(3, 5, mod)
        assert _layout(3, mod, width) == layout, width


def test_member_lifecycles_build_each_comb_table_once():
    # One group key needs 9 records: R, S, Z mod N; u, B_I mod p; the
    # issuer's R and S mod p_N and mod q_N.  Each is sized for its widest
    # exponent and the memo holds them all, so two lifecycles in one
    # process build each record's blocks exactly once.
    groupmath._stacked_combs.cache_clear()
    world = World.create("tables", DESK, 5)
    for name in ("a", "b"):
        for step in (world.enroll, world.join, world.prove, world.register):
            step(name)
    info = groupmath._stacked_combs.cache_info()
    assert info.misses == info.currsize == 9


def test_short_exponent_reads_only_the_first_block(desk_gpk):
    class Unread(list):
        def __getitem__(self, index):
            raise AssertionError("a block above the exponent was read")

    groupmath._stacked_combs.cache_clear()
    N, base, bits = desk_gpk.N, desk_gpk.S, epid._v_bits(DESK)
    cols, tables = groupmath._stacked_combs(base, N, bits)
    assert len(tables) == 4
    tables[1:] = [Unread() for _ in tables[1:]]
    try:
        width = cols * groupmath._COMB_ROWS
        for exp in (1, 2 ** (width - 1), 2 ** width - 1, -(2 ** width - 1)):
            assert modexp(base, exp, N, bits) == pow(base, exp, N), exp
        with pytest.raises(AssertionError, match="above the exponent"):
            modexp(base, 2 ** width, N, bits)
    finally:
        groupmath._stacked_combs.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_combs_equal_pow_at_block_edges(data):
    draw = data.draw
    factor = draw(st.integers(min_value=2, max_value=2 ** 1024))
    mod = factor * draw(st.integers(min_value=1, max_value=2 ** 1024))
    bits = draw(st.integers(min_value=1, max_value=2600))
    base = draw(st.one_of(st.integers(min_value=0, max_value=2 ** 2048),
                          st.integers(min_value=1, max_value=2 ** 1024).map(
                              lambda k: k * factor)))   # no inverse mod mod
    assert modexp(base, 1, mod, bits) == pow(base, 1, mod)
    cols, blocks = _layout(base, mod, bits)
    k = draw(st.integers(min_value=1, max_value=blocks))
    length = max(1, k * groupmath._COMB_ROWS * cols + draw(st.sampled_from((-1, 0, 1))))
    exp = draw(st.integers(min_value=0, max_value=2 ** (length - 1) - 1)) | 1 << (length - 1)
    if draw(st.booleans()):
        exp = -exp
    assert (_pow_outcome(lambda b, e, m: modexp(b, e, m, bits), base, exp, mod)
            == _pow_outcome(pow, base, exp, mod)), (cols, blocks, length)


def test_modexp_combs_odd_bases(desk_group):
    gpk, gipk = desk_group
    N = gpk.N
    for base in (0, N, N + gpk.R, 3 * N + 1, gipk.p_N, gipk.q_N * 5):
        for exp in (0, 1, 5, 2 ** 200 + 3, -1, -7):
            assert (_pow_outcome(_comb_pow, base, exp, N)
                    == _pow_outcome(pow, base, exp, N)), (base, exp)
    # a base with no inverse raises pow's own error
    with pytest.raises(ValueError) as mine:
        _comb_pow(gipk.p_N, -3, N)
    with pytest.raises(ValueError) as builtin:
        pow(gipk.p_N, -3, N)
    assert str(mine.value) == str(builtin.value)


@given(st.integers(min_value=0, max_value=2 ** 80),
       st.integers(min_value=-2 ** 300, max_value=2 ** 300),
       st.integers(min_value=1, max_value=2 ** 64))
def test_modexp_combs_equal_pow(base, exp, mod):
    assert (_pow_outcome(_comb_pow, base, exp, mod)
            == _pow_outcome(pow, base, exp, mod))


def test_modexp_combs_record_stays_bounded():
    mod = (1 << 127) - 1
    info = groupmath._stacked_combs.cache_info
    for base in range(2, info().maxsize + 5):
        assert modexp(base, mod - 2, mod, 127) == pow(base, mod - 2, mod)
        assert _layout(base, mod, 127)
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize == 16


def test_modexp_combs_build_tables_without_pow(monkeypatch):
    # The benchmark's census counts calls to pow; a table must cost none,
    # so the census reads the same whether the table is cold or warm.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groupmath, "pow", counting_pow, raising=False)
    mod = (1 << 521) - 1
    base = 0xC0FFEE
    groupmath._stacked_combs.cache_clear()
    for _ in range(2):                           # cold, then warm
        assert _comb_pow(base, 3 ** 300, mod) == pow(base, 3 ** 300, mod)
        assert calls == []
    _comb_pow(base, -5, mod)
    assert len(calls) == 1                       # the inversion only


# ---------------------------------------------------------------------------
# the multiplication count

def test_modexp_is_the_only_caller_of_pow_with_a_modulus():
    # Every power in the package goes through modexp, which counts it.
    calls = []
    for path in sorted(pathlib.Path(groupmath.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, inner overwrite
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                owner.update(dict.fromkeys(ast.walk(fn),
                                           getattr(fn, "name", "lambda")))
        calls += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "pow"
                  and len(node.args) + len(node.keywords) > 2]
    assert calls == [("groupmath.py", "modexp")]


def _memoizes(decorator) -> bool:
    """Whether a decorator is ``functools.lru_cache(...)`` or
    ``functools.cache``, by attribute or bare name."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else node.id
    return name in ("lru_cache", "cache")


def test_no_memoized_function_reads_a_name_rebound_with_global():
    # A memo keeps a pure function's result for its arguments, so the
    # function may read no module state that a function rebinds.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(groupmath.__file__)
                                .parent.glob("*.py"))}
    rebound = {module: {name for node in ast.walk(tree)
                        if isinstance(node, ast.Global)
                        for name in node.names}
               for module, tree in trees.items()}
    assert "_partner" in rebound["groupmath"]
    memoized, reads = [], []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef)
                    and any(map(_memoizes, fn.decorator_list))):
                continue
            memoized.append(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    owner, name = module, node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)):
                    owner, name = node.value.id, node.attr
                else:
                    continue
                if name in rebound.get(owner, ()):
                    reads.append((module, fn.name, name))
    assert "in_subgroup" in memoized and "is_probable_prime" in memoized
    assert reads == []


def test_modexp_and_power_product_count_by_their_models(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(groupmath, "MULTIPLICATIONS", counts)
    mod = (1 << 127) - 1
    # builtin: the exponent's bit length plus its set bits, sign aside
    for exp in (0b1011 << 100, -(0b1011 << 100)):
        assert modexp(5, exp, mod) == pow(5, exp, mod)
    assert counts == {127: 2 * (104 + 3)}
    # a comb of 2 columns: 7 x 2 squarings and 255 entries to build, then a
    # squaring per column and a multiplication per non-zero index
    groupmath._stacked_combs.cache_clear()
    counts.clear()
    assert modexp(3, 0xFFFF, mod, 16) == pow(3, 0xFFFF, mod)
    assert counts == {127: 7 * 2 + 255 + 2 + 2}
    assert modexp(3, 1, mod, 16) == 3
    assert counts == {127: 7 * 2 + 255 + 2 + 2 + 2 + 1}
    # an exponent longer than the stated bits is a builtin power
    counts.clear()
    assert modexp(3, 0x1FFFF, mod, 16) == pow(3, 0x1FFFF, mod)
    assert counts == {127: 17 + 17}
    # a Straus chain: 4 squarings for 9's 4 bits, 2 windows per exponent
    counts.clear()
    assert power_product(((3, 5, None), (7, 9, None)), mod) == (
        pow(3, 5, mod) * pow(7, 9, mod) % mod)
    assert counts == {127: 4 + 2 + 2}


# ---------------------------------------------------------------------------
# products of powers: every answer must be the product of builtin pows

def _pow_product(terms, mod):
    product = 1 % mod
    for base, exp, _ in terms:
        product = product * pow(base, exp, mod) % mod
    return product


def _product_outcome(fn, terms, mod):
    try:
        return fn(terms, mod)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_power_product_equals_product_of_pows(data):
    # Comb and fresh terms mixed, negative exponents, bases 0, >= mod and
    # without an inverse, moduli 1, even and odd: the value or pow's error.
    draw = data.draw
    kind = draw(st.sampled_from(("one", "even", "odd")))
    if kind == "one":
        factor = mod = 1
    else:
        # mod has the factor's parity, and no multiple of it has an inverse
        factor = (2 * draw(st.integers(min_value=1, max_value=2 ** 300))
                  + (kind == "odd"))
        mod = factor * (2 * draw(st.integers(min_value=0, max_value=2 ** 300))
                        + 1)
    base = st.one_of(st.just(0),
                     st.integers(min_value=0, max_value=2 ** 700),
                     st.integers(min_value=0, max_value=2 ** 64).map(
                         lambda k: mod + k),
                     st.integers(min_value=1, max_value=2 ** 64).map(
                         lambda k: k * factor))     # no inverse unless mod 1
    exp = st.one_of(st.just(0), st.just(-1),
                    st.integers(min_value=-2 ** 700, max_value=2 ** 700))
    bits = st.one_of(st.none(), st.integers(min_value=0, max_value=800))
    terms = draw(st.lists(st.tuples(base, exp, bits), max_size=4))
    assert (_product_outcome(power_product, terms, mod)
            == _product_outcome(_pow_product, terms, mod))


@pytest.mark.parametrize("mod", [1, 2, 1 << 64, (1 << 127) - 1])
def test_power_product_edge_moduli(mod):
    for terms in ([], [(0, 0, None)], [(0, 5, None)],
                  [(3, 0, None), (mod, 0, None)],
                  [(mod + 3, 2 ** 100 + 1, None), (5, 7, None),
                   (2, 3 ** 50, None)],
                  [(3, -1, None)], [(3, -1, None), (5, -7, None)],
                  [(2, -1, None), (3, 5, None)], [(mod, -1, None), (3, 2, 8)],
                  [(3, -1, 8), (mod + 5, 9, None), (7, 2 ** 70, None)]):
        assert (_product_outcome(power_product, terms, mod)
                == _product_outcome(_pow_product, terms, mod)), terms


def test_power_product_calls_pow_only_to_invert(monkeypatch):
    # Fresh terms share one chain, so the census sees a builtin power only
    # for a lone fresh term or for the inverse of a negative exponent's base.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(groupmath, "pow", counting_pow, raising=False)
    mod = (1 << 521) - 1
    terms = [(0xC0FFEE, 3 ** 300, None), (mod - 2, 2 ** 255 - 19, None),
             (7, 1, None)]
    assert power_product(terms, mod) == _pow_product(terms, mod)
    assert calls == []
    terms = [(0xC0FFEE, -3 ** 300, None), (mod - 2, 2 ** 255 - 19, None),
             (7, -1, None)]
    assert power_product(terms, mod) == _pow_product(terms, mod)
    assert calls == [(0xC0FFEE, -1, mod), (7, -1, mod)]
    del calls[:]
    terms = [(0xC0FFEE, 3 ** 300, None), (5, 0, None)]
    assert power_product(terms, mod) == _pow_product(terms, mod)
    assert calls == [(0xC0FFEE, 3 ** 300, mod)]


# ---------------------------------------------------------------------------
# Jacobi symbol: the issuer's quadratic-residue test

_PRIMES = (3, 5, 7, 11, 13, 8191, 2 ** 61 - 1, 2 ** 127 - 1,
           sympy.nextprime(2 ** 200))


def _euler(a, P):
    r = pow(a, (P - 1) // 2, P)
    return -1 if r == P - 1 else r


@given(st.integers(min_value=0, max_value=2 ** 200),
       st.integers(min_value=-2 ** 210, max_value=2 ** 210),
       st.integers(min_value=-3, max_value=3),
       st.sampled_from(_PRIMES))
def test_jacobi_matches_sympy_and_euler(k, a, m, P):
    n = 2 * k + 1
    for x in (a, 0, 1, -1, n - 1, m * n, a + m * n, a * n):
        assert jacobi(x, n) == sympy.jacobi_symbol(x, n), (x, n)
    for x in (a, 0, 1, -1, P - 1, m * P, a + m * P):
        assert jacobi(x, P) == _euler(x, P) == sympy.legendre_symbol(x % P, P)


def test_jacobi_rejects_even_or_nonpositive_moduli():
    for n in (0, -3, 2, 10):
        with pytest.raises(ValueError, match="odd positive"):
            jacobi(5, n)
