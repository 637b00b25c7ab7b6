"""The partner process: products of powers computed beside the caller.

Most tests lower the partner's 1,024-bit size rule to desk's 256-bit
factors of N, so that desk keys exercise it.  The byte and verdict tests
take the CPUs this process may use as they are: on one CPU both runs are
in the caller, and the pinned digests still hold.
"""

import dataclasses
import hashlib
import os
import random
import signal
import subprocess
import sys
import threading

import pytest

from chainanchor import epid, groupmath, roles, schnorr
from chainanchor.groupmath import DESK, FULL, random_subgroup_element
from chainanchor.world import World

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# gen_rsa_group(FULL, random.Random(23)): two 1024-bit safe primes, so that
# a full-size group key needs no safe-prime search here.
FULL_P_N = int(
    "dc7541895bdfe1a538c016c4ca9c7a8704a3b60179fe13265c56196c2e458021"
    "8f65e31facc433113e7999904b0cffcd2169d25ab978413c669e02268d218c90"
    "28c691879d462404d04fb66615da1aa0f0603e8f44b32ecb20b7594bf7192f11"
    "865c97387ec5c3c438fdc04bb3a42fad90cc6b4284bf708812f7449db771ee3b", 16)
FULL_Q_N = int(
    "c28e34a448db396fcb8fcbfd53498177790e76fa1f573c66fa39989c6f47738f"
    "abbae47a5a25febe436c71efa3f12e95505f77c824470e6f5abfcbc776ab60f7"
    "51e33cd1784d8f43d74c61426517ed5dd70301d5c0476cea0384083f4b17bfe5"
    "45346829fc23781ed7f79a0d254d4f2516d949e08b4c90bc875632b905fde367", 16)


@pytest.fixture(autouse=True)
def stopped_partner():
    groupmath.stop_partner()
    yield
    groupmath.stop_partner()


@pytest.fixture(scope="module")
def full_group():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epid, "gen_rsa_group",
                   lambda profile, rng: (FULL_P_N, FULL_Q_N))
        return epid.setup_group(FULL, b"partner-test", random.Random(5))


@pytest.fixture
def desk_partner(monkeypatch):
    """Desk keys use the partner, which this process may start."""
    monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _counting_forks(monkeypatch, cpus=2):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _partner_pid():
    return groupmath._partner[0] if groupmath._partner else 0


def _lifecycle(gpk, gipk, seed):
    """The digest of every value of a join, a key check, a signature against
    two sig-RL entries, its verdict and CRT powers."""
    epid._member_key_matches.cache_clear()
    rng = random.Random(seed)
    state, request = epid.join_request(gpk, b"nonce", rng)
    response = epid.issue_credential(gpk, gipk, request, b"nonce", rng)
    key = epid.complete_join(state, response, gpk)
    rl = epid.RevocationList(entries=tuple(
        (random_subgroup_element(gpk.p, gpk.q, rng),
         random_subgroup_element(gpk.p, gpk.q, rng)) for _ in range(2)),
        epoch=2)
    sig = epid.sign_membership(key, gpk, b"msg", b"pv", rl,
                               epid.RevocationList(), rng)
    values = (gpk.transcript_bytes(), request, response, key,
              epid.key_relation_holds(gpk, key),
              epid.verify_join_request(gpk, request, b"nonce"),
              epid.verify_join_request(gpk, request, b"nonce", gipk),
              sig.transcript_bytes(),
              epid.verify_membership(gpk, b"msg", b"pv", sig, rl,
                                     epid.RevocationList()),
              gipk.pow_N(((gpk.S, rng.getrandbits(3000), 2400),)),
              gipk.pow_N(((rng.getrandbits(2048), -rng.getrandbits(256),
                           None),)))
    return hashlib.sha256(repr(values).encode()).hexdigest()


LIFECYCLE_DIGESTS = {
    "desk": "0c9d202495e890d545146f8d2b49d2488d367f8f70294a43fd4b482f2b056cb1",
    "full": "c9c5153b87befc963347cb0a97e635ac8f39f683b0e876fcf9a99d50d910d02e",
}


def test_every_comb_call_fits_its_stated_width(desk_group, monkeypatch):
    # A call whose exponent outgrows its stated bits is a builtin power, so
    # a call site that states too small a width would lose its comb.
    calls = []
    modexp = groupmath.modexp

    def spy(base, exp, mod, bits=None):
        if bits is not None:
            calls.append((abs(exp).bit_length(), bits))
        return modexp(base, exp, mod, bits)

    for module in (groupmath, epid, schnorr, roles):
        monkeypatch.setattr(module, "modexp", spy)
    _lifecycle(*desk_group, 7)
    world = World.create("widths", DESK, 5)
    for step in (world.enroll, world.join, world.prove, world.register):
        step("a")
    world.tx("a", 0, b"pay")
    world.add_node("n")
    world.mine("n")
    assert calls and all(n <= bits for n, bits in calls)


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_partner_leaves_every_byte_unchanged(profile, desk_group, full_group,
                                             monkeypatch):
    gpk, gipk = full_group if profile == "full" else desk_group
    monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 256)
    beside = _lifecycle(gpk, gipk, 7)
    assert bool(groupmath._partner) == (len(os.sched_getaffinity(0)) > 1)
    groupmath.stop_partner()
    monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 1 << 16)
    assert _lifecycle(gpk, gipk, 7) == beside == LIFECYCLE_DIGESTS[profile]
    assert groupmath._partner is None


def _multiplications_of_a_lifecycle(gpk, gipk):
    """The multiplications counted over a lifecycle from cleared records."""
    for memo in (groupmath._stacked_combs, groupmath.in_subgroup,
                 groupmath.hash_to_subgroup, groupmath.is_probable_prime,
                 epid.validate_gpk):
        memo.cache_clear()
    groupmath.MULTIPLICATIONS.clear()
    _lifecycle(gpk, gipk, 7)
    return dict(groupmath.MULTIPLICATIONS)


# By modulus bit length: p and the factors of N (256), N (512), the order
# of the quadratic residues (510), q (160) and the candidates for e (120).
LIFECYCLE_MULTIPLICATIONS = {120: 2207, 160: 1688, 256: 15837, 510: 2,
                             512: 9715}


def test_partner_leaves_the_multiplication_count_unchanged(
        desk_group, desk_partner, monkeypatch):
    # The partner's counts come back with its replies, so a product counts
    # the same in whichever process it ran.
    with_partner = _multiplications_of_a_lifecycle(*desk_group)
    assert groupmath._partner
    groupmath.stop_partner()
    monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 1 << 16)
    alone = _multiplications_of_a_lifecycle(*desk_group)
    assert groupmath._partner is None
    assert with_partner == alone == LIFECYCLE_MULTIPLICATIONS


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_partner_crt_power_raises_as_pow_does(desk_group, desk_partner):
    # A base divisible by a factor gives pow's 0, 1 or ValueError, whichever
    # half computes it.
    gpk, gipk = desk_group
    N, p_N, q_N = gpk.N, gipk.p_N, gipk.q_N
    bits = epid._v_bits(gpk.profile)
    for base in (gpk.R, gpk.S, p_N, q_N, 3 * q_N, N - 1):
        for exp in (0, 1, -1, -(1 << 200) - 3, q_N - 1, N, (1 << bits) - 1):
            for b in (None, bits):
                assert (_outcome(gipk.pow_N, ((base, exp, b),))
                        == _outcome(pow, base, exp, N)), (base, exp, b)
    assert groupmath._partner


def test_partner_verdicts_on_tampered_signatures(desk_group, member_key,
                                                 monkeypatch):
    # The same reason with and without the partner, B's order check still
    # ahead of T's range; t1 never leaves for a T or s_v out of range.
    gpk, gipk = desk_group
    N, p = gpk.N, gpk.p
    sig = epid.sign_membership(member_key, gpk, b"m", b"n",
                               epid.RevocationList(), epid.RevocationList(),
                               random.Random(41))
    v_bound = 1 << epid._v_bits(gpk.profile)
    cases = (({"T": 0}, gpk, "T range", False),
             ({"T": N}, gpk, "T range", False),
             ({"s_v": v_bound}, gpk, "s_v interval", False),
             ({"s_v": -v_bound}, gpk, "s_v interval", False),
             ({"B": p - 1}, gpk, "B subgroup", True),
             ({"B": p - 1, "T": 0}, gpk, "B subgroup", False),
             ({"c": sig.c ^ 1}, gpk, "sigma1", True),
             ({}, dataclasses.replace(gpk, Z=gipk.p_N), "sigma1", True),
             ({"K": 1}, dataclasses.replace(gpk, Z=gipk.p_N), "K subgroup",
              True),
             ({}, gpk, "", True))
    sent = []
    beside = epid.beside

    def spy(terms, mod, here):
        sent.append(terms)
        return beside(terms, mod, here)

    monkeypatch.setattr(epid, "beside", spy)
    for rule in (256, 1 << 16):
        monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", rule)
        for fields, key, reason, reaches in cases:
            del sent[:]
            bad = dataclasses.replace(sig, **fields)
            res = epid.verify_membership(key, b"m", b"n", bad,
                                         epid.RevocationList(),
                                         epid.RevocationList())
            assert bool(res) == (not reason) and res.reason == reason, fields
            assert bool(sent) == reaches, fields


def test_desk_lifecycle_forks_no_partner(desk_group, monkeypatch):
    forks = _counting_forks(monkeypatch)
    _lifecycle(*desk_group, 8)
    assert forks == [] and groupmath._partner is None


def test_full_lifecycles_fork_one_partner(full_group, monkeypatch):
    forks = _counting_forks(monkeypatch)
    for seed in (8, 9):
        _lifecycle(*full_group, seed)
    assert forks == [os.getpid()] and _partner_pid()


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_partner_on_one_cpu_or_beside_a_thread(full_group, monkeypatch,
                                                  cpus):
    forks = _counting_forks(monkeypatch, cpus)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if cpus == 2:
        thread.start()
    try:
        _lifecycle(*full_group, 10)
    finally:
        stop.set()
        if cpus == 2:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and groupmath._partner is None


@pytest.mark.parametrize("when", ["before the request", "during the product"])
def test_killed_partner_is_reaped_and_its_product_made_here(
        desk_group, desk_partner, when):
    gpk, gipk = desk_group
    N = gpk.N
    assert gipk.pow_N(((gpk.S, 12345, None),)) == pow(gpk.S, 12345, N)
    pid = _partner_pid()
    assert pid
    exp = (1 << 60000) - 1  # long enough to be cut off mid-product
    if when == "before the request":
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        here = int
    else:
        def here():
            os.kill(pid, signal.SIGKILL)
            return 0
    assert groupmath.beside(((3, exp, None),), N, here) == (pow(3, exp, N), 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    # the next product starts a new partner
    assert gipk.pow_N(((gpk.R, -7, None),)) == pow(gpk.R, -7, N)
    assert _partner_pid() not in (0, pid)


def test_nested_partner_call_runs_in_the_caller(desk_group, desk_partner):
    # A product asked for while one is in flight must not read its reply.
    gpk, gipk = desk_group
    N, R, S = gpk.N, gpk.R, gpk.S
    assert gipk.pow_N(((S, 9, None),)) == pow(S, 9, N)

    def inner():
        return groupmath.beside(((S, 7, None),), N, int)

    assert groupmath.beside(((R, 5, None),), N, inner) == (
        pow(R, 5, N), (pow(S, 7, N), 0))


class _Interrupt(BaseException):
    pass


class _CutOff:
    """A reply pipe whose read is interrupted."""

    def __init__(self, pipe):
        self.pipe = pipe

    def read(self, *args):
        raise _Interrupt

    readinto = read

    def close(self):
        self.pipe.close()


def test_interrupted_exchange_reaps_the_partner(desk_group, desk_partner):
    # An interrupt in ``here`` leaves a whole exchange: the partner stays.
    # One that cuts off the reply reaps it, so no rest of that reply can
    # answer the next request.
    gpk, gipk = desk_group
    N = gpk.N

    def interrupted():
        raise _Interrupt

    assert gipk.pow_N(((gpk.S, 9, None),)) == pow(gpk.S, 9, N)
    pid = _partner_pid()
    assert pid
    with pytest.raises(_Interrupt):
        groupmath.beside(((gpk.R, 5, None),), N, interrupted)
    assert _partner_pid() == pid
    assert gipk.pow_N(((gpk.S, 11, None),)) == pow(gpk.S, 11, N)
    _, requests, replies = groupmath._partner
    groupmath._partner = pid, requests, _CutOff(replies)
    with pytest.raises(_Interrupt):
        groupmath.beside(((gpk.R, 5, None),), N, int)
    assert groupmath._partner is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert gipk.pow_N(((gpk.Z, -3, None),)) == pow(gpk.Z, -3, N)
    assert _partner_pid() not in (0, pid)


def test_forked_child_leaves_its_parents_partner_alone(desk_group,
                                                       desk_partner):
    gpk, gipk = desk_group
    N = gpk.N
    assert gipk.pow_N(((gpk.R, 99, None),)) == pow(gpk.R, 99, N)
    pid = _partner_pid()
    child = os.fork()
    if child == 0:
        # _leave_partner has closed the child's copies of the pipes
        status = 1
        try:
            if (groupmath._partner is False
                    and gipk.pow_N(((gpk.S, -5, None),)) == pow(gpk.S, -5, N)
                    and groupmath._partner is False):
                status = 0
        finally:
            os._exit(status)
    assert os.waitpid(child, 0)[1] == 0
    assert gipk.pow_N(((gpk.Z, 77, None),)) == pow(gpk.Z, 77, N)
    assert _partner_pid() == pid


def test_process_that_used_a_partner_leaves_none_at_exit():
    code = (
        "from chainanchor import groupmath\n"
        "from chainanchor.epid import GroupIssuingPrivateKey\n"
        f"p, q = {FULL_P_N}, {FULL_Q_N}\n"
        "key = GroupIssuingPrivateKey(p, q, (p - 1) // 2, (q - 1) // 2)\n"
        "ok = key.pow_N(((3, 1 << 2100, None),)) == pow(3, 1 << 2100, p * q)\n"
        "pid = groupmath._partner[0] if groupmath._partner else 0\n"
        "print(pid, ok)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    pid, ok = proc.stdout.split()
    assert ok == "True"
    assert (int(pid) > 0) == (len(os.sched_getaffinity(0)) > 1)
    if int(pid) > 0:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)
