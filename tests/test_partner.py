"""The partner process: a share of each large step's products of powers,
computed beside the caller, which keeps every subgroup check.

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
              epid.verify_join_request(gpk, request, b"nonce", gipk),
              sig.transcript_bytes(),
              epid.verify_membership(gpk, b"msg", b"pv", sig, rl,
                                     epid.RevocationList()),
              gipk.pow_N(((gpk.S, rng.getrandbits(3000), 2400),)),
              gipk.pow_N(((rng.getrandbits(2048), -rng.getrandbits(256),
                           None),)))
    return hashlib.sha256(repr(values).encode()).hexdigest()


LIFECYCLE_DIGESTS = {
    "desk": "9a56bf5dc6385eae85387400fc4e64a847cea7b58e23c4fbb3b1d5598188e8c8",
    "full": "9f1acd974a93b219f809f95770eca9d73ce338625c19add2c492d72484c2804a",
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
    split = _lifecycle(gpk, gipk, 7)
    assert bool(groupmath._partner) == (len(os.sched_getaffinity(0)) > 1)
    groupmath.stop_partner()
    monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", 1 << 16)
    assert _lifecycle(gpk, gipk, 7) == split == LIFECYCLE_DIGESTS[profile]
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
LIFECYCLE_MULTIPLICATIONS = {120: 2207, 160: 1688, 256: 15549, 510: 2,
                             512: 9284}


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


def test_full_lifecycle_counts_the_same_split_alone_or_on_one_cpu(
        full_group, monkeypatch):
    # A split batch builds and counts its comb tables here and runs its
    # checks here through in_subgroup's memory, so the full-size counts
    # (a K_I checked three times, tables first read by the partner) match
    # a run in the caller alone.
    runs = []
    for cpus in (2, 1):
        forks = _counting_forks(monkeypatch, cpus)
        runs.append((_multiplications_of_a_lifecycle(*full_group),
                     _lifecycle(*full_group, 7)))
        assert bool(forks) == (cpus == 2), cpus
        groupmath.stop_partner()
    assert runs[0] == runs[1]
    assert runs[0][1] == LIFECYCLE_DIGESTS["full"]


def test_full_verify_shares_differ_by_at_most_the_largest_unit(
        full_group, monkeypatch):
    gpk, gipk = full_group
    _counting_forks(monkeypatch)
    key = epid.complete_join(*_joined(gpk, gipk, random.Random(12)), gpk)
    sig = epid.sign_membership(key, gpk, b"m", b"n", epid.RevocationList(),
                               epid.RevocationList(), random.Random(13))
    assert groupmath._partner
    deals = []
    on_partner = groupmath._on_partner

    def spy(name, theirs, mine):
        deals.append((theirs[0], mine[0]))
        return on_partner(name, theirs, mine)

    monkeypatch.setattr(groupmath, "_on_partner", spy)
    assert epid.verify_membership(gpk, b"m", b"n", sig, epid.RevocationList(),
                                  epid.RevocationList())
    (theirs, mine), = deals
    # t1's comb terms Z, R and S and its fresh T, the checks of B and K,
    # and t2's one chain; the checks stay here.
    assert len(theirs) + len(mine) == 7
    checks = [(sig.B, gpk.p, gpk.q), (sig.K, gpk.p, gpk.q)]
    assert all(check in mine and check not in theirs for check in checks)
    loads = [sum(map(groupmath._weight, share)) for share in (theirs, mine)]
    largest = max(map(groupmath._weight, theirs + mine))
    assert abs(loads[0] - loads[1]) <= largest


def test_no_subgroup_check_crosses_the_pipe(full_group, monkeypatch):
    # The partner computes products of powers alone; every check runs in
    # the caller, through in_subgroup's memory.  Two lifecycles, so that
    # a deal by weight alone would have sent a check.
    _counting_forks(monkeypatch)
    sent = []
    on_partner = groupmath._on_partner

    def spy(name, theirs, mine):
        sent.append((name, theirs))
        return on_partner(name, theirs, mine)

    monkeypatch.setattr(groupmath, "_on_partner", spy)
    assert _lifecycle(*full_group, 7) == LIFECYCLE_DIGESTS["full"]
    _lifecycle(*full_group, 8)
    assert sent and {name for name, _ in sent} == {"_share"}
    units = [unit for _, (share,) in sent for unit in share]
    assert units and all(
        len(unit) == 2 and isinstance(unit[0], tuple)
        and all(len(term) == 3 for term in unit[0]) for unit in units)


def _joined(gpk, gipk, rng):
    """A join's state and the issuer's response."""
    state, request = epid.join_request(gpk, b"nonce", rng)
    return state, epid.issue_credential(gpk, gipk, request, b"nonce", rng)


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


def _verdicts(cases, verify, monkeypatch):
    """Run each ``(changed, reason, reaches)`` case with and without the
    partner: the same reason either way, one batch handed to shared, with a
    product only when the case ``reaches`` the powers, and the partner
    called only then."""
    batches, calls = [], []
    shared, on_partner = epid.shared, groupmath._on_partner

    def spy_shared(tasks):
        batches.append(tasks)
        return shared(tasks)

    def spy_on_partner(name, theirs, mine):
        calls.append(name)
        return on_partner(name, theirs, mine)

    monkeypatch.setattr(epid, "shared", spy_shared)
    monkeypatch.setattr(groupmath, "_on_partner", spy_on_partner)
    for rule in (256, 1 << 16):
        monkeypatch.setattr(groupmath, "_PARTNER_MIN_BITS", rule)
        for changed, reason, reaches in cases:
            del batches[:], calls[:]
            res = verify(changed)
            assert bool(res) == (not reason) and res.reason == reason, changed
            products = [task for batch in batches for task in batch
                        if len(task) == 2]
            assert len(batches) == 1 and bool(products) == reaches, changed
            assert bool(calls) == (reaches and rule == 256), changed


def test_partner_verdicts_on_tampered_signatures(desk_group, member_key,
                                                 desk_partner, monkeypatch):
    # B's order check still comes ahead of T's range, and a T or s_v out of
    # range sends no product to shared and nothing to the partner.
    gpk, gipk = desk_group
    N, p = gpk.N, gpk.p
    sig = epid.sign_membership(member_key, gpk, b"m", b"n",
                               epid.RevocationList(), epid.RevocationList(),
                               random.Random(41))
    assert groupmath._partner
    v_bound = 1 << epid._v_bits(gpk.profile)
    cases = (({"T": 0}, "T range", False),
             ({"T": N}, "T range", False),
             ({"s_v": v_bound}, "s_v interval", False),
             ({"s_v": -v_bound}, "s_v interval", False),
             ({"B": p - 1}, "B subgroup", True),
             ({"B": p - 1, "T": 0}, "B subgroup", False),
             ({"c": sig.c ^ 1}, "sigma1", True),
             ({}, "", True))
    # A Z with no inverse mod N, which t1 raises to -c, cannot be built.
    with pytest.raises(ValueError, match="^Z range$"):
        dataclasses.replace(gpk, Z=gipk.p_N)
    _verdicts(cases, lambda fields: epid.verify_membership(
        gpk, b"m", b"n", dataclasses.replace(sig, **fields),
        epid.RevocationList(), epid.RevocationList()), monkeypatch)


def test_partner_verdicts_on_tampered_join_requests(desk_group, desk_partner,
                                                    monkeypatch):
    # K_I's order check still comes ahead of every interval, and an
    # interval out of range sends no product to shared and nothing to the
    # partner.
    gpk, gipk = desk_group
    p = gpk.p
    _, request = epid.join_request(gpk, b"nonce", random.Random(42))
    assert groupmath._partner
    s_f_bound = 1 << epid._f_bits(gpk.profile)
    cases = ((({"K_I": p - 1}, {}), "K_I range", True),
             (({"K_I": p - 1}, {"s_f": s_f_bound}), "K_I range", False),
             (({"K_I": 1}, {"c": -1}), "K_I range", False),
             (({}, {"s_f": s_f_bound}), "s_f interval", False),
             (({}, {"s_v": -1}), "s_v interval", False),
             (({}, {"c": request.proof.c ^ 1}), "proof", True),
             (({}, {}), "", True))

    def verify(changed):
        fields, proof = changed
        bad = dataclasses.replace(request, **fields, proof=dataclasses
                                  .replace(request.proof, **proof))
        return epid.verify_join_request(gpk, bad, b"nonce", gipk)

    _verdicts(cases, verify, monkeypatch)


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


def _caller_share(monkeypatch, before):
    """Run ``before()`` ahead of each share that this process computes; the
    partner, forked earlier, keeps the unpatched task."""
    share = groupmath._share

    def patched(units):
        before()
        return share(units)

    monkeypatch.setitem(groupmath._TASKS, "_share", patched)


@pytest.mark.parametrize("when", ["before the request", "during the product"])
def test_killed_partner_is_reaped_and_its_product_made_here(
        desk_group, desk_partner, monkeypatch, when):
    gpk, gipk = desk_group
    N = gpk.N
    assert gipk.pow_N(((gpk.S, 12345, None),)) == pow(gpk.S, 12345, N)
    pid = _partner_pid()
    assert pid
    exp = (1 << 60000) - 1  # long enough to be cut off mid-product
    killed = []

    def kill_once():
        if not killed:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    with monkeypatch.context() as patch:
        if when == "before the request":
            kill_once()
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        else:
            _caller_share(patch, kill_once)
        # The one unit is the partner's share; this process's is empty.
        assert groupmath.shared([(((3, exp, None),), N)]) == [pow(3, exp, N)]
    assert killed == [pid]
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    # the next product starts a new partner
    assert gipk.pow_N(((gpk.R, -7, None),)) == pow(gpk.R, -7, N)
    assert _partner_pid() not in (0, pid)


def test_nested_partner_call_runs_in_the_caller(desk_group, desk_partner,
                                                monkeypatch):
    # A batch asked for while one is in flight must not read its reply.
    gpk, gipk = desk_group
    N, R, S = gpk.N, gpk.R, gpk.S
    assert gipk.pow_N(((S, 9, None),)) == pow(S, 9, N)
    pid, inner = _partner_pid(), []

    def nested_once():
        # The nested batch is split too and runs this hook again, so the
        # flag is set before the call.
        if not inner:
            inner.append(None)
            inner[0] = groupmath.shared([(((S, 7, None),), N)])

    with monkeypatch.context() as patch:
        _caller_share(patch, nested_once)
        assert groupmath.shared([(((R, 5, None),), N)]) == [pow(R, 5, N)]
    assert inner == [[pow(S, 7, N)]] and _partner_pid() == pid


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


def test_interrupted_exchange_reaps_the_partner(desk_group, desk_partner,
                                                monkeypatch):
    # An interrupt in this process's share leaves a whole exchange: the
    # partner stays.  One that cuts off the reply reaps it, so no rest of
    # that reply can answer the next request.
    gpk, gipk = desk_group
    N = gpk.N

    def interrupted():
        raise _Interrupt

    assert gipk.pow_N(((gpk.S, 9, None),)) == pow(gpk.S, 9, N)
    pid = _partner_pid()
    assert pid
    with monkeypatch.context() as patch:
        _caller_share(patch, interrupted)
        with pytest.raises(_Interrupt):
            groupmath.shared([(((gpk.R, 5, None),), N)])
    assert _partner_pid() == pid
    assert gipk.pow_N(((gpk.S, 11, None),)) == pow(gpk.S, 11, N)
    _, requests, replies = groupmath._partner
    groupmath._partner = pid, requests, _CutOff(replies)
    with pytest.raises(_Interrupt):
        groupmath.shared([(((gpk.R, 5, None),), N)])
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
