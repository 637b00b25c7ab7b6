"""The four benchmark workloads and the outcome oracle.

Every workload is a closed loop: one client issues the next operation only
after the previous one has finished.  The program is driven only through
its public surface (``World`` methods, ``roles``, ``ledger``,
``chainanchor.cli`` as a process).  Inputs come from the workload seed; the
same seed gives the same operations in the same order.

A workload repeats whole *episodes* (for ``cli_desk``, CLI sessions) as
long as one more fits in ``seconds``; the first always runs.  Work that grows inside
an episode, such as a revocation list, is reset at the next one by loading
the world saved after set-up, so the mix of operations a sample comes from
does not depend on how fast the machine is.  The census window (set-up plus
the first episode) is the same work on every run with the same seed, so
counters read at its end repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from chainanchor import DESK, FULL, RevokedKeyError, World, ledger, roles, schnorr
from chainanchor.rng import DeterministicRng

# member_full always establishes the same group: the safe-prime search takes
# anywhere from ~15 s to ~35 s depending on the seed, which would swamp
# setup_s with input luck.  The workload seed drives everything after it.
FULL_GROUP_SEED = 1

SIZES = {
    "member_full": {"profile": FULL, "members": 4},
    "revocation_desk": {"profile": DESK, "setups": 2, "population": 100,
                        "batches": ((50, "sig"), (30, "issuer"), (20, "sig"))},
    "ledger_desk": {"profile": DESK, "setups": 2, "members": 4,
                    "db_keys": 10000, "outsider_keys": 200, "rounds": 32,
                    "round_txs": 64, "unregistered_share": 0.1,
                    "attest_every": 4},
    "cli_desk": {"profile": DESK, "setups": 3, "members": 3},
}

# The operation whose latency is op_ms and whose rate is ops_per_s.  On
# revocation_desk it is an attestation while the lists are not empty: the
# RL-0 ones all fall in the first second of an episode, too short a window
# to be steady, and member_full and ledger_desk time those already.
HEADLINE = {"member_full": "join_ms", "revocation_desk": "attest_rl_ms",
            "ledger_desk": "tx_ms", "cli_desk": "cli_cmd_ms"}


def derive(*parts) -> int:
    """A 63-bit seed derived from the workload seed and a purpose label."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Oracle:
    """Counts operations against their expected verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def call(self, what, fn, *args, expect=None, **kwargs):
        """Run one operation; ``expect`` is the exception type it must
        raise.  Returns (verdict as expected, result)."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every outcome is a verdict to record
            if expect is not None and isinstance(exc, expect):
                return True, exc
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return False, None
        if expect is not None:
            self.failures.append(f"{what}: expected {expect.__name__}")
            return False, result
        return True, result


class Run:
    """State of one benchmark run: samples, oracle, census, run window."""

    def __init__(self, workload, seed, seconds, tracer=None, sizes=None,
                 workdir="."):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.size = dict(SIZES[workload], **(sizes or {}))
        self.workdir = workdir
        self.oracle = Oracle()
        self.setup_s: list[float] = []
        self.samples = defaultdict(list)      # name -> seconds
        self.counts = defaultdict(int)
        self.census = None
        self.run_s = 0.0
        self.run_self = {}                    # span name -> self seconds
        self.children = []                    # traced child summaries (cli)
        self.world_kbytes = 0.0               # size of the saved world
        self.child_peak_kb = 0                # cli_desk: largest child

    def episodes(self, play, saved=None):
        """The timed phase: ``play(world, episode)`` for whole episodes
        while one more fits in ``seconds`` (the first always runs).  Each
        episode starts from the world saved after set-up, if there is one,
        on a fresh random stream.  The census closes after the first."""
        tracer = self.tracer
        if tracer is not None:
            self_before, events_before = tracer.self_snapshot(), self._events()
        started = perf_counter()
        episode = 0
        while episode == 0 or (perf_counter() - started) * (episode + 1) \
                / episode <= self.seconds:
            # No reference outlives the episode: one world at a time.
            play(None if saved is None else restore(
                saved, derive(self.seed, self.workload, episode)), episode)
            self.merge_children()
            if tracer is not None and self.census is None:
                self.census = dict(tracer.census(),
                                   **{"world.kbytes": self.world_kbytes})
            episode += 1
        self.run_s = perf_counter() - started
        self.counts["episodes"] = episode
        self.counts["ops"] = len(self.samples[HEADLINE[self.workload]])
        if tracer is not None:
            now = tracer.self_snapshot()
            self.run_self = {name: now[name] - self_before.get(name, 0.0)
                             for name in now}
            calls, modexps = self._events()
            self.counts["traced_calls"] = calls - events_before[0]
            self.counts["traced_modexps"] = modexps - events_before[1]

    def _events(self):
        return sum(self.tracer.calls.values()), self.tracer.modexp_count

    def merge_children(self):
        """Fold the counters traced child processes wrote into the tracer."""
        if self.tracer is not None:
            for child in self.children:
                self.tracer.merge(child)
        self.children.clear()


# ---------------------------------------------------------------------------
# shared steps

def save(run: Run, world: World) -> str:
    """Set-up ends by saving the world; episodes start from this file."""
    path = os.path.join(run.workdir, "setup-world.json")
    world.save(path)
    run.world_kbytes = os.path.getsize(path) / 1000
    return path


def restore(path: str, rng_seed: int) -> World:
    """The world saved after set-up, continuing on a fresh random stream."""
    world = World.load(path)
    world.rng = DeterministicRng(rng_seed)
    return world


def onboard(run: Run, world: World, name: str, sample=None):
    """enroll + join, checked: the member ends up holding one member key."""
    start = perf_counter()
    if not (run.oracle.call(f"enroll {name}", world.enroll, name)[0]
            and run.oracle.call(f"join {name}", world.join, name)[0]):
        return
    if sample:
        run.samples[sample].append(perf_counter() - start)
    run.oracle.check(len(world.users[name].member_keys) == 1,
                     f"{name} holds no member key after join")


def attest(run: Run, world: World, name: str, samples=("attest_ms",)):
    """prove + register, timed into each of ``samples``.  Accepted: both
    sides hold the same PSK and the new key is in the permissions database.
    Returns the session id or None."""
    start = perf_counter()
    ok, session_id = run.oracle.call(f"prove {name}", world.prove, name)
    if not ok:
        return None
    ok, key_index = run.oracle.call(f"register {name}", world.register, name)
    if not ok:
        return None
    for sample in samples:
        run.samples[sample].append(perf_counter() - start)
    user = world.users[name]
    run.oracle.check(user.psk_sessions[session_id].psk
                     == world.verifier.sessions[session_id].psk,
                     f"PSK mismatch for {name} in {session_id}")
    run.oracle.check(roles.pv_lookup(world.verifier,
                                     user.transaction_keys[key_index].public),
                     f"key #{key_index} of {name} not in the database")
    return session_id


def verified_pseudonym(world: World, session_id: str):
    return next((B, K) for B, K, sid in world.verifier.verified_pseudonyms
                if sid == session_id)


def join_pseudonym(world: World, name: str):
    group = world.issuer.groups[world.group_id]
    return group.join_pseudonyms[world.users[name].internet_identity]


def refused(run: Run, world: World, name: str):
    run.oracle.call(f"prove by revoked {name}", world.prove, name,
                    expect=RevokedKeyError)


def honest_chains_pass(run: Run, world: World):
    for node in world.nodes:
        if not node.dishonest:
            run.oracle.check(ledger.chain_scan_membership(node.chain,
                                                          world.db_view()),
                             f"honest chain {node.node_id} failed the scan")


# ---------------------------------------------------------------------------
# member_full

def member_full(run: Run):
    """A member lifecycle on the 2048-bit profile, episode after episode."""
    start = perf_counter()
    world = World.create("member-full", run.size["profile"], FULL_GROUP_SEED)
    run.setup_s.append(perf_counter() - start)
    run.episodes(lambda world, episode: _member_episode(run, world, episode),
                 save(run, world))


def _member_episode(run: Run, world: World, episode: int):
    names = [f"m{episode}x{i}" for i in range(run.size["members"])]
    for name in names:
        onboard(run, world, name, sample="join_ms")
    sessions = {name: attest(run, world, name) for name in names}
    sig_revoked, issuer_revoked, *others = names
    if sessions[sig_revoked] is not None:
        run.oracle.call("revoke sig", world.revoke,
                        *verified_pseudonym(world, sessions[sig_revoked]), "sig")
    run.oracle.call("revoke issuer", world.revoke,
                    *join_pseudonym(world, issuer_revoked), "issuer")
    for name in (sig_revoked, issuer_revoked):
        refused(run, world, name)
    for name in others:
        attest(run, world, name)

    outsider = f"o{episode}"
    run.oracle.call("outsider", world.add_outsider, outsider)
    member_txids = [run.oracle.call("tx", world.tx, name, key_index,
                                    f"pay {name} {key_index}".encode())[1]
                    for name in others
                    for key_index in range(len(world.users[name].transaction_keys))]
    _, outsider_txid = run.oracle.call("tx", world.tx, outsider, 0, b"intrude")
    _, block = run.oracle.call("mine node0", world.mine, "node0")
    run.oracle.check(block is not None and [tx.txid for tx in block.transactions]
                     == member_txids, "node0 block is not the member txs")
    run.oracle.check((outsider_txid, ledger.NOT_A_MEMBER)
                     in world.nodes[0].drop_log, "outsider tx not drop-logged")
    honest_chains_pass(run, world)


# ---------------------------------------------------------------------------
# revocation_desk

def revocation_desk(run: Run):
    """Attestation rounds against revocation lists that grow to ~100."""
    population = [f"m{i}" for i in range(run.size["population"])]
    for rep in range(run.size["setups"]):
        start = perf_counter()
        world = World.create("revocation-desk", run.size["profile"],
                             derive(run.seed, "setup", rep))
        for name in population:
            onboard(run, world, name)
        run.setup_s.append(perf_counter() - start)
    run.episodes(lambda world, episode: _revocation_episode(
        run, world, population,
        random.Random(derive(run.seed, "batches", episode))), save(run, world))


def _revocation_episode(run, world, population, chooser):
    active = list(population)
    for number, (batch_size, which) in enumerate(run.size["batches"]):
        samples = ("attest_ms", "attest_rl_ms") if number else ("attest_ms",)
        sessions = {name: attest(run, world, name, samples) for name in active}
        batch = chooser.sample(active, min(batch_size, len(active)))
        for name in batch:
            if which == "sig":
                if sessions[name] is None:
                    continue
                pair = verified_pseudonym(world, sessions[name])
            else:
                pair = join_pseudonym(world, name)
            run.oracle.call(f"revoke {which}", world.revoke, *pair, which)
        for name in batch:
            refused(run, world, name)
        active = [name for name in active if name not in batch]
    listed = (len(world.verifier.sig_rl.entries)
              + len(world.verifier.issuer_rl.entries))
    run.oracle.check(listed == sum(size for size, _ in run.size["batches"]),
                     f"revocation lists hold {listed} entries")
    run.counts["rl_entries"] = listed


# ---------------------------------------------------------------------------
# ledger_desk

def ledger_desk(run: Run):
    """Transactions from a large registered population through the pool,
    honest and dishonest miners and validator audits; each episode ends
    with a scan of the honest chains."""
    size = run.size
    for rep in range(size["setups"]):
        start = perf_counter()
        world, members, registered, outsiders = _ledger_setup(
            derive(run.seed, "setup", rep), run)
        run.setup_s.append(perf_counter() - start)
    run.episodes(lambda world, episode: _ledger_episode(
        run, world, random.Random(derive(run.seed, "senders", episode)),
        members, list(registered), outsiders), save(run, world))


def _ledger_episode(run, world, chooser, members, registered, outsiders):
    miners = ("node0", "node2", "node1", "node2")
    every = run.size["attest_every"]
    for number in range(run.size["rounds"]):
        if number and number % every == 0:
            name = members[number // every % len(members)]
            if attest(run, world, name) is not None:
                registered.append(world.users[name].transaction_keys[-1])
        _ledger_round(run, world, chooser, registered, outsiders,
                      miners[number % len(miners)], number)
    honest_chains_pass(run, world)


def _ledger_setup(seed, run):
    size = run.size
    world = World.create("ledger-desk", size["profile"], seed)
    members = [f"m{i}" for i in range(size["members"])]
    for name in members:
        onboard(run, world, name)
        attest(run, world, name, samples=())
    world.add_node("node2", dishonest=True)
    group = roles.signing_group_of(world.verifier.gpk)
    # Generated keys stand in for earlier registrations: real ones would
    # cost a membership proof each.
    bulk = [schnorr.generate_keypair(group, world.rng)
            for _ in range(size["db_keys"])]
    database = world.verifier.permissions_db
    for keypair in bulk:
        database.add(keypair.public, world.clock.now())
    registered = bulk + [world.users[name].transaction_keys[0]
                         for name in members]
    outsiders = [schnorr.generate_keypair(group, world.rng)
                 for _ in range(size["outsider_keys"])]
    return world, members, registered, outsiders


def _ledger_round(run, world, chooser, registered, outsiders, miner, number):
    world.clock.tick()
    created = []
    for i in range(run.size["round_txs"]):
        member = chooser.random() >= run.size["unregistered_share"]
        keypair = chooser.choice(registered if member else outsiders)
        start = perf_counter()
        tx = ledger.create_transaction(keypair, f"r{number} t{i}".encode(),
                                       world.clock)
        if run.oracle.call("submit", ledger.submit, world.pool, tx) == (True, True):
            created.append((tx.txid, member, start))
    node = next(n for n in world.nodes if n.node_id == miner)
    drops_before = len(node.drop_log)
    _, block = run.oracle.call(f"mine {miner}", world.mine, miner)
    done = perf_counter()
    run.counts["txs"] += len(created)
    for _, _, start in created:
        run.samples["tx_ms"].append(done - start)

    members = [txid for txid, member, _ in created if member]
    intruders = [txid for txid, member, _ in created if not member]
    included = [tx.txid for tx in block.transactions] if block else []
    if node.dishonest:
        run.oracle.check(included == [txid for txid, _, _ in created],
                         f"dishonest {miner} block is not the whole pool")
        if block is None:
            return
        _, report = run.oracle.call("audit", world.audit, block.block_hash)
        run.oracle.check(report is not None and sorted(
            txid for txid, _ in report.violations) == sorted(intruders),
            f"audit of {miner} block does not list exactly the intruders")
    else:
        run.oracle.check(included == members,
                         f"honest {miner} block is not the member txs")
        dropped = node.drop_log[drops_before:]
        run.oracle.check(dropped == [(txid, ledger.NOT_A_MEMBER)
                                     for txid in intruders],
                         f"{miner} drop log is not the intruder txs")
        run.counts["honest_offered"] += len(created)
        run.counts["honest_dropped"] += len(dropped)


# ---------------------------------------------------------------------------
# cli_desk

CLI = ("-m", "chainanchor.cli")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def cli_command(run: Run, args, sample="cli_cmd_ms"):
    """One CLI command as its own process; returns (exit code, stdout)."""
    if run.tracer is None:
        argv = [sys.executable, *CLI, *args]
        out_path = None
    else:
        out_path = os.path.join(run.workdir, f"child-{len(run.children)}.json")
        argv = [sys.executable, os.path.join("bench", "cli_child.py"),
                out_path, *args]
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=child_env(), timeout=120)
    if sample:
        run.samples[sample].append(perf_counter() - start)
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            run.children.append(json.load(fh))
        os.remove(out_path)
    return proc.returncode, proc.stdout


def cli_desk(run: Run):
    """One ``python -m chainanchor.cli`` process per command; an episode is
    one CLI session."""
    for rep in range(run.size["setups"]):
        path = os.path.join(run.workdir, f"setup-{rep}.json")
        start = perf_counter()
        code, _ = cli_command(run, ["setup", "cli-desk", "--profile",
                                    run.size["profile"].name, "--seed",
                                    str(derive(run.seed, "setup", rep)),
                                    "--world", path], sample=None)
        run.setup_s.append(perf_counter() - start)
        run.oracle.check(code == 0, f"setup exited {code}")
        os.remove(path)
    run.merge_children()

    def session(_, number):
        path = os.path.join(run.workdir, f"session-{number}.json")
        _cli_replay_check(run, _cli_session(
            run, path, derive(run.seed, "session", number)))
        if number == 0:
            run.world_kbytes = os.path.getsize(path) / 1000
            # Largest child so far; later sessions are not counted, so the
            # figure does not depend on how many sessions fit in the run.
            run.child_peak_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        os.remove(path)

    run.episodes(session)


def _cli_session(run, path, seed):
    """Run one session through the CLI and, command by command, build the
    same session as in-process ``World`` calls for the replay check."""
    names = [f"m{i}" for i in range(run.size["members"])]
    replay = []

    def cmd(args, call, expect_code=0):
        code, out = cli_command(run, [*args, "--world", path])
        run.oracle.check(code == expect_code,
                         f"{' '.join(args)}: exit {code}, expected {expect_code}")
        replay.append(call)
        return out

    profile = run.size["profile"]
    cmd(["setup", "cli-desk", "--profile", profile.name, "--seed", str(seed)],
        lambda _: World.create("cli-desk", profile, seed))
    for name in names:
        cmd(["enroll", name], lambda w, n=name: w.enroll(n))
        cmd(["join", name], lambda w, n=name: w.join(n))
    sessions = {}
    for i, name in enumerate(names):
        out = cmd(["prove", name], lambda w, n=name: w.prove(n))
        sessions[name] = re.findall(r"session (s[0-9a-f]+)", out)[-1:]
        identity = i == 0
        cmd(["register", name] + (["--identity"] if identity else []),
            lambda w, n=name, ident=identity: w.register(
                n, with_identity=ident))
    first, revoked, last = names[0], names[1], names[-1]
    cmd(["prove", first], lambda w: w.prove(first))
    cmd(["register", first], lambda w: w.register(first))
    cmd(["outsider", "x"], lambda w: w.add_outsider("x"))
    for name, payload, key_index in ((first, "pay 1", 0), (revoked, "pay 2", 0),
                                     ("x", "intrude 1", 0), (first, "pay 3", 1)):
        cmd(["tx", name, payload, "--key-index", str(key_index)],
            lambda w, n=name, p=payload, k=key_index: w.tx(n, k, p.encode()))
    cmd(["mine", "node0"], lambda w: w.mine("node0"))
    cmd(["add-node", "node2", "--dishonest"],
        lambda w: w.add_node("node2", dishonest=True))
    cmd(["tx", last, "pay 4"], lambda w: w.tx(last, 0, b"pay 4"))
    cmd(["tx", "x", "intrude 2"], lambda w: w.tx("x", 0, b"intrude 2"))
    out = cmd(["mine", "node2"], lambda w: w.mine("node2"))
    block = (re.findall(r"hash ([0-9a-f]{12})", out) or ["0" * 12])[0]
    out = cmd(["audit", block], lambda w: w.audit(block))
    run.oracle.check(out.strip().startswith("1 violations"),
                     f"audit printed {out.strip()[:40]!r}")

    with open(path, encoding="utf-8") as fh:
        pairs = json.load(fh)["verifier"]["verified_pseudonyms"]
    B, K = next(((b, k) for b, k, sid in pairs if [sid] == sessions[revoked]),
                ("0x2", "0x2"))
    cmd(["revoke", B, K, "--list", "sig"],
        lambda w: w.revoke(int(B, 16), int(K, 16), "sig"))
    cmd(["prove", revoked], _expect_revoked(revoked), expect_code=2)
    cmd(["prove", last], lambda w: w.prove(last))
    cmd(["register", last], lambda w: w.register(last))
    cmd(["disclose", last, "--key-index", "0"],
        lambda w: w.disclose(last, 0, reveal_identity=False))
    out = cmd(["show"], lambda w: None)
    return replay, re.findall(r"state hash ([0-9a-f]{64})", out)


def _expect_revoked(name):
    def call(world):
        try:
            world.prove(name)
        except RevokedKeyError:
            return None
        raise AssertionError(f"revoked {name} completed a proof in replay")
    return call


def _cli_replay_check(run, session):
    """The CLI session, replayed in one process, must reach the same state
    hash (save/load is lossless and replay deterministic)."""
    replay, cli_hash = session
    world = None
    try:
        for call in replay:
            result = call(world)
            if isinstance(result, World):
                world = result
    except Exception as exc:  # a replay error is a failed verdict
        run.oracle.check(False, f"in-process replay: {type(exc).__name__}: {exc}")
        return
    run.oracle.check(cli_hash == [world.state_hash()],
                     "CLI state hash differs from the in-process replay")
    honest_chains_pass(run, world)
    node0 = world.nodes[0]
    run.oracle.check(len(node0.drop_log) == 1
                     and node0.drop_log[0][1] == ledger.NOT_A_MEMBER,
                     "node0 drop log is not the one intruder tx")
