import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chainanchor import cli, groupmath, roles
from chainanchor.groupmath import DESK
from chainanchor.world import World
from conftest import TINY


def _child_env():
    # a child interpreter imports this checkout's package
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def world_path(tmp_path):
    return str(tmp_path / "world.json")


@pytest.fixture
def ready_world(world_path, capsys):
    code, _, _ = run(capsys, "setup", "grp", "--seed", "5", "--world", world_path)
    assert code == 0
    return world_path


def test_setup_writes_deterministic_world(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "setup", "g", "--seed", "9", "--world", p1)[0] == 0
    assert run(capsys, "setup", "g", "--seed", "9", "--world", p2)[0] == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_setup_refuses_overwrite(ready_world, capsys):
    code, _, err = run(capsys, "setup", "grp", "--world", ready_world)
    assert code == 1 and "exists" in err
    code, _, _ = run(capsys, "setup", "grp2", "--seed", "1", "--world",
                     ready_world, "--force")
    assert code == 0


def test_unknown_profile_is_usage_error(world_path, capsys):
    code, _, err = run(capsys, "setup", "g", "--profile", "nope",
                       "--world", world_path)
    assert code == 1 and "unknown profile" in err


def test_profiles_file(tmp_path, capsys):
    profiles = {"small": {k: v for k, v in TINY.to_doc().items()
                          if k != "name"}}
    prof_path = tmp_path / "profiles.json"
    prof_path.write_text(json.dumps(profiles))
    world_path = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "setup", "g", "--profile", "small",
                     "--profiles-file", str(prof_path), "--world", world_path)
    assert code == 0
    assert World.load(world_path).profile.l_N == TINY.l_N


@pytest.mark.parametrize("overrides, reason", [
    ({"l_N": 512.0}, "malformed field l_N: expected an integer, got float"),
    ({"l_f": -5, "l_v": DESK.l_N - 5 + DESK.l_phi}, "l_f must be at least 1"),
    ({"l_N": True}, "malformed field l_N: expected an integer, got bool"),
    ({"l_q": "160"}, "malformed field l_q: expected an integer, got str"),
])
def test_profiles_file_with_bad_length_is_usage_error(tmp_path, capsys,
                                                      overrides, reason):
    lengths = {k: v for k, v in DESK.to_doc().items() if k != "name"}
    lengths.update(overrides)
    prof_path = tmp_path / "profiles.json"
    prof_path.write_text(json.dumps({"bad": lengths}))
    world_path = str(tmp_path / "w.json")
    code, _, err = run(capsys, "setup", "g", "--profile", "bad",
                       "--profiles-file", str(prof_path), "--world", world_path)
    assert code == 1 and "cannot load profiles: profile 'bad': " in err
    assert reason in err
    assert not os.path.exists(world_path)


def _few_primes_profile(tmp_path, **overrides):
    lengths = {k: v for k, v in TINY.to_doc().items() if k != "name"}
    lengths.update(overrides)
    prof_path = tmp_path / "profiles.json"
    prof_path.write_text(json.dumps({"few": lengths}))
    return str(prof_path)


@pytest.mark.parametrize("overrides, reason", [
    # 227 is the only 8-bit safe prime with its top two bits set, so q_N
    # can never differ from p_N
    (dict(l_N=16, l_f=2, l_e=6, l_e_prime=2, l_v=19, l_phi=1, l_H=8, l_p=8,
          l_q=4), "no 8-bit safe prime other than 227"),
    # a 30- or 31-bit q leaves a handful of multipliers k for p = kq + 1
    ({"l_q": 31}, "no 32-bit p after 100000 attempts"),
    ({"l_q": 30}, "no 32-bit p after 100000 attempts"),
])
def test_setup_on_a_profile_with_too_few_primes_is_usage_error(
        tmp_path, overrides, reason):
    # In a subprocess with a timeout, so that a search that never ends
    # fails the test instead of hanging the suite.
    world_path = str(tmp_path / "w.json")
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "chainanchor.cli", "setup", "g", "--profile",
         "few", "--profiles-file", _few_primes_profile(tmp_path, **overrides),
         "--world", world_path],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert f"setup failed: {reason}" in proc.stderr
    assert not os.path.exists(world_path)


def test_join_on_a_profile_with_too_few_primes_is_usage_error(tmp_path,
                                                              capsys):
    # l_e_prime 1 leaves e the interval [2^15, 2^15 + 1], which holds no
    # prime; set-up and step 2 never draw e.
    world_path = str(tmp_path / "w.json")
    for cmd in (("setup", "g", "--profile", "few", "--profiles-file",
                 _few_primes_profile(tmp_path, l_e_prime=1)),
                ("enroll", "alice")):
        assert run(capsys, *cmd, "--world", world_path)[0] == 0
    before = Path(world_path).read_bytes()
    code, _, err = run(capsys, "join", "alice", "--world", world_path)
    assert code == 1
    assert "join failed: no prime found in [32768, 32769]" in err
    assert Path(world_path).read_bytes() == before
    assert "alice" in World.load(world_path).users


def test_enroll_join_prove_register_flow(ready_world, capsys):
    for cmd in (("enroll", "alice"), ("join", "alice"), ("prove", "alice"),
                ("register", "alice", "--identity")):
        code, out, err = run(capsys, *cmd, "--world", ready_world)
        assert code == 0, (cmd, err)
    world = World.load(ready_world)
    alice = world.users["alice"]
    assert roles.pv_lookup(world.verifier, alice.transaction_keys[0].public)
    assert len(alice.certificates) == 1


def test_out_of_order_commands(ready_world, capsys):
    code, _, err = run(capsys, "prove", "ghost", "--world", ready_world)
    assert code == 2 and "step 2" in err
    run(capsys, "enroll", "dave", "--world", ready_world)
    code, _, err = run(capsys, "prove", "dave", "--world", ready_world)
    assert code == 2 and "steps 3-5" in err
    code, _, err = run(capsys, "register", "dave", "--world", ready_world)
    assert code == 2 and "steps 3-5" in err


def test_duplicate_registration_surfaces(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a"),
                ("register", "a", "--key-index", "0"), ("prove", "a")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    code, _, err = run(capsys, "register", "a", "--key-index", "0",
                       "--world", ready_world)
    assert code == 2 and "duplicate transaction key" in err
    # the rejection leaves the proved session open for the next unused key
    code, out, err = run(capsys, "register", "a", "--world", ready_world)
    assert code == 0, err
    assert "transaction key #1 registered" in out


def test_rejected_register_keeps_session_open(ready_world, capsys):
    for cmd in (("enroll", "alice"), ("join", "alice"), ("prove", "alice")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    code, _, err = run(capsys, "register", "alice", "--key-index", "99",
                       "--world", ready_world)
    assert code == 2 and "no such transaction key" in err
    code, _, err = run(capsys, "register", "alice", "--world", ready_world)
    assert code == 0, err
    world = World.load(ready_world)
    assert roles.pv_lookup(world.verifier,
                           world.users["alice"].transaction_keys[0].public)


def test_rejected_unknown_user_leaves_world_file_unchanged(ready_world, capsys):
    before = Path(ready_world).read_bytes()
    for cmd in (("join", "nobody"), ("prove", "ghost"), ("register", "ghost")):
        code, _, err = run(capsys, *cmd, "--world", ready_world)
        assert code == 2 and "step 2" in err
        assert Path(ready_world).read_bytes() == before, cmd


def test_empty_user_or_node_name_is_refused(ready_world, capsys):
    before = Path(ready_world).read_bytes()
    for cmd, reason in ((("enroll", ""), "user name is empty"),
                        (("outsider", ""), "user name is empty"),
                        (("add-node", ""), "node id is empty")):
        code, _, err = run(capsys, *cmd, "--world", ready_world)
        assert code == 2 and reason in err, cmd
        assert Path(ready_world).read_bytes() == before, cmd


def test_refused_key_index_leaves_world_file_unchanged(ready_world, capsys):
    for cmd in (("enroll", "alice"), ("join", "alice"), ("prove", "alice")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    before = Path(ready_world).read_bytes()
    for cmd, reason in ((("prove", "alice", "--member-index", "3"),
                         "no such member key"),
                        (("prove", "alice", "--member-index", "-1"),
                         "no such member key"),
                        (("register", "alice", "--key-index", "5"),
                         "no such transaction key")):
        code, _, err = run(capsys, *cmd, "--world", ready_world)
        assert code == 2 and reason in err, cmd
        assert Path(ready_world).read_bytes() == before, cmd


def test_tx_mine_audit(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a"), ("register", "a")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    assert run(capsys, "outsider", "mallory", "--world", ready_world)[0] == 0
    assert run(capsys, "tx", "a", "hello", "--world", ready_world)[0] == 0
    assert run(capsys, "tx", "mallory", "shady", "--world", ready_world)[0] == 0
    code, out, _ = run(capsys, "mine", "node0", "--world", ready_world)
    assert code == 0
    assert "not-a-member" in out and "honest node0 proposed block 0 (1 txs" in out

    world = World.load(ready_world)
    block = world.nodes[0].chain[0]
    member_key = world.users["a"].transaction_keys[0].public
    assert [tx.sender_key for tx in block.transactions] == [member_key]
    code, out, _ = run(capsys, "audit", block.block_hash, "--world", ready_world)
    assert code == 0 and "0 violations" in out

    code, _, err = run(capsys, "mine", "nodeX", "--world", ready_world)
    assert code == 2 and "unknown node" in err
    code, _, err = run(capsys, "audit", "ffff", "--world", ready_world)
    assert code == 2 and "unknown block" in err


def test_audit_rejects_empty_or_ambiguous_prefix(ready_world, capsys):
    world = World.load(ready_world)
    world.add_outsider("mallory")
    world.add_node("nodeD", dishonest=True)
    # 17 blocks: two of them must share a first hex digit
    for i in range(17):
        world.tx("mallory", 0, b"tx %d" % i)
        world.mine("nodeD")
    world.save(ready_world)
    hashes = [block.block_hash for block in world.nodes[-1].chain]
    first, second = next((a, b) for i, a in enumerate(hashes)
                         for b in hashes[i + 1:] if a[0] == b[0])
    shared = first[:next(i for i, (x, y) in enumerate(zip(first, second))
                         if x != y)]

    before = Path(ready_world).read_bytes()
    code, out, err = run(capsys, "audit", "", "--world", ready_world)
    assert code == 2 and "empty block hash" in err and "violations" not in out
    code, out, err = run(capsys, "audit", shared, "--world", ready_world)
    assert code == 2 and "ambiguous" in err and "violations" not in out
    assert Path(ready_world).read_bytes() == before
    for prefix in (first, second[:len(shared) + 1]):
        code, out, _ = run(capsys, "audit", prefix, "--world", ready_world)
        assert code == 0 and "1 violations" in out


def test_cli_import_leaves_out_cryptography():
    # AES-GCM is imported by the sealed steps that use it, not at start-up.
    code = ("import sys, chainanchor.cli; "
            "sys.exit('cryptography' in sys.modules)")
    env = _child_env()
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_export_prints_chain_and_drops(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a"), ("register", "a"),
                ("outsider", "m",), ("tx", "a", "good"), ("tx", "m", "bad"),
                ("mine", "node0")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    code, out, _ = run(capsys, "export", "--world", ready_world)
    assert code == 0
    world = World.load(ready_world)
    block = world.nodes[0].chain[0]
    assert f"block 0 hash={block.block_hash}" in out
    dropped_txid, reason = world.nodes[0].drop_log[0]
    assert f"{dropped_txid} not-a-member" in out
    code, out, _ = run(capsys, "export", "--node", "node1", "--world", ready_world)
    assert code == 0 and "# chain node1" in out and "block 0" not in out
    code, _, err = run(capsys, "export", "--node", "nope", "--world", ready_world)
    assert code == 2 and "unknown node" in err


def test_views_never_rewrite_the_world_file(tmp_path, capsys):
    # A format-1 file would be saved again as format 2 by any write.
    fixture = Path(__file__).parent / "data" / "world-v1-setup-seed7.json"
    path = tmp_path / "w.json"
    path.write_bytes(fixture.read_bytes())
    for args, expect in ((("export", "--node", "nope"), 2), (("export",), 0),
                         (("show",), 0)):
        code, _, err = run(capsys, *args, "--world", str(path))
        assert code == expect, args
        assert ("unknown node 'nope'" in err) == (expect == 2), args
        assert path.read_bytes() == fixture.read_bytes(), args


def test_unknown_user_tx(ready_world, capsys):
    code, _, err = run(capsys, "tx", "nobody", "x", "--world", ready_world)
    assert code == 2 and "unknown user" in err


def test_revoke_and_prove_prints_revoked(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a"), ("register", "a")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    world = World.load(ready_world)
    B, K, _ = world.verifier.verified_pseudonyms[0]
    code, out, _ = run(capsys, "revoke", hex(B), hex(K), "--world", ready_world)
    assert code == 0 and "sig-RL updated" in out
    # idempotent second revoke
    code, out, _ = run(capsys, "revoke", hex(B), hex(K), "--world", ready_world)
    assert code == 0 and "no-op" in out

    code, out, err = run(capsys, "prove", "a", "--world", ready_world)
    assert code == 2
    assert "revoked" in err and "revoked" in out


def test_revoke_on_the_issuer_list_needs_the_issuer_base(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    before = Path(ready_world).read_bytes()
    B, K, _ = World.load(ready_world).verifier.verified_pseudonyms[0]
    code, _, err = run(capsys, "revoke", hex(B), hex(K), "--list", "issuer",
                       "--world", ready_world)
    assert code == 2 and "issuer-RL entry is not on the issuer base" in err
    assert Path(ready_world).read_bytes() == before


def test_disclose_cli(ready_world, capsys):
    for cmd in (("enroll", "a"), ("join", "a"), ("prove", "a"), ("register", "a")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    code, out, _ = run(capsys, "disclose", "a", "--key-index", "0",
                       "--world", ready_world)
    assert code == 0 and "disclosed anonymously" in out
    world = World.load(ready_world)
    assert len(world.verifier.disclosures) == 1
    # the other keys remain usable
    code, _, _ = run(capsys, "tx", "a", "post-disclosure", "--world", ready_world)
    assert code == 0


@pytest.mark.parametrize("args", [("tx", "bob", "\udcff\udcfe"),
                                  ("enroll", "\udcff")], ids=["tx", "enroll"])
def test_non_utf8_argument_is_refused_before_the_world_changes(
        ready_world, capsys, args):
    # Undecodable argv bytes arrive as lone surrogates.
    before = Path(ready_world).read_bytes()
    code, _, err = run(capsys, *args, "--world", ready_world)
    assert code == 1 and "is not valid UTF-8" in err
    assert Path(ready_world).read_bytes() == before


def test_world_path_may_hold_non_utf8_bytes(tmp_path, capsys):
    path = str(tmp_path / "w\udcff.json")
    assert run(capsys, "setup", "g", "--seed", "5", "--world", path)[0] == 0
    assert run(capsys, "enroll", "alice", "--world", path)[0] == 0


def test_show_prints_state_hash(ready_world, capsys):
    code, out, _ = run(capsys, "show", "--world", ready_world)
    assert code == 0 and "state hash" in out


def test_missing_world_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "enroll", "a", "--world",
                       str(tmp_path / "missing.json"))
    assert code == 1 and "does not exist" in err


def test_corrupt_world_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not a world file")
    code, _, err = run(capsys, "show", "--world", str(path))
    assert code == 1 and "corrupt" in err
    path.write_text('{"format": 99}')
    code, _, err = run(capsys, "show", "--world", str(path))
    assert code == 1 and "corrupt" in err


def test_world_in_a_missing_directory_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "no" / "dir" / "w.json")
    code, _, err = run(capsys, "setup", "g", "--world", path)
    assert code == 1 and f"cannot write world file {path}" in err
    assert not os.path.exists(path + ".tmp")


@pytest.mark.parametrize("command", [("setup", "g"), ("demo",)])
def test_world_in_a_missing_directory_is_refused_before_set_up(
        tmp_path, capsys, monkeypatch, command):
    def set_up(*args, **kwargs):
        raise AssertionError("set-up ran for a world it cannot save")
    monkeypatch.setattr(World, "create", set_up)
    monkeypatch.setattr(cli, "run_demo", set_up)
    path = str(tmp_path / "no" / "w.json")
    code, _, err = run(capsys, *command, "--world", path)
    assert code == 1 and f"cannot write world file {path}" in err


def test_world_that_is_a_directory_is_usage_error(tmp_path, capsys):
    directory = tmp_path / "d"
    directory.mkdir()
    code, _, err = run(capsys, "enroll", "a", "--world", str(directory))
    assert code == 1 and f"cannot read world file {directory}" in err
    code, _, err = run(capsys, "demo", "--force", "--world", str(directory))
    assert code == 1 and f"cannot write world file {directory}" in err
    # the temp file written before the refused rename is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]


def test_demo_deterministic_and_clean(tmp_path, capsys):
    w1 = str(tmp_path / "demo1.json")
    code1, out1, err1 = run(capsys, "demo", "--seed", "42", "--world", w1)
    code2, out2, _ = run(capsys, "demo", "--seed", "42")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "dropped" in out1 and "not-a-member" in out1
    assert "1 violations" in out1          # the dishonest block audit
    assert "revoked" in out1
    assert "all demo invariants hold" in out1

    # serialize/deserialize round trip preserves the state bit-exactly
    world = World.load(w1)
    again = World.from_doc(world.to_doc())
    assert again.state_hash() == world.state_hash()
    assert again.transcript_text() == world.transcript_text()


def test_demo_seed_changes_transcript(capsys):
    _, out1, _ = run(capsys, "demo", "--seed", "1")
    _, out2, _ = run(capsys, "demo", "--seed", "2")
    assert out1 != out2


def test_split_replay_matches_in_memory(tmp_path, capsys):
    # the same command sequence, split across CLI invocations with a
    # save/load between each, must land on the same state hash
    path = str(tmp_path / "w.json")
    sequence = [
        ("setup", "rep", "--seed", "3", "--world", path),
        ("enroll", "u", "--world", path),
        ("join", "u", "--world", path),
        ("prove", "u", "--world", path),
        ("register", "u", "--world", path),
        ("tx", "u", "ping", "--world", path),
        ("mine", "node1", "--world", path),
    ]
    for cmd in sequence:
        assert run(capsys, *cmd)[0] == 0
    replayed = World.load(path)

    world = World.create("rep", DESK, 3)
    world.enroll("u")
    world.join("u")
    world.prove("u")
    world.register("u")
    world.tx("u", 0, b"ping")
    world.mine("node1")
    assert world.state_hash() == replayed.state_hash()


def test_split_replay_registers_sessions_in_proof_order(tmp_path, capsys):
    # two open sessions: a reload must not change which one registers first
    path = str(tmp_path / "w.json")
    steps = ["enroll", "join", "prove", "prove", "register", "register"]
    assert run(capsys, "setup", "rep", "--seed", "3", "--world", path)[0] == 0
    for step in steps:
        assert run(capsys, step, "u", "--world", path)[0] == 0
    replayed = World.load(path)

    world = World.create("rep", DESK, 3)
    for step in steps:
        getattr(world, step)("u")
    assert world.state_hash() == replayed.state_hash()
    first, second = world.verifier.verified_pseudonyms
    assert [world.verifier.sessions[sid].registered_keys
            for _, _, sid in (first, second)] == [
        [key.public] for key in world.users["u"].transaction_keys]


def test_transcript_step_tags_in_protocol_order(ready_world, capsys):
    # a single user's flow must emit step tags in the protocol's numeric order
    for cmd in (("enroll", "u"), ("join", "u"), ("prove", "u"),
                ("register", "u", "--identity"), ("tx", "u", "ping")):
        assert run(capsys, *cmd, "--world", ready_world)[0] == 0
    assert run(capsys, "mine", "node0", "--world", ready_world)[0] == 0
    world = World.load(ready_world)
    tags = []
    for line in world.lines:
        assert line.startswith("[")
        tag = line[1:line.index("]")]
        if tag.startswith("step "):
            tags.append(float(tag.split()[1]))
    assert tags == sorted(tags)
    assert tags[0] == 0 and 6.7 in tags and 8 in tags


def test_full_profile_setup_smoke(tmp_path, capsys, monkeypatch):
    # deployment-scale parameters: slow path, generation plus validation.
    # With 2 CPUs seen, the first safe-prime search forks the partner
    # process, and nothing else forks: not the search windows, not a
    # second full-size search, not a desk set-up.
    groupmath.stop_partner()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    path = str(tmp_path / "full.json")
    code, out, _ = run(capsys, "setup", "big", "--profile", "full",
                       "--seed", "1", "--world", path)
    assert code == 0 and "N 2048 bits" in out
    assert forks == [os.getpid()]
    groupmath.gen_safe_prime(1024, random.Random(5), _top_two=True)
    World.create("desk", DESK, 1)
    assert forks == [os.getpid()]
    world = World.load(path)
    assert world.profile.name == "full"
    # N comes from the two 1024-bit safe-prime searches alone; this is its
    # digest from the sequential search, which any number of workers keeps.
    N = world.verifier.gpk.N
    assert hashlib.sha256(N.to_bytes(256, "big")).hexdigest() == (
        "af31544f5d5695d5144f87d46af83e17f582e65251c308f440df71020c464fbb")
    # The Schnorr group (p, q, u) as found by one process testing p's
    # 64 rounds alone; a pre-test or a split of the rounds keeps it.
    gpk = world.verifier.gpk
    pqu = (gpk.p.to_bytes(204, "big") + gpk.q.to_bytes(32, "big")
           + gpk.u.to_bytes(204, "big"))
    assert hashlib.sha256(pqu).hexdigest() == (
        "2e9049f7978b166906a856244a81cbfb5e8ae442cf906bca53b5e90c8adfb937")
