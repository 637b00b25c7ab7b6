"""Hostile input: tampered envelopes and corrupt world files must end in a
ProtocolError (CLI exit code 1 or 2), never in a stray Python exception."""

import ast
import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainanchor import cli, epid, roles, schnorr
from chainanchor.errors import ProtocolError
from chainanchor.groupmath import DESK, hash_to_subgroup
from chainanchor.serial import doc_bytes, pack
from chainanchor.world import World


@pytest.fixture(scope="module")
def base_doc():
    """A fresh world whose sig-RL lists one pseudonym, so that proofs carry
    a non-revocation proof that tampering can reach."""
    world = World.create("hostile", DESK, seed=11)
    gpk = world.verifier.gpk
    B = hash_to_subgroup(b"revoked", gpk.p, gpk.q)
    world.revoke(B, pow(B, 2, gpk.p))
    return world.to_doc()


def _tamper_step(world, step, mutate):
    """Rewrite the payload document of every ``step`` envelope in transit."""
    def tamper(env):
        if env.step != step:
            return env
        doc = json.loads(env.payload)
        mutate(doc)
        return dataclasses.replace(env, payload=doc_bytes(doc))
    world.transcript.tamper = tamper


def _joined(base_doc):
    world = World.from_doc(base_doc)
    world.enroll("alice")
    world.join("alice")
    return world


def test_deleted_share_is_protocol_error(base_doc):
    world = _joined(base_doc)
    _tamper_step(world, "step-6.4", lambda doc: doc.pop("share"))
    with pytest.raises(ProtocolError, match="share"):
        world.prove("alice")


def test_retyped_sigma_element_is_protocol_error(base_doc):
    world = _joined(base_doc)
    _tamper_step(world, "step-6.4", lambda doc: doc["sigma"].update(B=5))
    with pytest.raises(ProtocolError, match="sigma.B"):
        world.prove("alice")


def test_malformed_join_commitment_is_protocol_error(base_doc):
    world = World.from_doc(base_doc)
    world.enroll("alice")
    _tamper_step(world, "step-3", lambda doc: doc["join"].update(U="zz"))
    with pytest.raises(ProtocolError, match="join.U"):
        world.join("alice")


def test_revocation_entry_outside_group_is_protocol_error(base_doc):
    world = _joined(base_doc)
    _tamper_step(world, "step-6.2",
                 lambda doc: doc["sig_rl"].update(entries=[["0x2", "0x0"]]))
    with pytest.raises(ProtocolError):
        world.prove("alice")


def test_revocation_base_of_order_two_is_refused_for_either_parity(base_doc):
    # With (p-1, p-1) on the sig-RL, B_i^f == K_i exactly when f is odd, so
    # a signer that raised B_i to f would show the verifier f's parity
    # (Lim & Lee, CRYPTO 1997).  Both parities get the same refusal, and
    # neither sends a proof.
    world = World.from_doc(base_doc)
    by_parity = {}
    for name in "abcdefgh":
        world.enroll(name)
        world.join(name)
        by_parity.setdefault(world.users[name].member_keys[0].f % 2, name)
    assert len(by_parity) == 2
    p = world.verifier.gpk.p
    world.verifier.sig_rl = epid.RevocationList(
        entries=((p - 1, p - 1),), epoch=world.verifier.sig_rl.epoch + 1)
    for name in by_parity.values():
        sent = len(world.transcript.envelopes)
        with pytest.raises(ProtocolError,
                           match="revocation list entry out of range") as exc:
            world.prove(name)
        assert not isinstance(exc.value, epid.RevokedKeyError)
        assert "step-6.4" not in [env.step for env
                                  in world.transcript.envelopes[sent:]]


# ---------------------------------------------------------------------------
# steps 6-7: each receiver acts on the session id the message names

_SESSION_STEPS = ["step-6.1", "step-6.2", "step-6.4", "step-6.5", "step-6.6",
                  "step-6.7", "step-7"]


@pytest.mark.parametrize("step", _SESSION_STEPS)
def test_message_naming_an_unknown_session_is_refused(base_doc, step):
    world = _joined(base_doc)
    _tamper_step(world, step, lambda doc: doc.update(session_id="s-bogus"))
    with pytest.raises(ProtocolError, match="session 's-bogus'"):
        world.prove("alice")
        world.register("alice", with_identity=True)
    assert not world.verifier.issued_identities


@pytest.mark.parametrize("step", _SESSION_STEPS[:5])
def test_message_naming_an_earlier_session_is_refused(base_doc, step):
    world = _joined(base_doc)
    earlier = world.prove("alice")
    _tamper_step(world, step, lambda doc: doc.update(session_id=earlier))
    with pytest.raises(ProtocolError, match="is not the current session"):
        world.prove("alice")
    assert len(world.verifier.sessions) == 1


@pytest.mark.parametrize("step", _SESSION_STEPS[5:])
def test_sealed_message_naming_another_session_is_refused(base_doc, step):
    world = _joined(base_doc)
    earlier = world.prove("alice")
    world.register("alice")
    world.prove("alice")
    _tamper_step(world, step, lambda doc: doc.update(session_id=earlier))
    with pytest.raises(ProtocolError, match="is not the current session"):
        world.register("alice", with_identity=True)
    assert not world.verifier.issued_identities


@pytest.mark.parametrize("index", range(4),
                         ids=["6.7-request", "6.7-ack", "7-request", "7-reply"])
def test_sealed_envelope_replayed_from_an_earlier_session_is_refused(
        base_doc, index):
    # A whole genuine envelope of session A, delivered in place of its
    # counterpart in session B, opens in neither: it names A and is sealed
    # under A's keys.
    world = _joined(base_doc)
    earlier = world.prove("alice")
    sent = len(world.transcript.envelopes)
    world.register("alice", with_identity=True)
    replayed = world.transcript.envelopes[sent:][index]
    world.prove("alice")
    world.transcript.tamper = lambda env: (
        replayed if (env.step, env.sender) == (replayed.step, replayed.sender)
        else env)
    alice = world.users["alice"]
    issued = len(world.verifier.issued_identities)
    with pytest.raises(ProtocolError, match="is not the current session"):
        world.register("alice", with_identity=True)
    if index != 3:   # the verifier mints before the user reads step 7's reply
        assert len(world.verifier.issued_identities) == issued
    assert len(world.verifier.sessions[earlier].registered_keys) == 1
    assert len(alice.psk_sessions[earlier].registered_keys) == 1
    assert len(alice.certificates) == 1


# ---------------------------------------------------------------------------
# step 2: the issuer authenticates what it sent, not what it assumes

def _step2_kind(env):
    if env.signature is not None:
        return "statement"
    if env.recipient == roles.ISSUER_ID:
        return "request"
    return "challenge" if b"auth_nonce" in env.payload else "delivery"


def _tamper_enrollment(world, kind, mutate):
    """Rewrite the ``kind`` step-2 envelope in transit: ``mutate`` gets the
    envelope and its payload document and returns the envelope to deliver."""
    def tamper(env):
        if env.step != "step-2" or _step2_kind(env) != kind:
            return env
        return mutate(env, json.loads(env.payload))
    world.transcript.tamper = tamper


def _refused_enrollment(world, name, match):
    with pytest.raises(ProtocolError, match=match):
        world.enroll(name)
    group = world.issuer.groups[world.group_id]
    identity = world.users[name].internet_identity
    assert identity not in group.member_roster
    assert identity not in group.pending_join_nonces
    assert world.group_id not in world.users[name].enrollments


@pytest.mark.parametrize("field, value, match", [
    ("identity", "mallory@evil", "unknown identity 'mallory@evil'"),
    ("identity", "bob@idp-issuer.com", "wrong identity"),
    ("group_id", "other", "unknown group 'other'"),
])
def test_issuer_reads_the_request_it_received(base_doc, field, value, match):
    world = World.from_doc(base_doc)
    world.enroll("bob")

    def rename(env, doc):
        doc[field] = value
        return dataclasses.replace(env, payload=doc_bytes(doc))
    _tamper_enrollment(world, "request", rename)
    _refused_enrollment(world, "alice", match)


def test_user_signs_the_nonce_it_received(base_doc):
    world = World.from_doc(base_doc)

    def renonce(env, doc):
        doc["auth_nonce"] = "00" * roles.NONCE_LEN
        return dataclasses.replace(env, payload=doc_bytes(doc))
    _tamper_enrollment(world, "challenge", renonce)
    _refused_enrollment(world, "alice", "wrong auth_nonce")


def test_refused_enrollment_can_be_run_again(base_doc):
    world = World.from_doc(base_doc)

    def renonce(env, doc):
        doc["auth_nonce"] = "00" * roles.NONCE_LEN
        return dataclasses.replace(env, payload=doc_bytes(doc))
    _tamper_enrollment(world, "challenge", renonce)
    _refused_enrollment(world, "alice", "wrong auth_nonce")
    world.transcript.tamper = None
    keypair = world.users["alice"].identity_keypair
    world.enroll("alice")
    assert world.users["alice"].identity_keypair == keypair
    world.join("alice")
    world.add_outsider("eve")
    for name in ("alice", "eve"):
        with pytest.raises(ProtocolError, match=f"user '{name}' already exists"):
            world.enroll(name)


@pytest.mark.parametrize("field, value", [
    ("identity", "bob@idp-issuer.com"),
    ("group_id", "other"),
    ("auth_nonce", b"\x00" * roles.NONCE_LEN),
], ids=["identity", "group_id", "auth_nonce"])
def test_statement_the_issuer_did_not_ask_for_is_refused(base_doc, field,
                                                         value):
    # A statement alice really signed, replayed over other values: the
    # signature verifies, so only the issuer's comparison can refuse it.
    world = World.from_doc(base_doc)
    world.enroll("bob")

    def replay(env, doc):
        stated = dict(zip(roles._AUTH_STATEMENT,
                          roles.unpack(roles._AUTH_STATEMENT, env.payload)))
        stated[field] = value
        payload = pack(roles._AUTH_STATEMENT, **stated)
        signer = world.users["alice"].identity_keypair
        return dataclasses.replace(env, payload=payload,
                                   signature=schnorr.sign(signer, payload))
    _tamper_enrollment(world, "statement", replay)
    _refused_enrollment(world, "alice", f"wrong {field}")


def test_deeply_nested_join_envelope_is_protocol_error(base_doc):
    world = World.from_doc(base_doc)
    world.enroll("alice")
    world.transcript.tamper = lambda env: (
        dataclasses.replace(env, payload=b"[" * 200_000)
        if env.step == "step-3" else env)
    with pytest.raises(ProtocolError, match="malformed message document"):
        world.join("alice")


# ---------------------------------------------------------------------------
# fuzz: one field of one envelope, anywhere in the member lifecycle

def _locations(doc, prefix=()):
    """Paths to every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += _locations(value, prefix + (key,))
    return out


def _retyped(value):
    if isinstance(value, str):
        return 7
    if isinstance(value, bool) or value is None:
        return "7"
    if isinstance(value, int):
        return str(value)
    return {} if isinstance(value, list) else []


def _mutate(doc, path, action):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if action == "delete":
        del parent[key]
    elif action == "truncate" and isinstance(value, (str, list)):
        parent[key] = value[:len(value) // 2]
    else:
        parent[key] = _retyped(value)


def _lifecycle(world):
    world.enroll("alice")
    world.join("alice")
    world.prove("alice")
    world.register("alice", with_identity=True)
    world.disclose("alice", 0, reveal_identity=True)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_lifecycle_succeeds_or_raises_protocol_error(base_doc, data):
    world = World.from_doc(base_doc)
    target = data.draw(st.integers(0, 15), label="envelope")
    action = data.draw(st.sampled_from(["delete", "retype", "truncate"]),
                       label="action")
    seen = []

    def tamper(env):
        seen.append(env.step)
        if len(seen) - 1 != target:
            return env
        doc = json.loads(env.payload)
        locations = _locations(doc)
        if not locations:
            return env
        path = data.draw(st.sampled_from(locations), label="field")
        _mutate(doc, path, action)
        return dataclasses.replace(env, payload=doc_bytes(doc))

    world.transcript.tamper = tamper
    try:
        _lifecycle(world)
    except ProtocolError:
        pass


# ---------------------------------------------------------------------------
# corrupt world files and bad CLI arguments

def _run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.err


def test_world_file_of_wrong_shape_is_corrupt(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    assert cli.main(["setup", "g", "--seed", "3", "--world", path]) == 0
    doc = json.loads(Path(path).read_text())
    doc["users"] = None
    bad = tmp_path / "null-users.json"
    bad.write_text(json.dumps(doc))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    capsys.readouterr()
    for corrupt in (bad, empty):
        code, err = _run(capsys, "show", "--world", str(corrupt))
        assert code == 1 and "is corrupt" in err
        assert "Traceback" not in err


def test_revoke_rejects_non_hex_argument(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    assert cli.main(["setup", "g", "--seed", "3", "--world", path]) == 0
    capsys.readouterr()
    code, err = _run(capsys, "revoke", "zz", "0x2", "--world", path)
    assert code == 1 and "zz" in err


@pytest.mark.parametrize("absent", [False, True], ids=["null", "absent"])
@pytest.mark.parametrize("path", ["issuer.identity_keypair",
                                  "verifier.identity_keypair",
                                  "verifier.pinned_issuer_key", "verifier.gpk",
                                  "verifier.permissions_db"])
def test_world_file_without_an_actor_key_or_group_key_is_corrupt(
        base_doc, tmp_path, capsys, path, absent):
    # The issuer and verifier decode only whole, as World.create builds them.
    doc = json.loads(json.dumps(base_doc))
    actor, name = path.split(".")
    if absent:
        del doc[actor][name]
    else:
        doc[actor][name] = None
    bad = tmp_path / "partial.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(capsys, "enroll", "x", "--world", str(bad))
    assert code == 1 and "is corrupt" in err and path in err



def test_world_file_listing_a_key_twice_is_corrupt(tmp_path, capsys):
    path = str(tmp_path / "w.json")
    for cmd in (("setup", "g", "--seed", "7"), ("enroll", "a"), ("join", "a"),
                ("prove", "a"), ("register", "a")):
        assert cli.main([*cmd, "--world", path]) == 0
    doc = json.loads(Path(path).read_text())
    rows = doc["verifier"]["permissions_db"]["entries"]
    assert len(rows) == 1
    rows.append([rows[0][0], rows[0][1] + 1])
    with pytest.raises(ProtocolError, match="entries: duplicate key"):
        World.from_doc(doc)
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code, err = _run(capsys, "show", "--world", str(bad))
    assert code == 1 and "is corrupt" in err
    assert "verifier.permissions_db.entries" in err


@pytest.fixture(scope="module")
def pending_tx_doc():
    """A world with one registered key and one transaction in the pool."""
    world = World.create("g", DESK, seed=7)
    world.enroll("a")
    world.join("a")
    world.prove("a")
    world.register("a")
    world.tx("a", 0, b"hello")
    return world.to_doc()


@pytest.mark.parametrize("mutate, command, field", [
    (lambda doc: doc["pool"]["pending"][0].update(timestamp=-3),
     ("mine", "node0"), "pool.pending.timestamp: negative"),
    (lambda doc: doc["users"]["a"]["transaction_keys"][0].update(
        secret="-0x3"), ("tx", "a", "x"), "transaction_keys.secret: negative"),
    (lambda doc: doc.update(clock=-10**30), ("tx", "a", "x"),
     "clock: negative"),
    (lambda doc: doc["rng"].update(counter=-1), ("enroll", "b"),
     "rng.counter: negative"),
    (lambda doc: doc["rng"].update(counter=2**64), ("enroll", "b"),
     "rng.counter: 2**64 or more"),
], ids=["timestamp", "secret", "clock", "counter-1", "counter-2**64"])
def test_world_file_with_a_number_out_of_range_is_corrupt(
        tmp_path, capsys, pending_tx_doc, mutate, command, field):
    doc = json.loads(doc_bytes(pending_tx_doc))
    mutate(doc)
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(capsys, *command, "--world", str(bad))
    assert code == 1 and "is corrupt" in err and field in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def enrolled_doc():
    """A seed-5 world where alice has registered a key and bob enrolled."""
    world = World.create("g", DESK, seed=5)
    for step in (world.enroll, world.join, world.prove, world.register):
        step("alice")
    world.enroll("bob")
    return world.to_doc()


def _set(*path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _set_u(*path, value):
    """Set the group's ``u`` at ``path`` to ``value``, or to its ``p``."""
    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc["u"] = doc["p"] if value == "p" else value
    return mutate


_VERIFIER_GPK = ("verifier", "gpk")
_ENROLLMENT_GPK = ("users", "alice", "enrollments", "g", "gpk")
_TX_KEY_GROUP = ("users", "alice", "transaction_keys", 0, "group")


@pytest.mark.parametrize("mutate, command, field", [
    (_set("verifier", "gpk", "q", value="0x1"), ("enroll", "carol"),
     "verifier.gpk: q length"),
    (_set("verifier", "gpk", "p", value="0x0"), ("enroll", "carol"),
     "verifier.gpk: p length"),
    (_set("issuer", "groups", "g", "gipk", "p_N", value="0x0"),
     ("join", "bob"), "issuer.groups.g.gipk: not the factors of N"),
    (_set("issuer", "groups", "g", "gipk", "q_N_prime", value="0x1"),
     ("join", "bob"), "issuer.groups.g.gipk: not the factors of N"),
    (_set("users", "alice", "transaction_keys", 0, "group", "q", value="0x0"),
     ("tx", "alice", "x"), "transaction_keys.group: need 1 < q < p"),
    (_set("users", "alice", "transaction_keys", 0, "group", "q", value="0x1"),
     ("tx", "alice", "x"), "transaction_keys.group: need 1 < q < p"),
    (_set("users", "alice", "enrollments", "g", "gpk", "N", value="0x0"),
     ("prove", "alice"), "users.alice.enrollments.g.gpk: N length"),
    (_set("users", "alice", "enrollments", "g", "gpk", "q", value="0x0"),
     ("prove", "alice"), "users.alice.enrollments.g.gpk: q length"),
    *((_set_u(*path, value=u), command, f"{field}: need 1 < u < p")
      for path, command, field in (
          (_VERIFIER_GPK, ("show",), "verifier.gpk"),
          (_ENROLLMENT_GPK, ("prove", "alice"),
           "users.alice.enrollments.g.gpk"),
          (_TX_KEY_GROUP, ("tx", "alice", "x"), "transaction_keys.group"))
      for u in ("0x0", "0x1", "p")),
], ids=["verifier-q-1", "verifier-p-0", "issuer-p_N-0", "issuer-q_N'-1",
        "tx-key-q-0",
        "tx-key-q-1", "enrollment-N-0", "enrollment-q-0",
        *(f"{where}-u-{u}" for where in ("verifier", "enrollment", "tx-key")
          for u in ("0", "1", "p"))])
def test_world_file_with_corrupt_group_parameters_is_corrupt(
        tmp_path, capsys, enrolled_doc, mutate, command, field):
    doc = json.loads(doc_bytes(enrolled_doc))
    mutate(doc)
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(capsys, *command, "--world", str(bad))
    assert code == 1 and "is corrupt" in err and field in err
    assert "Traceback" not in err


def test_world_file_whose_issuing_key_does_not_factor_n_is_corrupt(
        tmp_path, capsys, enrolled_doc):
    # Each half of the key is consistent on its own; their product is not N.
    doc = json.loads(doc_bytes(enrolled_doc))
    doc["issuer"]["groups"]["g"]["gipk"] = {
        "p_N": "0x7", "q_N": "0xb", "p_N_prime": "0x3", "q_N_prime": "0x5"}
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(capsys, "join", "bob", "--world", str(bad))
    assert code == 1 and "is corrupt" in err
    assert "malformed field issuer.groups.g: gipk does not factor N" in err


def _rename_user(old, new):
    def mutate(doc):
        doc["users"][new] = doc["users"].pop(old)
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_rename_user("bob", ""), "users has an empty name"),
    (_set("nodes", 0, "node_id", value=""), "nodes: node id '' is empty"),
    (_set("nodes", 1, "node_id", value="node0"),
     "nodes: node id 'node0' appears twice"),
], ids=["empty-user", "empty-node", "repeated-node"])
def test_world_file_with_a_name_that_commands_refuse_is_corrupt(
        tmp_path, capsys, enrolled_doc, mutate, field):
    doc = json.loads(doc_bytes(enrolled_doc))
    mutate(doc)
    with pytest.raises(ProtocolError, match=field):
        World.from_doc(doc)
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps(doc))
    before = bad.read_bytes()
    for command in (("mine", "node0"), ("show",)):
        code, err = _run(capsys, *command, "--world", str(bad))
        assert code == 1 and "is corrupt" in err and field in err, command
        assert "Traceback" not in err
        assert bad.read_bytes() == before, command


def test_delivered_group_key_that_a_world_file_refuses_is_not_kept(base_doc):
    # Whatever enroll keeps, the world file it is saved to loads again.
    world = World.from_doc(base_doc)

    def zero_q(env, doc):
        doc["gpk"]["q"] = "0x0"
        return dataclasses.replace(env, payload=doc_bytes(doc))
    _tamper_enrollment(world, "delivery", zero_q)
    with pytest.raises(ProtocolError, match="^malformed field gpk: q length$"):
        world.enroll("alice")
    assert world.group_id not in world.users["alice"].enrollments
    World.from_doc(json.loads(doc_bytes(world.to_doc())))
    world.transcript.tamper = None
    world.enroll("alice")
    world.join("alice")


def test_deeply_nested_world_file_is_corrupt(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 200_000)
    code, err = _run(capsys, "show", "--world", str(bad))
    assert code == 1 and "is corrupt" in err
    assert "malformed message document" in err


@pytest.mark.parametrize("version", [True, 0, 3, "1"])
def test_world_file_of_unknown_format_is_corrupt(tmp_path, capsys, version):
    path = str(tmp_path / "w.json")
    assert cli.main(["setup", "g", "--seed", "3", "--world", path]) == 0
    doc = json.loads(Path(path).read_text())
    doc["format"] = version
    bad = tmp_path / "bad-format.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code, err = _run(capsys, "show", "--world", str(bad))
    assert code == 1 and "unsupported world file format" in err


def test_format_1_world_file_with_null_verifier_is_corrupt(tmp_path, capsys):
    fixture = Path(__file__).parent / "data" / "world-v1-setup-seed7.json"
    doc = json.loads(fixture.read_text())
    doc["verifier"] = None
    bad = tmp_path / "v1-null-verifier.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(capsys, "show", "--world", str(bad))
    assert code == 1 and "is corrupt" in err and "verifier" in err
    assert "Traceback" not in err


def test_profiles_file_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    profiles = tmp_path / "profiles.json"
    profiles.write_text("[]")
    code, err = _run(capsys, "setup", "g", "--profiles-file", str(profiles),
                     "--world", str(tmp_path / "w.json"))
    assert code == 1 and "cannot load profiles" in err


# ---------------------------------------------------------------------------
# hostile join requests


def _non_residue_join_request(gpk, nonce, rng):
    """A join request whose U = -(R^f S^v') is not a quadratic residue mod N.

    -1 is a non-residue modulo both safe-prime factors, so the proof of
    knowledge only picks up a factor (-1)^c; regrinding the commitments
    until the challenge c is even makes it verify without the factorization.
    """
    prof, N, p = gpk.profile, gpk.N, gpk.p
    B_I = hash_to_subgroup(gpk.issuer_basename, p, gpk.q)
    f = rng.getrandbits(prof.l_f)
    v = rng.getrandbits(prof.l_v)
    U = N - pow(gpk.R, f, N) * pow(gpk.S, v, N) % N
    K_I = pow(B_I, f, p)
    while True:
        r_f = rng.getrandbits(prof.l_f + prof.l_phi + prof.l_H)
        r_v = rng.getrandbits(prof.l_v + prof.l_phi + prof.l_H)
        t1 = pow(gpk.R, r_f, N) * pow(gpk.S, r_v, N) % N
        c = epid._join_challenge(gpk, B_I, U, K_I, t1, pow(B_I, r_f, p),
                                 nonce, prof.l_H)
        if c % 2 == 0:
            break
    proof = epid.JoinProof(c=c, s_f=r_f + c * f, s_v=r_v + c * v)
    return epid.JoinRequest(U=U, K_I=K_I, proof=proof, nonce_echo=nonce)


def test_non_residue_join_request_is_protocol_error(desk_group):
    gpk, gipk = desk_group
    rng = random.Random(3)
    for _ in range(4):
        req = _non_residue_join_request(gpk, b"n", rng)
        # Its proof equation holds without the factorization ...
        N, p, pr = gpk.N, gpk.p, req.proof
        B_I = hash_to_subgroup(gpk.issuer_basename, p, gpk.q)
        t1 = (pow(gpk.R, pr.s_f, N) * pow(gpk.S, pr.s_v, N)
              * pow(req.U, -pr.c, N)) % N
        t2 = pow(B_I, pr.s_f, p) * pow(req.K_I, -pr.c, p) % p
        assert epid._join_challenge(gpk, B_I, req.U, req.K_I, t1, t2, b"n",
                                    gpk.profile.l_H) == pr.c
        # ... but the issuer, which can tell residues apart, refuses it.
        res = epid.verify_join_request(gpk, req, b"n", gipk)
        assert not res and res.reason == "U not a quadratic residue"
        with pytest.raises(ProtocolError, match="quadratic residue"):
            epid.issue_credential(gpk, gipk, req, b"n", rng)


class _CorruptOrder(epid.GroupIssuingPrivateKey):
    """An issuing key whose group order is off: it inverts e wrongly."""

    @property
    def qr_order(self):
        return super().qr_order + 2


def test_issuer_withholds_credential_that_fails_its_self_check(desk_group):
    # Releasing an A with A^e != Z / (U S^v'') could leak a factor of N
    # through gcd(A^e - x, N), so the check must survive python -O.
    gpk, gipk = desk_group
    corrupt = _CorruptOrder(*dataclasses.astuple(gipk))
    _, req = epid.join_request(gpk, b"n", random.Random(5))
    with pytest.raises(ProtocolError, match="self-check"):
        epid.issue_credential(gpk, corrupt, req, b"n", random.Random(6))


def test_no_assert_guards_a_check_in_the_package():
    # python -O strips asserts, so a check written as one would vanish.
    package = Path(epid.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
