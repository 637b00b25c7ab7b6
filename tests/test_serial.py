"""The document codec: encoding rules, secret fields and decode errors."""

import ast
import pathlib

import pytest

from chainanchor import roles, serial
from chainanchor.channels import Envelope
from chainanchor.epid import MembershipSignature
from chainanchor.errors import ProtocolError
from chainanchor.groupmath import ParameterProfile
from chainanchor.schnorr import SchnorrKeypair, SigningGroup
from chainanchor.serial import JsonInt, decode, encode
from chainanchor.world import World
from conftest import TINY


def test_signed_hex_and_json_ints():
    sig = MembershipSignature(B=2, K=3, T=4, c=5, s_e=6, s_f=7, s_v=-255,
                              sig_rl_epoch=1, issuer_rl_epoch=0,
                              nonrevocation_sig=(), nonrevocation_iss=())
    doc = sig.to_doc()
    assert doc["s_v"] == "-0xff" and doc["B"] == "0x2"
    assert doc["sig_rl_epoch"] == 1
    assert MembershipSignature.from_doc(doc) == sig


def test_leaf_types_are_strict():
    for bad in (True, "0x1", 1.0, None):
        with pytest.raises(ProtocolError):
            decode(JsonInt, bad)
    for bad in (5, "zz", "0x", None):
        with pytest.raises(ProtocolError):
            decode(int, bad)
    with pytest.raises(ProtocolError):
        decode(bool, 1)
    with pytest.raises(ProtocolError):
        decode(bytes, "abc")


def test_containers():
    assert encode({"b", "a"}, set[str]) == ["a", "b"]
    assert decode(tuple[int, str], ["0x10", "x"]) == (16, "x")
    with pytest.raises(ProtocolError):
        decode(tuple[int, str], ["0x10"])
    assert decode(dict[str, list[JsonInt]], {"k": [1, 2]}) == {"k": [1, 2]}


def test_unset_optional_fields():
    # an envelope without a signature has no signature key at all, while a
    # disclosure without an identity writes null
    env = Envelope("a", "b", "step", b"\x01")
    assert env.to_doc() == {"sender": "a", "recipient": "b", "step": "step",
                            "payload": "01"}
    assert Envelope.from_doc(env.to_doc()) == env
    record = roles.DisclosureRecord(1, b"", (2, 3))
    assert record.to_doc()["identity"] is None
    assert roles.DisclosureRecord.from_doc(record.to_doc()) == record


def test_public_export_leaves_secret_fields_out():
    keypair = SchnorrKeypair(SigningGroup(23, 11, 2), 4, 3)
    verifier = roles.VerifierActor(
        identity_keypair=keypair,
        pending_challenges={"s1": roles.Challenge(b"m", b"n", 5)},
        sessions={"s0": roles.PskSession("s0", b"k", b"h")})
    public = verifier.to_doc()
    assert not {"identity_keypair", "pending_challenges",
                "sessions", "identity_public_key"} & public.keys()
    full = verifier.to_doc(secrets=True)
    assert full["pending_challenges"]["s1"]["expires_at"] == 5
    assert roles.VerifierActor.from_doc(full) == verifier
    with pytest.raises(ProtocolError, match="identity_keypair: missing"):
        roles.VerifierActor.from_doc(public)


def test_decode_errors_name_the_field():
    db = roles.PermissionsDatabase
    with pytest.raises(ProtocolError, match="entries: expected a hex"):
        decode(db, {"group_id": "g", "entries": [[5, 1]]})
    with pytest.raises(ProtocolError, match="group_id: missing"):
        decode(db, {"entries": []})
    with pytest.raises(ProtocolError, match="extra: unexpected field"):
        decode(db, {"group_id": "g", "entries": [], "extra": 1})
    with pytest.raises(ProtocolError, match="expected an object"):
        decode(db, [])
    fields = encode(ParameterProfile("p", 64, 10, 16, 8, 90, 16, 128, 32, 16))
    with pytest.raises(ProtocolError, match="l_v must equal"):
        decode(ParameterProfile, dict(fields, l_v=91))
    # A named map adds the name to the path.
    group = {"p": "0x17", "q": "0xb", "u": "0x2"}
    with pytest.raises(ProtocolError,
                       match=r"^malformed field b\.g: need 1 < u < p$"):
        decode({"b": dict[str, SigningGroup]},
               {"b": {"a": group, "g": dict(group, u="0x1")}})


def test_every_refusal_in_a_post_init_is_a_value_error():
    # The decoder turns only a constructor's ValueError into a
    # ProtocolError that names the field; any other raise would escape
    # the CLI's exit codes as a traceback.
    checked, others = set(), []
    for path in sorted(pathlib.Path(serial.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef)
                        and fn.name == "__post_init__"):
                    continue
                checked.add(cls.name)
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and not (
                            isinstance(node.exc, ast.Call)
                            and isinstance(node.exc.func, ast.Name)
                            and node.exc.func.id == "ValueError"):
                        others.append((path.name, cls.name, node.lineno))
    assert checked >= {"ParameterProfile", "SigningGroup", "GroupPublicKey",
                       "GroupIssuingPrivateKey", "IssuerGroup"}
    assert others == []


def test_integers_are_non_negative_outside_the_signed_fields():
    for tp, bad in ((JsonInt, -1), (int, "-0x1"), (int, " -1"),
                    (dict[int, JsonInt], [["0x1", -2]]),
                    (roles.Challenge, {"m": "", "n_pv": "",
                                       "expires_at": -5, "used": False})):
        with pytest.raises(ProtocolError, match="negative"):
            decode(tp, bad)
    assert decode(JsonInt, 0) == 0 and decode(int, "0x0") == 0
    # the seed and s_v may be negative (the s_v round trip is above)
    world = World.create("g", TINY, seed=-3)
    assert World.from_doc(world.to_doc()).state_hash() == world.state_hash()
