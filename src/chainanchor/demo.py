"""Scripted end-to-end run exercising the full protocol surface.

Three users enroll, join and register keys (one registers two), member and
non-member transactions hit honest and dishonest miners, a validator audits
the dishonest block, one pseudonym is revoked and one key ownership is
disclosed.  The run finishes with system-invariant checks; any failure is
reported in the transcript and by a nonzero status from the CLI.
"""

from __future__ import annotations

from . import ledger, roles
from .errors import RevokedKeyError
from .groupmath import DESK, ParameterProfile, int_to_bytes
from .world import World


def run_demo(seed: int, profile: ParameterProfile = DESK):
    """Execute the scripted run; returns (world, failures)."""
    world = World.create("demo-group", profile, seed)
    failures: list[str] = []

    for name in ("alice", "bob", "carol"):
        world.enroll(name)
        world.join(name)

    alice_s1 = world.prove("alice")
    world.register("alice", with_identity=True)
    world.prove("alice")
    world.register("alice")               # second, unlinkable key
    world.prove("bob")
    world.register("bob", with_identity=True)
    world.prove("carol")
    world.register("carol")

    world.add_outsider("mallory")

    member_txids = [world.tx("alice", 0, b"pay 1"),
                    world.tx("alice", 1, b"pay 2"),
                    world.tx("bob", 0, b"pay 3")]
    intruder_1 = world.tx("mallory", 0, b"intrude 1")
    block_honest = world.mine("node0")

    member_txids.append(world.tx("carol", 0, b"pay 4"))
    intruder_2 = world.tx("mallory", 0, b"intrude 2")
    world.add_node("node2", dishonest=True)
    block_dishonest = world.mine("node2")
    report = world.audit(block_dishonest.block_hash)

    pseudonym = next((b, k) for b, k, sid in world.verifier.verified_pseudonyms
                     if sid == alice_s1)
    world.revoke(*pseudonym, which="sig")
    world.revoke(*pseudonym, which="sig")      # duplicate: must be a no-op
    try:
        world.prove("alice")
        failures.append("revoked member completed a membership proof")
    except RevokedKeyError:
        pass
    world.prove("bob")                         # other members unaffected
    world.register("bob")
    world.disclose("bob", 0, reveal_identity=False)

    failures += _check_invariants(world, block_honest, report,
                                  intruder_1, intruder_2)
    if failures:
        for failure in failures:
            world.log("invariant", f"FAIL {failure}")
    else:
        world.log("invariant", "all demo invariants hold")
    world.log("done", f"final state hash {world.state_hash()}")
    return world, failures


def _check_invariants(world: World, block_honest, report,
                      intruder_1, intruder_2):
    failures = []
    db_view = world.db_view()

    if block_honest is None or len(block_honest.transactions) != 3:
        failures.append("honest block does not contain exactly the 3 member "
                        "transactions")
    for node in world.nodes:
        if node.dishonest:
            continue
        if not ledger.chain_scan_membership(node.chain, db_view):
            failures.append(f"honest chain on {node.node_id} contains a "
                            f"non-member transaction")
    node0 = world.nodes[0]
    if (intruder_1, ledger.NOT_A_MEMBER) not in node0.drop_log:
        failures.append("non-member transaction missing from the drop log")

    dishonest = [n for n in world.nodes if n.dishonest]
    if not dishonest or ledger.chain_scan_membership(dishonest[0].chain, db_view):
        failures.append("dishonest chain unexpectedly passed the membership "
                        "scan")
    if {txid for txid, _ in report.violations} != {intruder_2}:
        failures.append("validator report does not list exactly the "
                        "violating transaction")

    registered = world.verifier.permissions_db.entries.keys()
    if len(registered) != 5:
        failures.append("permissions database should hold 5 registered keys")

    verifier_bytes = world.transcript.received_by(roles.VERIFIER_ID)
    issuer_bytes = world.transcript.received_by(roles.ISSUER_ID)
    for name, user in world.users.items():
        if name == "mallory":
            continue
        if user.internet_identity.encode() in verifier_bytes:
            failures.append(f"verifier transcript leaks identity of {name}")
    for pk in registered:
        if int_to_bytes(pk) in issuer_bytes or hex(pk).encode() in issuer_bytes:
            failures.append("issuer transcript leaks a registered "
                            "transaction key")
    return failures
