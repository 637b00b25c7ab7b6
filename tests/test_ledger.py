import random

import pytest

from chainanchor import groupmath, ledger, schnorr
from chainanchor.channels import LogicalClock
from chainanchor.errors import ProtocolError
from chainanchor.groupmath import DESK
from chainanchor.world import World


@pytest.fixture(scope="module")
def group(desk_gpk):
    return schnorr.SigningGroup(desk_gpk.p, desk_gpk.q, desk_gpk.u)


@pytest.fixture
def env(group):
    """(group, clock, member keypairs, outsider keypairs, db_view)."""
    rng = random.Random(55)
    members = [schnorr.generate_keypair(group, rng) for _ in range(3)]
    outsiders = [schnorr.generate_keypair(group, rng) for _ in range(2)]
    registered = {kp.public for kp in members}
    return group, LogicalClock(), members, outsiders, registered.__contains__


def test_transaction_self_verifies(group, env):
    _, clock, members, _, _ = env
    tx = ledger.create_transaction(members[0], b"payload", clock)
    assert ledger.verify_transaction(group, tx)
    forged = ledger.Transaction(tx.sender_key, b"other", tx.timestamp,
                                tx.signature, tx.txid)
    assert not ledger.verify_transaction(group, forged)


def test_txid_depends_on_timestamp(group, env):
    _, clock, members, _, _ = env
    a = ledger.create_transaction(members[0], b"same", clock)
    clock.tick()
    b = ledger.create_transaction(members[0], b"same", clock)
    assert a.txid != b.txid


def test_transaction_doc_round_trip(group, env):
    _, clock, members, _, _ = env
    tx = ledger.create_transaction(members[0], b"payload", clock)
    assert ledger.Transaction.from_doc(tx.to_doc()) == tx


def test_pool_admission(group, env):
    _, clock, members, _, _ = env
    pool = ledger.TransactionPool(group)
    tx = ledger.create_transaction(members[0], b"x", clock)
    assert ledger.submit(pool, tx)
    assert not ledger.submit(pool, tx)          # duplicate is a no-op
    assert list(pool.pending) == [tx.txid]
    bad = ledger.Transaction(tx.sender_key, b"x", tx.timestamp,
                             (tx.signature[0] + 1, tx.signature[1]), tx.txid)
    with pytest.raises(ProtocolError, match="signature"):
        ledger.submit(pool, bad)


def test_membership_check_is_key_only(group, env):
    _, clock, members, outsiders, db_view = env
    member_tx = ledger.create_transaction(members[0], b"a" * 100, clock)
    outsider_tx = ledger.create_transaction(outsiders[0], b"a" * 100, clock)
    assert ledger.node_check_membership(db_view, member_tx)
    assert not ledger.node_check_membership(db_view, outsider_tx)
    # payload variations do not change the answer
    for payload in (b"", b"zzz", bytes(1000)):
        tx = ledger.create_transaction(outsiders[0], payload, clock)
        assert not ledger.node_check_membership(db_view, tx)


def _fill_pool(group, clock, senders, payload_tag):
    pool = ledger.TransactionPool(group)
    txs = []
    for i, kp in enumerate(senders):
        clock.tick()
        tx = ledger.create_transaction(kp, f"{payload_tag}-{i}".encode(), clock)
        ledger.submit(pool, tx)
        txs.append(tx)
    return pool, txs


def test_honest_node_filters_exactly(group, env):
    _, clock, members, outsiders, db_view = env
    pool, txs = _fill_pool(group, clock, members + outsiders, "mix")
    node = ledger.ConsensusNode("n0")
    block = ledger.node_process(node, pool, db_view, clock)

    # oracle: brute-force recheck of every fetched sender key
    expected = {tx.txid for tx in txs if db_view(tx.sender_key)}
    assert {tx.txid for tx in block.transactions} == expected
    assert len(block.transactions) == 3
    dropped = {txid for txid, reason in node.drop_log}
    assert dropped == {tx.txid for tx in txs} - expected
    assert all(reason == ledger.NOT_A_MEMBER for _, reason in node.drop_log)
    assert pool.pending == {}


def test_all_non_member_pool_drops_everything(group, env):
    _, clock, _, outsiders, db_view = env
    pool, txs = _fill_pool(group, clock, outsiders, "bad")
    node = ledger.ConsensusNode("n0")
    block = ledger.node_process(node, pool, db_view, clock)
    assert block is None
    assert node.chain == []
    assert len(node.drop_log) == len(txs)


def test_dishonest_node_includes_everything(group, env):
    _, clock, members, outsiders, db_view = env
    pool, txs = _fill_pool(group, clock, members + outsiders, "mix")
    node = ledger.ConsensusNode("cheater", dishonest=True)
    block = ledger.node_process(node, pool, db_view, clock)
    assert len(block.transactions) == 5
    assert node.drop_log == []


def test_empty_pool_rejected(group, env):
    _, clock, _, _, db_view = env
    node = ledger.ConsensusNode("n0")
    with pytest.raises(ProtocolError, match="empty"):
        ledger.node_process(node, ledger.TransactionPool(group), db_view, clock)


def test_validator_audit(group, env):
    _, clock, members, outsiders, db_view = env
    pool, _ = _fill_pool(group, clock, members, "good")
    honest = ledger.ConsensusNode("n0")
    good_block = ledger.node_process(honest, pool, db_view, clock)
    report = ledger.validator_audit(db_view, good_block)
    assert report.violations == ()
    assert report.block_hash == good_block.block_hash

    pool, txs = _fill_pool(group, clock, members[:1] + outsiders, "mixed")
    cheater = ledger.ConsensusNode("c0", dishonest=True)
    bad_block = ledger.node_process(cheater, pool, db_view, clock)
    report = ledger.validator_audit(db_view, bad_block)
    expected = {tx.txid for tx in txs if not db_view(tx.sender_key)}
    assert {txid for txid, _ in report.violations} == expected
    assert len(report.violations) == 2
    # deterministic re-audit
    assert ledger.validator_audit(db_view, bad_block) == report


def test_chain_scan(group, env):
    _, clock, members, outsiders, db_view = env
    assert ledger.chain_scan_membership([], db_view)  # vacuous

    honest = ledger.ConsensusNode("n0")
    for round_tag in ("r1", "r2"):
        pool, _ = _fill_pool(group, clock, members, round_tag)
        ledger.node_process(honest, pool, db_view, clock)
    assert ledger.chain_scan_membership(honest.chain, db_view)

    cheater = ledger.ConsensusNode("c0", dishonest=True)
    pool, _ = _fill_pool(group, clock, outsiders, "r3")
    ledger.node_process(cheater, pool, db_view, clock)
    assert not ledger.chain_scan_membership(cheater.chain, db_view)


def test_block_chain_invariants(group, env):
    _, clock, members, _, db_view = env
    node = ledger.ConsensusNode("n0")
    for tag in ("a", "b", "c"):
        pool, _ = _fill_pool(group, clock, members, tag)
        ledger.node_process(node, pool, db_view, clock)
    assert [b.height for b in node.chain] == [0, 1, 2]
    assert node.chain[0].prev_hash == ledger.GENESIS_HASH
    for parent, child in zip(node.chain, node.chain[1:]):
        assert child.prev_hash == parent.block_hash
    for block in node.chain:
        assert block.block_hash == ledger.block_hash(
            block.height, block.prev_hash, block.transactions,
            block.proposer_id)


def test_simulation_determinism(group):
    def run():
        rng = random.Random(99)
        clock = LogicalClock()
        members = [schnorr.generate_keypair(group, rng) for _ in range(4)]
        registered = {kp.public for kp in members[:2]}
        node = ledger.ConsensusNode("n0")
        for _ in range(3):
            pool = ledger.TransactionPool(group)
            for kp in members:
                clock.tick()
                ledger.submit(pool, ledger.create_transaction(
                    kp, bytes([rng.getrandbits(8)]), clock))
            ledger.node_process(node, pool, registered.__contains__, clock)
        return [b.block_hash for b in node.chain]

    assert run() == run()


def test_exports(group, env):
    _, clock, members, outsiders, db_view = env
    pool, _ = _fill_pool(group, clock, members + outsiders, "e")
    node = ledger.ConsensusNode("n0")
    block = ledger.node_process(node, pool, db_view, clock)
    text = ledger.chain_export_text(node.chain)
    assert f"block 0 hash={block.block_hash}" in text
    assert text.count("  tx ") == 3
    drops = ledger.drop_log_export_text(node)
    assert ledger.NOT_A_MEMBER in drops
    assert len(drops.splitlines()) == 2


def test_node_doc_round_trip(group, env):
    _, clock, members, outsiders, db_view = env
    pool, _ = _fill_pool(group, clock, members + outsiders, "rt")
    node = ledger.ConsensusNode("n0")
    ledger.node_process(node, pool, db_view, clock)
    again = ledger.ConsensusNode.from_doc(node.to_doc())
    assert again.to_doc() == node.to_doc()
    assert again.chain == node.chain


def test_honest_node_drops_replay(group, env):
    _, clock, members, _, db_view = env
    pool, txs = _fill_pool(group, clock, members, "once")
    honest = ledger.ConsensusNode("n0")
    cheater = ledger.ConsensusNode("c0", dishonest=True)
    assert ledger.node_process(honest, pool, db_view, clock) is not None
    for tx in txs:
        assert ledger.submit(pool, tx)      # the pool does not know chains
    assert ledger.node_process(honest, pool, db_view, clock) is None
    assert len(honest.chain) == 1
    assert honest.drop_log == [(tx.txid, ledger.REPLAY) for tx in txs]

    # the index is derived from the chain: a reloaded node keeps it, and
    # the node's document holds nothing beyond its fields
    doc = honest.to_doc()
    assert doc.keys() == {"node_id", "chain", "dishonest", "drop_log"}
    again = ledger.ConsensusNode.from_doc(doc)
    ledger.submit(pool, txs[0])
    assert ledger.node_process(again, pool, db_view, clock) is None
    assert again.drop_log[-1] == (txs[0].txid, ledger.REPLAY)

    # the dishonest fixture node mines whatever the pool holds
    for _ in range(2):
        ledger.submit(pool, txs[0])
        assert ledger.node_process(cheater, pool, db_view, clock)
    assert len(cheater.chain) == 2 and cheater.drop_log == []


def test_world_replay_is_not_mined_twice():
    world = World.create("replay", DESK, 7)
    for step in (world.enroll, world.join, world.prove, world.register):
        step("a")
    txid = world.tx("a", 0, b"pay once")
    tx = world.pool.pending[txid]
    assert world.mine("node0") is not None
    assert ledger.submit(world.pool, tx)
    assert world.mine("node0") is None
    assert [len(b.transactions) for b in world.nodes[0].chain] == [1]
    assert world.nodes[0].drop_log == [(txid, ledger.REPLAY)]
    assert f"dropped {txid[:12]}: replay" in world.transcript_text()
    reloaded = World.from_doc(world.to_doc())
    assert reloaded.state_hash() == world.state_hash()
    ledger.submit(reloaded.pool, tx)
    assert reloaded.mine("node0") is None


def test_world_replay_is_not_mined_by_another_honest_node():
    # A tx on node0's chain, resubmitted, must not land on node1's chain;
    # a tx on the dishonest node's chain only is not a replay.
    world = World.create("replay", DESK, 7)
    for step in (world.enroll, world.join, world.prove, world.register):
        step("a")
    txid = world.tx("a", 0, b"pay once")
    tx = world.pool.pending[txid]
    assert world.mine("node0") is not None
    assert ledger.submit(world.pool, tx)
    assert world.mine("node1") is None
    assert world.nodes[1].chain == []
    assert world.nodes[1].drop_log == [(txid, ledger.REPLAY)]
    assert f"node1 dropped {txid[:12]}: replay" in world.transcript_text()

    world.add_node("node2", dishonest=True)
    other = world.pool.pending[world.tx("a", 0, b"pay twice")]
    assert world.mine("node2") is not None
    ledger.submit(world.pool, other)
    assert [t.txid for t in world.mine("node1").transactions] == [other.txid]

    reloaded = World.from_doc(world.to_doc())
    assert reloaded.state_hash() == world.state_hash()
    ledger.submit(reloaded.pool, tx)
    assert reloaded.mine("node1") is None
    assert reloaded.nodes[1].drop_log[-1] == (txid, ledger.REPLAY)


def test_forged_transaction_under_a_registered_identity_key_is_refused():
    # The identity 1 sits in the permissions database.  Registration refuses
    # it, so it is put there directly.  Signing under 1 needs no secret, so
    # an outsider's forgery must not reach the pool.
    world = World.create("forge", DESK, 42)
    group = world.pool.group
    world.verifier.permissions_db.add(1, world.clock.now())
    assert world.db_view()(1)
    body = ledger.Transaction(1, b"forged", world.clock.now(), (0, 0),
                              "").body_bytes()
    s = 12345
    c = schnorr._challenge(group, 1, pow(group.u, s, group.p), body)
    forged = ledger.Transaction(1, b"forged", world.clock.now(), (c, s),
                                ledger._txid(body, (c, s)))
    with pytest.raises(ProtocolError, match="transaction signature invalid"):
        ledger.submit(world.pool, forged)
    assert not world.pool.pending


def test_a_sender_keys_subgroup_check_is_paid_once(group, monkeypatch):
    # Every transaction checks its sender key's order, a power of the key
    # by q.  A process that has checked a key answers the next check from
    # memory, also when 99 other keys were checked in between: a second
    # transaction from each of 100 keys raises none of them to q.
    rng = random.Random(36)
    clock = LogicalClock()
    keys = [schnorr.generate_keypair(group, rng) for _ in range(100)]
    pool = ledger.TransactionPool(group)
    checks = []

    def counting_pow(*args):
        if args[1:] == (group.q, group.p):
            checks.append(args[0])
        return pow(*args)

    monkeypatch.setattr(groupmath, "pow", counting_pow, raising=False)
    rounds = []
    for payload in (b"first", b"second"):
        del checks[:]
        for kp in keys:
            assert ledger.submit(pool, ledger.create_transaction(kp, payload,
                                                                 clock))
        rounds.append(len(checks))
    assert rounds == [len(keys), 0]
