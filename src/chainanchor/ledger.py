"""Deterministic in-process permissioned ledger.

Consensus nodes pull from a shared transaction pool and enforce access
control by checking each sender key against the permissions database
(a read handle onto the verifier's ``pv_lookup``).  There is no proof of
work and no networking: nodes propose in whatever order the simulation
invokes them, and every decision is a pure function of the pool snapshot
and database handle so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import schnorr
from .errors import ProtocolError
from .groupmath import canonical_encode, int_to_bytes
from .serial import JsonInt, Record

GENESIS_HASH = "0" * 64

NOT_A_MEMBER = "not-a-member"
REPLAY = "replay"


@dataclass(frozen=True)
class Transaction(Record):
    sender_key: int
    payload: bytes
    timestamp: JsonInt
    signature: tuple[int, int]
    txid: str

    def body_bytes(self) -> bytes:
        return canonical_encode([int_to_bytes(self.sender_key), self.payload,
                                 int_to_bytes(self.timestamp)])


def _txid(body: bytes, signature) -> str:
    signed = canonical_encode([b"transaction", body,
                               int_to_bytes(signature[0]),
                               int_to_bytes(signature[1])])
    return hashlib.sha256(signed).hexdigest()


def create_transaction(keypair: schnorr.SchnorrKeypair, payload: bytes,
                       clock) -> Transaction:
    """Build a self-verifying transaction signed with the transaction key."""
    timestamp = clock.now()
    body = canonical_encode([int_to_bytes(keypair.public), payload,
                             int_to_bytes(timestamp)])
    signature = schnorr.sign(keypair, body)
    return Transaction(sender_key=keypair.public, payload=payload,
                       timestamp=timestamp, signature=signature,
                       txid=_txid(body, signature))


def verify_transaction(group: schnorr.SigningGroup, tx: Transaction) -> bool:
    body = tx.body_bytes()
    if tx.txid != _txid(body, tx.signature):
        return False
    return schnorr.verify(group, tx.sender_key, body, tx.signature)


class TransactionPool:
    """Pending transactions keyed by txid, insertion-ordered."""

    def __init__(self, group: schnorr.SigningGroup):
        self.group = group
        self.pending: dict[str, Transaction] = {}


def submit(pool: TransactionPool, tx: Transaction) -> bool:
    """Admit a self-verifying transaction; duplicates are a no-op.

    Only the signature is checked here; membership is the consensus
    nodes' job.
    """
    if not verify_transaction(pool.group, tx):
        raise ProtocolError("transaction signature invalid")
    if tx.txid in pool.pending:
        return False
    pool.pending[tx.txid] = tx
    return True


@dataclass(frozen=True)
class Block:
    height: JsonInt
    prev_hash: str
    transactions: tuple[Transaction, ...]
    proposer_id: str
    block_hash: str


def block_hash(height: int, prev_hash: str, transactions, proposer_id: str) -> str:
    parts = [b"block", int_to_bytes(height), prev_hash.encode(),
             proposer_id.encode()]
    for tx in transactions:
        parts.append(canonical_encode([tx.body_bytes(),
                                       int_to_bytes(tx.signature[0]),
                                       int_to_bytes(tx.signature[1])]))
    return hashlib.sha256(canonical_encode(parts)).hexdigest()


@dataclass
class ConsensusNode(Record):
    """One miner; ``dishonest`` (test fixture flag) skips the membership
    and replay filters to exercise validator auditing."""

    node_id: str
    chain: list[Block] = field(default_factory=list)
    dishonest: bool = False
    # (txid, reason)
    drop_log: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        # Txids on the chain: derived from it, never stored.
        self.mined = {tx.txid for block in self.chain
                      for tx in block.transactions}

def node_check_membership(db_view, tx: Transaction) -> bool:
    """Membership test for one transaction: a database lookup on the sender
    key, nothing else."""
    return bool(db_view(tx.sender_key))


def node_process(node: ConsensusNode, pool: TransactionPool, db_view, clock,
                 peers=()):
    """Drain the pool into a new block on the node's chain.

    An honest node includes member transactions that are on neither its own
    chain nor the chain of an honest node among ``peers``, and drop-logs the
    rest with a reason; a dishonest node includes everything.  Returns the
    new block, or None when nothing was includable.
    """
    fetched = list(pool.pending.values())
    if not fetched:
        raise ProtocolError("transaction pool is empty")
    pool.pending.clear()
    mined = [n.mined for n in (node, *peers) if not n.dishonest]
    included = []
    for tx in fetched:
        if node.dishonest:
            included.append(tx)
        elif any(tx.txid in txids for txids in mined):
            node.drop_log.append((tx.txid, REPLAY))
        elif node_check_membership(db_view, tx):
            included.append(tx)
        else:
            node.drop_log.append((tx.txid, NOT_A_MEMBER))
    clock.tick()
    if not included:
        return None
    height = len(node.chain)
    prev = node.chain[-1].block_hash if node.chain else GENESIS_HASH
    block = Block(height, prev, tuple(included), node.node_id,
                  block_hash(height, prev, included, node.node_id))
    node.chain.append(block)
    node.mined.update(tx.txid for tx in included)
    return block


@dataclass(frozen=True)
class ValidatorReport:
    """Audit result for one block; empty violations means fully compliant."""

    block_hash: str
    violations: tuple   # (txid, sender_key)


def validator_audit(db_view, block: Block) -> ValidatorReport:
    """Re-check every transaction of a block against the permissions
    database; used by the identity providers acting as validator nodes."""
    violations = tuple((tx.txid, tx.sender_key) for tx in block.transactions
                       if not node_check_membership(db_view, tx))
    return ValidatorReport(block_hash=block.block_hash, violations=violations)


def chain_scan_membership(chain, db_view) -> bool:
    """True iff every transaction in every block has a registered sender."""
    return all(node_check_membership(db_view, tx)
               for block in chain for tx in block.transactions)


def chain_export_text(chain) -> str:
    lines = []
    for block in chain:
        lines.append(f"block {block.height} hash={block.block_hash} "
                     f"prev={block.prev_hash} proposer={block.proposer_id}")
        for tx in block.transactions:
            lines.append(f"  tx {tx.txid} sender={tx.sender_key:#x} "
                         f"time={tx.timestamp}")
    return "\n".join(lines)


def drop_log_export_text(node: ConsensusNode) -> str:
    return "\n".join(f"{txid} {reason}" for txid, reason in node.drop_log)
