"""Whole-simulation state: actors, ledger, clock, randomness, transcripts.

A world is created once (group establishment + key delivery), then driven by
commands that mirror the protocol steps.  Every piece of state, including
the randomness stream position, serializes to one canonical JSON document,
so a run can be split across processes: save after each command, reload,
and the replay produces identical state hashes.
"""

from __future__ import annotations

import hashlib
import os

from . import epid, ledger, roles, schnorr
from .channels import Envelope, LogicalClock, Transcript
from .errors import InvariantViolation, ProtocolError
from .groupmath import ParameterProfile
from .rng import COUNTER_LIMIT, DeterministicRng
from .serial import (
    JsonInt,
    SignedJsonInt,
    decode,
    doc_bytes,
    doc_from_bytes,
    encode,
)

ISSUER_DOMAIN = "idp-issuer.com"
OUTSIDER_DOMAIN = "external.example"

FORMAT_VERSION = 2


class World:
    # Set by create (steps 0-1) or from_doc.
    issuer: roles.IssuerActor
    verifier: roles.VerifierActor
    pool: ledger.TransactionPool

    def __init__(self, group_id: str, seed: int):
        self.group_id = group_id
        self.seed = seed
        self.rng = DeterministicRng(seed)
        self.clock = LogicalClock()
        self.transcript = Transcript()
        self.lines: list[str] = []
        self.users: dict[str, roles.UserActor] = {}
        self.nodes: list[ledger.ConsensusNode] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, group_id: str, profile: ParameterProfile, seed: int) -> "World":
        """Steps 0-1: establish the group, provision the actor keys out of
        band (the verifier pins the issuer's), deliver the gpk, and stand up
        the default consensus nodes."""
        world = cls(group_id, seed)
        issuer_group = roles.pi_establish_group(group_id, profile, world.rng)
        world.log("step 0", f"group {group_id} established "
                            f"(profile {profile.name}, N {profile.l_N} bits)")
        group = roles.signing_group_of(issuer_group.gpk)
        world.issuer = roles.IssuerActor(
            identity_keypair=schnorr.generate_keypair(group, world.rng),
            groups={group_id: issuer_group})
        world.verifier = roles.pi_share_gpk(
            world.issuer, group_id, schnorr.generate_keypair(group, world.rng),
            world.issuer.identity_keypair.public, world.transcript)
        world.log("step 1", "membership verification public key delivered to "
                            "verifier and validated")
        world.pool = ledger.TransactionPool(group)
        world.add_node("node0")
        world.add_node("node1")
        return world

    # -- bookkeeping --------------------------------------------------------

    @property
    def profile(self) -> ParameterProfile:
        return self.verifier.gpk.profile

    def log(self, step: str, text: str):
        self.lines.append(f"[{step}] {text}")

    def transcript_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def _user(self, name: str) -> roles.UserActor:
        user = self.users.get(name)
        if user is None:
            raise ProtocolError(f"unknown user {name!r}")
        return user

    def _member(self, name: str, joined: bool = True) -> roles.UserActor:
        """User ``name``, who has enrolled and, if ``joined``, joined."""
        user = self.users.get(name)
        if user is None or self.group_id not in user.enrollments:
            raise ProtocolError(
                f"step 2 (enroll) not completed for {name!r}")
        if joined and not user.member_keys:
            raise ProtocolError(
                f"steps 3-5 (join) not completed for {name!r}")
        return user

    def db_view(self):
        return lambda pk: roles.pv_lookup(self.verifier, pk)

    # -- protocol commands --------------------------------------------------

    def enroll(self, name: str):
        """Step 2: provision the account and run the authenticated
        membership request; an account holder whose request was refused
        runs it again."""
        if not name:
            raise ProtocolError("user name is empty")
        user = self.users.get(name)
        if user is not None and (
                self.group_id in user.enrollments
                or user.internet_identity not in self.issuer.accounts):
            raise ProtocolError(f"user {name!r} already exists")
        self.clock.tick()
        if user is None:
            group = roles.signing_group_of(self.verifier.gpk)
            user = roles.make_user(f"{name}@{ISSUER_DOMAIN}", group, self.rng)
            self.issuer.accounts[user.internet_identity] = (
                user.identity_keypair.public)
            self.users[name] = user
        roles.user_request_membership(user, self.issuer, self.group_id,
                                      self.transcript, self.rng)
        self.log("step 2", f"{name} authenticated to issuer and was approved; "
                           f"group key and join nonce delivered")

    def join(self, name: str):
        """Steps 3-5: blinded join; mints the member key and first
        transaction keypair."""
        user = self._member(name, joined=False)
        self.clock.tick()
        index = roles.user_join_group(user, self.issuer, self.group_id,
                                      self.transcript, self.rng)
        self.log("step 3", f"{name} sent blinded commitment parameters")
        self.log("step 4", f"issuer returned member keying parameters")
        self.log("step 5", f"{name} holds member key #{index} and a fresh "
                           f"transaction keypair")

    def prove(self, name: str, member_index: int = 0) -> str:
        """Step 6: anonymous membership proof plus PSK agreement.  Returns
        the session id; the session stays open until a key is registered
        in it."""
        user = self._member(name)
        # Refused before the clock ticks, so a refusal changes nothing.
        if not 0 <= member_index < len(user.member_keys):
            raise ProtocolError("no such member key")
        self.clock.tick()
        session_id, _, _ = roles.pv_challenge(self.verifier, self.rng, self.clock)
        self.log("step 6.2", f"verifier issued challenge session {session_id}")
        try:
            session = roles.user_prove_membership(
                user, self.verifier, session_id, member_index,
                self.transcript, self.rng, self.clock)
        except epid.RevokedKeyError:
            self.log("step 6.3", f"{name}: revoked")
            raise
        psk_match = (session.psk ==
                     self.verifier.sessions[session_id].psk)
        if not psk_match:
            raise InvariantViolation("PSK mismatch between user and verifier")
        self.log("step 6.6", f"anonymous membership proof accepted for "
                             f"session {session_id}; pairwise key "
                             f"established")
        return session_id

    def register(self, name: str, key_index=None, with_identity: bool = False):
        """Step 6.7 (+ optional step 7): register a transaction key under the
        PSK channel from the oldest open proof session."""
        user = self._member(name)
        # Proof order is the verifier's: a saved world sorts sessions by id.
        session_id = next((sid for _, _, sid in self.verifier.verified_pseudonyms
                           if sid in user.psk_sessions
                           and not user.psk_sessions[sid].registered_keys), None)
        if session_id is None:
            raise ProtocolError(
                f"step 6 (prove) not completed for {name!r}: no open session")
        if key_index is not None and not 0 <= key_index < len(
                user.transaction_keys):
            raise ProtocolError("no such transaction key")
        self.clock.tick()
        if key_index is None:
            registered = {key for session in user.psk_sessions.values()
                          for key in session.registered_keys}
            key_index = next((i for i, key in enumerate(user.transaction_keys)
                              if key.public not in registered), None)
            if key_index is None:
                user.transaction_keys.append(schnorr.generate_keypair(
                    roles.signing_group_of(self.verifier.gpk), self.rng))
                key_index = len(user.transaction_keys) - 1
        public_key, timestamp = roles.register_transaction_key(
            user, self.verifier, session_id, key_index,
            self.transcript, self.rng, self.clock)
        self.log("step 6.7", f"transaction key #{key_index} registered in "
                             f"permissions database at t={timestamp} "
                             f"(session {session_id})")
        if with_identity:
            cert = roles.user_request_anonymous_identity(
                user, self.verifier, session_id, public_key,
                self.transcript, self.rng, self.clock)
            self.log("step 7", f"anonymous identity {cert.anon_id} issued and "
                               f"bound to the registered key")
        return key_index

    def add_outsider(self, name: str):
        """A keypair-holder who never joined; used to exercise access control."""
        if not name:
            raise ProtocolError("user name is empty")
        if name in self.users:
            raise ProtocolError(f"user {name!r} already exists")
        self.clock.tick()
        group = roles.signing_group_of(self.verifier.gpk)
        user = roles.make_user(f"{name}@{OUTSIDER_DOMAIN}", group, self.rng)
        user.transaction_keys.append(schnorr.generate_keypair(group, self.rng))
        self.users[name] = user
        self.log("outsider", f"{name} self-generated a transaction keypair "
                             f"without joining the group")

    def tx(self, name: str, key_index: int, payload: bytes) -> str:
        """Steps 8-9: sign a transaction and submit it to the pool."""
        user = self._user(name)
        if not 0 <= key_index < len(user.transaction_keys):
            raise ProtocolError(f"user {name!r} has no transaction key "
                                f"#{key_index}")
        self.clock.tick()
        tx = ledger.create_transaction(user.transaction_keys[key_index],
                                       payload, self.clock)
        ledger.submit(self.pool, tx)
        self.log("step 8", f"transaction {tx.txid[:12]} signed with key "
                           f"#{key_index} and submitted to the pool")
        return tx.txid

    def add_node(self, node_id: str, dishonest: bool = False):
        if not node_id:
            raise ProtocolError("node id is empty")
        if any(n.node_id == node_id for n in self.nodes):
            raise ProtocolError(f"node {node_id!r} already exists")
        self.nodes.append(ledger.ConsensusNode(node_id=node_id,
                                               dishonest=dishonest))

    def mine(self, node_id: str):
        """Steps 9-12: the node drains the pool, drops transactions already
        on an honest chain and those failing the membership lookup, and
        appends a block to its chain."""
        node = next((n for n in self.nodes if n.node_id == node_id), None)
        if node is None:
            raise ProtocolError(f"unknown node {node_id!r}")
        drops_before = len(node.drop_log)
        block = ledger.node_process(node, self.pool, self.db_view(), self.clock,
                                    self.nodes)
        for txid, reason in node.drop_log[drops_before:]:
            self.log("step 10", f"{node_id} dropped {txid[:12]}: {reason}")
        if block is None:
            self.log("step 11", f"{node_id} found no member transactions; "
                                f"no block produced")
        else:
            mode = "dishonest" if node.dishonest else "honest"
            self.log("step 11", f"{mode} {node_id} proposed block "
                                f"{block.height} ({len(block.transactions)} "
                                f"txs, hash {block.block_hash[:12]})")
        return block

    def audit(self, block_hash: str) -> ledger.ValidatorReport:
        """Validator-side re-check of one block against the database.

        ``block_hash`` may be a prefix, but it must name exactly one block.
        """
        if not block_hash:
            raise ProtocolError("empty block hash")
        found = {}
        for node in self.nodes:
            for block in node.chain:
                if block.block_hash.startswith(block_hash):
                    found.setdefault(block.block_hash, (node, block))
        if not found:
            raise ProtocolError(f"unknown block {block_hash!r}")
        if len(found) > 1:
            raise ProtocolError(f"block hash prefix {block_hash!r} is ambiguous: "
                                f"{len(found)} blocks match")
        (node, block), = found.values()
        report = ledger.validator_audit(self.db_view(), block)
        ids = ",".join(txid[:12] for txid, _ in report.violations)
        self.log("audit", f"block {block.block_hash[:12]} on {node.node_id}: "
                          f"{len(report.violations)} violations"
                          + (f" ({ids})" if ids else ""))
        return report

    def revoke(self, B: int, K: int, which: str = "sig"):
        before = (self.verifier.sig_rl.epoch, self.verifier.issuer_rl.epoch)
        roles.pv_revoke(self.verifier, B, K, which)
        after = (self.verifier.sig_rl.epoch, self.verifier.issuer_rl.epoch)
        changed = "updated" if before != after else "no-op (duplicate)"
        self.log("revoke", f"{which}-RL {changed}; epochs sig={after[0]} "
                           f"issuer={after[1]}")

    def disclose(self, name: str, key_index: int, reveal_identity: bool = False):
        user = self._user(name)
        record = roles.user_disclose_key(user, self.verifier, key_index,
                                         self.transcript, reveal_identity)
        self.log("disclosure", f"ownership of key {record.disclosed_key:#x} "
                               f"disclosed"
                               + (f" by {record.identity}"
                                  if record.identity else " anonymously"))
        return record

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        state = dict(vars(self), format=FORMAT_VERSION, clock=self.clock.time,
                     rng=vars(self.rng), transcript=self.transcript.envelopes,
                     pool={"group": self.pool.group,
                           "pending": self.pool.pending.values()})
        return encode(state, _DOC, secrets=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "World":
        state = decode(_DOC, _upgrade(doc))
        world = cls(state["group_id"], state["seed"])
        del state["format"]
        if state["rng"]["counter"] >= COUNTER_LIMIT:
            raise ProtocolError("malformed field rng.counter: 2**64 or more")
        vars(world.rng).update(state.pop("rng"))
        world.clock.time = state.pop("clock")
        world.transcript.envelopes = state.pop("transcript")
        pool = state.pop("pool")
        world.pool = ledger.TransactionPool(pool["group"])
        world.pool.pending = {tx.txid: tx for tx in pool["pending"]}
        vars(world).update(state)
        if world.group_id not in world.issuer.groups:
            raise ProtocolError(f"issuer.groups has no group {world.group_id!r}")
        _check_names(world)
        return world

    def state_hash(self) -> str:
        return hashlib.sha256(doc_bytes(self.to_doc())).hexdigest()

    def save(self, path: str):
        data = doc_bytes(self.to_doc())
        tmp = f"{path}.tmp"
        fh = open(tmp, "wb")
        try:
            with fh:
                fh.write(data)
                fh.write(b"\n")
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "World":
        with open(path, "rb") as fh:
            return cls.from_doc(doc_from_bytes(fh.read()))


def _upgrade(doc) -> dict:
    """``doc`` in the current format.  Format 1 also stored the profile (in
    the group key), per-user progress (derived from the user's own state),
    the verifier's signing group (its keypair's group) and two actor ids."""
    version = doc.get("format") if type(doc) is dict else None
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ProtocolError("unsupported world file format")
    if version == 1:
        doc = {k: v for k, v in doc.items() if k not in ("profile", "progress")}
        for actor, keys in (("issuer", ("actor_id",)),
                            ("verifier", ("actor_id", "signing_group"))):
            if type(doc.get(actor)) is dict:
                doc[actor] = {k: v for k, v in doc[actor].items()
                              if k not in keys}
        doc["format"] = FORMAT_VERSION
    return doc


def _check_names(world: World) -> None:
    """Refuse the user names and node ids that ``enroll``, ``outsider`` and
    ``add-node`` refuse: an empty one, or a node id given twice."""
    if "" in world.users:
        raise ProtocolError("users has an empty name")
    seen = set()
    for node in world.nodes:
        if not node.node_id:
            raise ProtocolError("nodes: node id '' is empty")
        if node.node_id in seen:
            raise ProtocolError(f"nodes: node id {node.node_id!r} appears "
                                f"twice")
        seen.add(node.node_id)


# The world file: every actor's full state, secrets included.
_DOC = {"format": JsonInt, "group_id": str, "seed": SignedJsonInt,
        "rng": {"key": bytes, "counter": JsonInt}, "clock": JsonInt,
        "issuer": roles.IssuerActor, "verifier": roles.VerifierActor,
        "users": dict[str, roles.UserActor],
        "nodes": list[ledger.ConsensusNode],
        "pool": {"group": schnorr.SigningGroup,
                 "pending": list[ledger.Transaction]},
        "transcript": list[Envelope], "lines": list[str]}
