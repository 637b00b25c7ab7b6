"""Opt-in tracing for the benchmark, installed from outside the program.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces public
functions of the ``chainanchor`` modules with timing wrappers (in every
module that holds a reference, so ``from .groupmath import ...`` names are
covered too) and places a counting ``pow`` in each module's globals, where
it shadows the builtin.  :meth:`Tracer.uninstall` puts everything back.

Each wrapped call becomes a span ``(id, parent, name, start, end)`` kept in
memory and written out at the end.  Self time is a span's duration minus the
time its child spans and its modular exponentiations cover, so the self
times of all spans plus ``groupmath.modexp`` plus the untraced remainder add
up to the wall time of the traced region.  Modular exponentiations are too
many to keep as spans; they are counted (calls, exponent bits) and timed in
aggregate instead.
"""

from __future__ import annotations

import builtins
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("groupmath", "epid", "schnorr", "channels", "roles", "ledger",
           "world", "cli", "demo", "rng", "serial")

# (module, attribute path, span name).  Several functions may share a span
# name: a join is request + issue + complete.
SPANS = (
    ("groupmath", "is_probable_prime", "groupmath.prime_test"),
    ("groupmath", "gen_safe_prime", "groupmath.safe_prime"),
    ("epid", "setup_group", "epid.setup_group"),
    ("epid", "validate_gpk", "epid.validate_gpk"),
    ("epid", "join_request", "epid.join"),
    ("epid", "issue_credential", "epid.join"),
    ("epid", "complete_join", "epid.join"),
    ("epid", "sign_membership", "epid.sign"),
    ("epid", "verify_membership", "epid.verify"),
    ("schnorr", "generate_keypair", "schnorr.keygen"),
    ("schnorr", "sign", "schnorr.sign"),
    ("schnorr", "verify", "schnorr.verify"),
    ("channels", "seal", "channels.seal_open"),
    ("channels", "open_sealed", "channels.seal_open"),
    ("roles", "user_request_membership", "roles.enroll"),
    ("roles", "user_join_group", "roles.join"),
    ("roles", "user_prove_membership", "roles.prove"),
    ("roles", "register_transaction_key", "roles.register"),
    ("roles", "PermissionsDatabase.contains", "roles.db_lookup"),
    ("roles", "PermissionsDatabase.add", "roles.db_add"),
    ("ledger", "create_transaction", "ledger.create_tx"),
    ("ledger", "submit", "ledger.submit"),
    ("ledger", "node_process", "ledger.mine"),
    ("ledger", "validator_audit", "ledger.audit"),
    ("ledger", "chain_scan_membership", "ledger.scan"),
    ("world", "World.create", "world.create"),
    ("world", "World.enroll", "world.command"),
    ("world", "World.join", "world.command"),
    ("world", "World.prove", "world.command"),
    ("world", "World.register", "world.command"),
    ("world", "World.add_outsider", "world.command"),
    ("world", "World.tx", "world.command"),
    ("world", "World.mine", "world.command"),
    ("world", "World.audit", "world.command"),
    ("world", "World.revoke", "world.command"),
    ("world", "World.disclose", "world.command"),
    ("world", "World.save", "world.save"),
    ("world", "World.load", "world.load"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS)) + (
    "groupmath.modexp",)

_builtin_pow = builtins.pow


class Tracer:
    """Spans, per-name call counts and times, and modexp counters."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self._stack = []         # [id, start, time covered by children]
        self._next_id = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.modexp_count = 0
        self.modexp_exp_bits = 0
        self.counts = Counter()  # nonrev_proofs, envelope bytes, ...
        self._undo = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            start = perf_counter()
            stack.append([span_id, start, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, _, covered = stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - covered
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def pow(self, base, exp, mod=None):
        if mod is None:
            return _builtin_pow(base, exp)
        start = perf_counter()
        try:
            return _builtin_pow(base, exp, mod)
        finally:
            duration = perf_counter() - start
            self.modexp_count += 1
            self.modexp_exp_bits += abs(exp).bit_length()
            self.self_s["groupmath.modexp"] += duration
            self.total_s["groupmath.modexp"] += duration
            if self._stack:
                self._stack[-1][2] += duration

    def census(self) -> dict:
        """The exact, hardware-independent counters at this moment."""
        return {
            "groupmath.modexp_count": self.modexp_count,
            "groupmath.modexp_exp_kbits": self.modexp_exp_bits / 1000,
            "groupmath.prime_test_calls": self.calls["groupmath.prime_test"],
            "epid.validate_gpk_calls": self.calls["epid.validate_gpk"],
            "epid.nonrev_proofs": self.counts["nonrev_proofs"],
            "roles.db_lookups": self.calls["roles.db_lookup"],
            "schnorr.verify_calls": self.calls["schnorr.verify"],
            "channels.envelope_bytes": self.counts["attest_envelope_bytes"],
            "attestations": self.calls["roles.prove"],
        }

    def self_snapshot(self) -> dict:
        """Self time per span name so far; the difference of two snapshots
        taken outside any span is the self time of the region between."""
        return dict(self.self_s)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

    def summary(self) -> dict:
        """Counters and per-name totals, as a child process reports them."""
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "modexp_count": self.modexp_count,
                "modexp_exp_bits": self.modexp_exp_bits}

    def merge(self, summary: dict):
        self.calls.update(summary["calls"])
        self.counts.update(summary["counts"])
        for key in ("total_s", "self_s"):
            target = getattr(self, key)
            for name, value in summary[key].items():
                target[name] += value
        self.modexp_count += summary["modexp_count"]
        self.modexp_exp_bits += summary["modexp_exp_bits"]

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"chainanchor.{m}") for m in MODULES]
        for module in modules:
            self._set(module, "pow", self.pow)
        for module_name, path, name in SPANS:
            owner = importlib.import_module(f"chainanchor.{module_name}")
            if "." in path:
                self._wrap_method(owner, path, name)
            else:
                self._wrap_function(modules, getattr(owner, path), name)
        self._count_extras(modules)

    def uninstall(self):
        for target, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, old)
        self._undo.clear()

    def _set(self, target, attr, value):
        self._undo.append((target, attr, target.__dict__.get(attr, _MISSING)))
        setattr(target, attr, value)

    def _wrap_function(self, modules, fn, name):
        self._replace(modules, fn, self.wrap(name, fn))

    def _replace(self, modules, old, new):
        """Point every module attribute that holds ``old`` at ``new``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is old:
                    self._set(module, attr, new)

    def _wrap_method(self, module, path, name):
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            self._set(cls, attr, self.wrap(name, raw))

    def _count_extras(self, modules):
        """Counters read off return values and arguments, not spans."""
        epid = importlib.import_module("chainanchor.epid")
        channels = importlib.import_module("chainanchor.channels")
        sign = epid.sign_membership       # already the traced wrapper

        def counted_sign(*args, **kwargs):
            sig = sign(*args, **kwargs)
            self.counts["nonrev_proofs"] += (len(sig.nonrevocation_sig)
                                             + len(sig.nonrevocation_iss))
            return sig

        self._replace(modules, sign, counted_sign)

        send = channels.Transcript.send

        def counted_send(transcript, env):
            delivered = send(transcript, env)
            if delivered.step.startswith("step-6"):
                self.counts["attest_envelope_bytes"] += len(delivered.payload)
            return delivered

        self._set(channels.Transcript, "send", counted_send)


_MISSING = object()


def calibrate(rounds: int = 20000) -> tuple:
    """Seconds of overhead that one span and one counted modexp add, each
    measured against the bare call."""
    probe = Tracer()

    def noop():
        return None

    def timed(fn, *args):
        start = perf_counter()
        for _ in range(rounds):
            fn(*args)
        return perf_counter() - start

    span = timed(probe.wrap("probe", noop)) - timed(noop)
    modexp = timed(probe.pow, 3, 5, 7) - timed(_builtin_pow, 3, 5, 7)
    return max(0.0, span / rounds), max(0.0, modexp / rounds)
