"""Self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Run from the root of a checkout.  It checks three things:

1. every metric name in BENCHMARK.json is emitted, with a unit, and an
   honest run of every workload has no failed verdict;
2. the oracle flags a planted fault: a tamper hook corrupts the step-6.4
   envelope (membership proof plus key share) of one attestation that is
   expected to succeed;
3. the census counts repeat across two traced runs with the same seed.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import run as bench

TINY = {
    "member_full": {"members": 3},
    "revocation_desk": {"setups": 1, "population": 6,
                        "batches": ((2, "sig"), (2, "issuer"), (1, "sig"))},
    "ledger_desk": {"setups": 1, "members": 2, "db_keys": 50,
                    "outsider_keys": 5, "round_txs": 8, "attest_every": 2,
                    "rounds": 4},
    "cli_desk": {"setups": 1},
}
SEED = 7


@contextmanager
def tampered_attestation():
    """Corrupt the key share in the step-6.4 envelope of the first proof."""
    from chainanchor.channels import Envelope
    from chainanchor.world import World

    original = World.prove
    armed = [True]

    def corrupt(env):
        if env.step != "step-6.4":
            return env
        doc = json.loads(env.payload)
        doc["share"] = "0x1"
        return Envelope(env.sender, env.recipient, env.step,
                        json.dumps(doc).encode(), env.signature)

    def prove(world, *args, **kwargs):
        if not armed[0]:
            return original(world, *args, **kwargs)
        armed[0] = False
        world.transcript.tamper = corrupt
        try:
            return original(world, *args, **kwargs)
        finally:
            world.transcript.tamper = None

    World.prove = prove
    try:
        yield
    finally:
        World.prove = original


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
              "per_layer": [m["name"] for m in spec["per_layer"]]}
    problems = []
    from chainanchor import DESK

    for workload in bench.WORKLOADS:
        sizes = dict(TINY[workload], profile=DESK)
        plain = bench.run_workload(workload, SEED, 0, 0, sizes)
        traced = [bench.run_workload(workload, SEED, 0, 1, sizes)
                  for _ in range(2)]
        for kind, result, metrics in (
                ("end_to_end", plain, bench.end_to_end(plain)),
                ("per_layer", traced[0], bench.layer_metrics(traced[0]))):
            if sorted(metrics) != sorted(wanted[kind]):
                problems.append(f"{workload} {kind}: emits {sorted(metrics)}")
            problems += [f"{workload} {name}: no unit"
                         for name, (_, unit, _) in metrics.items() if not unit]
            problems += [f"{workload} {kind}: {failure}"
                         for failure in result["run"].oracle.failures]
        censuses = [result["run"].census for result in traced]
        if censuses[0] is None or censuses[0] != censuses[1]:
            problems.append(f"{workload}: census did not repeat: {censuses}")
        if workload != "cli_desk":
            with tampered_attestation():
                faulty = bench.run_workload(workload, SEED, 0, 0, sizes)
            if not faulty["run"].oracle.failures:
                problems.append(f"{workload}: planted fault not flagged")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, bench.SRC)
    os.chdir(bench.ROOT)
    sys.exit(main())
