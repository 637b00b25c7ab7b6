"""chainanchor benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout: the program is imported from ``src/``.
One workload per invocation prints a metric table, a ``RECORD`` line with
the run record, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload untraced, then traced twice (the
second time only long enough to repeat the census), in child processes,
and prints every metric with its unit and sample count, the tracing
overhead and whether the census repeated.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from math import ceil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "_out")
WORKLOADS = ("member_full", "revocation_desk", "ledger_desk", "cli_desk")

# Census counters: exact totals over set-up plus the first episode.
CENSUS = ("groupmath.modexp_count", "groupmath.modexp_exp_kbits",
          "groupmath.prime_test_calls", "epid.validate_gpk_calls",
          "epid.nonrev_proofs", "roles.db_lookups", "schnorr.verify_calls",
          "channels.envelope_bytes", "world.kbytes")

# Mean duration per call of a span name, whole process, ms.  The ones after
# ledger.* happen on some workloads only; they are printed but are not in
# BENCHMARK.json, which lists what every workload measures.
PER_CALL_MS = (("groupmath.prime_test_ms", "groupmath.prime_test"),
               ("groupmath.safe_prime_ms", "groupmath.safe_prime"),
               ("epid.setup_group_ms", "epid.setup_group"),
               ("epid.validate_gpk_ms", "epid.validate_gpk"),
               ("epid.sign_ms", "epid.sign"),
               ("epid.verify_ms", "epid.verify"),
               ("schnorr.sign_ms", "schnorr.sign"),
               ("schnorr.verify_ms", "schnorr.verify"),
               ("channels.seal_open_ms", "channels.seal_open"),
               ("roles.register_ms", "roles.register"),
               ("roles.db_add_ms", "roles.db_add"),
               ("world.save_ms", "world.save"),
               ("world.load_ms", "world.load"),
               ("ledger.submit_ms", "ledger.submit"),
               ("ledger.mine_ms", "ledger.mine"),
               ("ledger.audit_ms", "ledger.audit"),
               ("ledger.scan_ms", "ledger.scan"),
               ("cli.main_ms", "cli.main"))
PARTIAL = ("ledger.submit_ms", "ledger.mine_ms", "ledger.audit_ms",
           "ledger.scan_ms", "ledger.drop_frac", "cli.main_ms")


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def source_digest(directory=os.path.join(SRC, "chainanchor")) -> str:
    """Digest of the Python files of one directory."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "commit": commit(),
            "source": source_digest()}


# ---------------------------------------------------------------------------
# one workload

def demo_check(run):
    """``chainanchor demo --seed 42`` must exit 0 with its invariants held."""
    from workloads import CLI, child_env

    proc = subprocess.run([sys.executable, *CLI, "demo", "--seed", "42"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    run.oracle.check(proc.returncode == 0
                     and "all demo invariants hold" in proc.stdout,
                     f"demo --seed 42 exited {proc.returncode}")


def cli_startup_probes(run, count=5):
    """Time child processes that only import ``chainanchor.cli``."""
    from time import perf_counter

    from workloads import child_env

    for _ in range(count):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import chainanchor.cli"],
                              env=child_env(), timeout=120)
        run.samples["cli_startup_s"].append(perf_counter() - start)
        run.oracle.check(proc.returncode == 0, "importing chainanchor.cli failed")


def run_workload(name, seed, seconds, trace, sizes=None):
    """Run one workload in this process; returns the result dict."""
    import workloads
    from tracing import Tracer, calibrate

    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else None
    run = workloads.Run(name, seed, seconds, tracer=tracer, sizes=sizes,
                        workdir=workdir)
    try:
        demo_check(run)
        if tracer is not None:
            tracer.install()
        try:
            getattr(workloads, name)(run)
        except Exception as exc:  # a program fault must end in a verdict
            run.oracle.check(False, f"{name} aborted: "
                                    f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            cli_startup_probes(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"workload": name, "run": run, "trace": bool(trace)}
    if tracer is not None:
        result["calibration"] = calibrate()
        check_census(run, sizes)
        tracer.write_spans(os.path.join(OUT, f"spans-{name}-{seed}.jsonl"))
    return result


def check_census(run, sizes):
    """Compare the census with an earlier traced run of the same workload,
    seed and sizes, program and benchmark source, if there was one; else
    store it."""
    key = hashlib.sha256(json.dumps(
        [run.workload, run.seed, sizes, source_digest(),
         source_digest(os.path.dirname(os.path.abspath(__file__)))],
        sort_keys=True, default=str).encode()).hexdigest()[:16]
    path = os.path.join(OUT, "census", f"{run.workload}-{key}.json")
    census = {name: (run.census or {}).get(name, 0) for name in CENSUS}
    run.oracle.check(run.census is not None, "census window never closed")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        run.oracle.check(earlier == census,
                         f"census differs from an earlier traced run: "
                         f"{earlier} != {census}")
        run.counts["census_compared"] = 1
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(census, fh)


def end_to_end(result) -> dict:
    """The end-to-end metrics: (value, unit, sample count)."""
    from workloads import HEADLINE

    run = result["run"]
    ops = run.samples[HEADLINE[run.workload]]
    rss_mb = (run.child_peak_kb if run.workload == "cli_desk" else
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024
    return {
        "setup_s": (statistics.median(run.setup_s) if run.setup_s else 0.0,
                    "s", len(run.setup_s)),
        "op_ms": (statistics.median(ops) * 1000 if ops else 0.0, "ms",
                  len(ops)),
        "ops_per_s": (len(ops) / run.run_s if run.run_s else 0.0, "1/s",
                      len(ops)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def named(result) -> dict:
    """The metrics the workload table names: latencies p50 and p90 where
    there are samples, run time, failure share."""
    run = result["run"]
    out = {"run_s": (run.run_s, "s", 1)}
    for label in ("join_ms", "attest_ms", "attest_rl_ms", "tx_ms",
                  "cli_cmd_ms"):
        values = run.samples.get(label)
        if values:
            out[label] = (statistics.median(values) * 1000, "ms", len(values))
            out[f"{label}.p90"] = (percentile(values, 0.9) * 1000, "ms",
                                   len(values))
    if run.counts.get("txs"):
        out["tx_per_s"] = (run.counts["txs"] / run.run_s, "1/s",
                           run.counts["txs"])
    attempted = max(1, run.oracle.attempted)
    out["failed_frac"] = (len(run.oracle.failures) / attempted, "ratio",
                          attempted)
    return out


def per_layer(result) -> dict:
    """The per-layer metrics of a traced run: (value, unit, sample count)."""
    from tracing import SPAN_NAMES
    from workloads import HEADLINE

    run = result["run"]
    tracer = run.tracer
    census = run.census or {}
    calls, total = tracer.calls, tracer.total_s
    out = {}
    for name in CENSUS:
        unit = {"groupmath.modexp_exp_kbits": "kbit",
                "channels.envelope_bytes": "B/attest",
                "world.kbytes": "kB"}.get(name, "count")
        value = census.get(name, 0)
        if name == "channels.envelope_bytes":
            proofs = census.get("attestations", 0)
            value = value / proofs if proofs else 0
        out[name] = (value, unit, 1)
    for metric, span in PER_CALL_MS:
        n = calls[span]
        out[metric] = (total[span] / n * 1000 if n else 0.0, "ms", n)
    joins = calls["roles.join"]
    out["epid.join_ms"] = (total["epid.join"] / joins * 1000 if joins else 0.0,
                           "ms", joins)
    lookups = calls["roles.db_lookup"]
    out["roles.db_lookup_us"] = (total["roles.db_lookup"] / lookups * 1e6
                                 if lookups else 0.0, "us", lookups)
    proves = calls["roles.prove"]
    out["roles.prove_self_ms"] = (tracer.self_s["roles.prove"] / proves * 1000
                                  if proves else 0.0, "ms", proves)
    ops = len(run.samples[HEADLINE[run.workload]])
    out["groupmath.modexp_ms"] = (run.run_self.get("groupmath.modexp", 0.0)
                                  / ops * 1000 if ops else 0.0, "ms/op", ops)
    offered = run.counts.get("honest_offered", 0)
    out["ledger.drop_frac"] = (run.counts.get("honest_dropped", 0) / offered
                               if offered else 0.0, "ratio", offered)
    startup = run.samples.get("cli_startup_s", [])
    out["cli.startup_ms"] = (statistics.median(startup) * 1000
                             if startup else 0.0, "ms", len(startup))
    traced_self = sum(run.run_self.get(span, 0.0) for span in SPAN_NAMES)
    out["trace.run_s"] = (run.run_s, "s", 1)
    out["trace.self_s"] = (traced_self, "s", 1)
    out["trace.rest_s"] = (run.run_s - traced_self, "s", 1)
    span_cost, modexp_cost = result["calibration"]
    events = run.counts.get("traced_calls", 0)
    out["trace.overhead_est_s"] = (
        events * span_cost + run.counts.get("traced_modexps", 0) * modexp_cost,
        "s", events)
    return out


def layer_metrics(result) -> dict:
    """The per-layer metrics every workload reports: BENCHMARK.json's."""
    return {name: value for name, value in per_layer(result).items()
            if name not in PARTIAL}


def self_times(result) -> dict:
    """Self time of each span name inside the timed phase."""
    from tracing import SPAN_NAMES

    run = result["run"]
    return {f"self_s.{span}": (run.run_self.get(span, 0.0), "s", 1)
            for span in SPAN_NAMES}


# ---------------------------------------------------------------------------
# output

def record(result, metrics) -> dict:
    run = result["run"]
    rec = {"workload": run.workload, "seed": run.seed,
           "profile": run.size["profile"].name, "seconds": run.seconds,
           "trace": result["trace"], "run_s": run.run_s, **machine(),
           "setup_runs": len(run.setup_s), "counts": dict(run.counts),
           "failures": run.oracle.failures[:10],
           "report": [[name, value, unit, n]
                      for name, (value, unit, n) in metrics.items()]}
    if result["trace"]:
        estimate = metrics["trace.overhead_est_s"][0]
        rec["tracing_overhead"] = {
            "estimated_s": estimate,
            "share_of_run": estimate / run.run_s if run.run_s else 0.0}
        rec["census"] = run.census
    else:
        rec["tracing_overhead"] = {"estimated_s": 0.0, "share_of_run": 0.0}
    return rec


def print_table(metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<9} n={n}")


def single(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    run = result["run"]
    if args.trace:
        metrics = layer_metrics(result)
        shown = {**per_layer(result), **self_times(result)}
    else:
        metrics = end_to_end(result)
        shown = {**metrics, **named(result)}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"run_s={run.run_s:.3f}")
    print_table(shown)
    for failure in run.oracle.failures[:10]:
        print(f"  FAILED {failure}")
    print("RECORD " + json.dumps(record(result, shown), default=str))
    failed = len(run.oracle.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, run.oracle.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


def child(workload, seed, seconds, trace):
    """Run one workload in a child process; returns (last line, record)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}")
    rec = next(json.loads(line[len("RECORD "):]) for line in lines
               if line.startswith("RECORD "))
    return json.loads(lines[-1]), rec


def every_workload(args) -> int:
    """Untraced, traced, and a short second traced run for the census."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        plain, plain_rec = child(workload, args.seed, args.seconds, 0)
        traced, traced_rec = child(workload, args.seed, args.seconds, 1)
        again, again_rec = child(workload, args.seed, 0, 1)
        repeated = (traced_rec["census"] == again_rec["census"])
        for line in (plain, traced, again):
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
        summary["correct"] &= repeated
        report = {name: (value, unit, n)
                  for name, value, unit, n in plain_rec["report"]}
        untraced_op, traced_op = (rec["run_s"] / rec["counts"]["ops"]
                                  for rec in (plain_rec, traced_rec))
        print(f"== {workload} (profile {plain_rec['profile']}, seed "
              f"{args.seed}, commit {plain_rec['commit']}, source "
              f"{plain_rec['source']})")
        print_table(report)
        print(f"  tracing overhead per op: {1000 * (traced_op - untraced_op):.4g}"
              f" ms ({(traced_op / untraced_op - 1) * 100:.1f}%); estimated "
              f"{traced_rec['tracing_overhead']['estimated_s']:.4g} s per run")
        print(f"  census repeated: {repeated}")
        print("  per-layer (traced):")
        print_table({name: (value, unit, n) for name, value, unit, n
                     in traced_rec["report"]})
        for name, value, unit, n in plain_rec["report"]:
            summary["metrics"][f"{workload}.{name}"] = {"value": value,
                                                        "unit": unit}
        rows.append({"workload": workload, "untraced": plain_rec,
                     "traced": traced_rec, "census_repeated": repeated,
                     "tracing_overhead_per_op_s": traced_op - untraced_op})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chainanchor", "__init__.py")):
        sys.stderr.write(f"no program to measure: {SRC}/chainanchor is "
                         f"missing (run from the root of a checkout)\n")
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.workload == "all":
        return every_workload(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
