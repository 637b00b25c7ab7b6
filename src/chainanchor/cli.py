"""Command-line driver.

Every command reads and writes an explicit world file (no hidden state);
with a fixed seed, repeated runs and reload-replay sequences produce
byte-identical transcripts and state hashes.  Failed protocol steps still
persist their side effects (burned challenges, consumed randomness): a
rejected step is part of the simulated history.  A proved PSK session is
not burned; it stays open until a key is registered in it.

Exit codes: 0 success, 1 usage, 2 protocol error, 3 invariant violation.
A profile whose lengths leave too few primes for a search ends in 1, and
the command writes no world file.
"""

from __future__ import annotations

import argparse
import os
import sys

from .demo import run_demo
from .errors import InvariantViolation, ProtocolError, SearchExhausted
from .groupmath import PROFILES, load_profiles
from .world import World

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this harness reserves 2 for
    # protocol errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def hex_int(text: str) -> int:
    return int(text, 16)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainanchor",
                     description="anonymous-membership permissioned ledger "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, help_text, run, kind="step"):  # or "view", "create"
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, kind=kind)
        return p

    p = command("setup", "establish a group and create a world", _setup,
                kind="create")
    p.add_argument("group_id")
    p.add_argument("--profile", default="desk",
                   help="parameter profile name (desk, full, or from "
                        "--profiles-file)")
    p.add_argument("--profiles-file", metavar="PATH",
                   help="JSON file with extra parameter profiles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing world file")

    command("enroll", "authenticate and request membership",
            lambda world, args: world.enroll(args.user)).add_argument("user")
    command("join", "run the blinded join",
            lambda world, args: world.join(args.user)).add_argument("user")

    p = command("prove", "anonymous membership proof + PSK",
                lambda world, args: world.prove(args.user, args.member_index))
    p.add_argument("user")
    p.add_argument("--member-index", type=int, default=0)

    p = command("register", "register a transaction key",
                lambda world, args: world.register(
                    args.user, args.key_index, with_identity=args.identity))
    p.add_argument("user")
    p.add_argument("--key-index", type=int, default=None,
                   help="transaction key to register (default: next unused)")
    p.add_argument("--identity", action="store_true",
                   help="also request an anonymous internet identity")

    command("outsider", "create a non-member keypair holder",
            lambda world, args: world.add_outsider(args.user)
            ).add_argument("user")

    p = command("tx", "sign and submit a transaction",
                lambda world, args: world.tx(args.user, args.key_index,
                                             args.payload.encode()))
    p.add_argument("user")
    p.add_argument("payload")
    p.add_argument("--key-index", type=int, default=0)

    p = command("add-node", "add a consensus node",
                lambda world, args: world.add_node(
                    args.node_id, dishonest=args.dishonest))
    p.add_argument("node_id")
    p.add_argument("--dishonest", action="store_true")

    command("mine", "drain the pool into a block",
            lambda world, args: world.mine(args.node_id)
            ).add_argument("node_id")

    command("audit", "validator audit of one block",
            lambda world, args: print(
                f"{len(world.audit(args.block_hash).violations)} violations")
            ).add_argument("block_hash", help="block hash (prefix allowed)")

    p = command("revoke", "append a pseudonym to a revocation list",
                lambda world, args: world.revoke(args.B, args.K, args.which))
    p.add_argument("B", type=hex_int, help="pseudonym base, hex")
    p.add_argument("K", type=hex_int, help="pseudonym value, hex")
    p.add_argument("--list", dest="which", choices=("sig", "issuer"),
                   default="sig")

    p = command("disclose", "prove ownership of one registered key",
                lambda world, args: world.disclose(
                    args.user, args.key_index,
                    reveal_identity=args.reveal_identity))
    p.add_argument("user")
    p.add_argument("--key-index", type=int, default=0)
    p.add_argument("--reveal-identity", action="store_true")

    command("show", "print the transcript and state hash",
            lambda world, args: print(world.transcript_text()
                                      + f"state hash {world.state_hash()}"),
            kind="view")
    command("export", "print chain and drop-log text exports", _export,
            kind="view").add_argument("--node", default=None,
                                      help="limit to one node id")

    for p in sub.choices.values():  # each of these names its world file last
        p.add_argument("--world", required=True, metavar="PATH",
                       help="world state file")

    p = command("demo", "scripted end-to-end run", _demo, kind="create")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profile", default="desk")
    p.add_argument("--world", metavar="PATH",
                   help="optionally save the final world state")
    p.add_argument("--force", action="store_true")
    return parser


def _resolve_profile(args, parser):
    profiles = dict(PROFILES)
    if getattr(args, "profiles_file", None):
        try:
            profiles.update(load_profiles(args.profiles_file))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load profiles: {exc}")
    if args.profile not in profiles:
        parser.error(f"unknown profile {args.profile!r} "
                     f"(have: {', '.join(sorted(profiles))})")
    return profiles[args.profile]


def _check_output_path(path, force, parser):
    """Refuse a world path that cannot be written, before any set-up runs."""
    if not path:
        return
    if os.path.exists(path) and not force:
        parser.error(f"{path} exists (use --force to overwrite)")
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        parser.error(f"cannot write world file {path}: {directory} is not "
                     f"a writable directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ProtocolError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except SearchExhausted as exc:
        print(f"{args.command} failed: {exc} (the profile's lengths leave "
              f"too few primes, or the randomness source is broken)",
              file=sys.stderr)
        return EXIT_USAGE


def _load_world(args, parser) -> World:
    if not os.path.exists(args.world):
        parser.error(f"world file {args.world} does not exist")
    try:
        return World.load(args.world)
    except ProtocolError as exc:
        parser.error(f"world file {args.world} is corrupt: {exc}")
    except OSError as exc:
        parser.error(f"cannot read world file {args.world}: "
                     f"{exc.strerror or exc}")


def _save_world(world, path, parser):
    try:
        world.save(path)
    except OSError as exc:
        parser.error(f"cannot write world file {path}: {exc.strerror or exc}")


def _refuse_undecodable(args, parser):
    """Refuse a text argument whose bytes were not UTF-8 (they arrive as
    lone surrogates); file paths may hold such bytes and are exempt."""
    for name, value in vars(args).items():
        if isinstance(value, str) and name not in ("world", "profiles_file"):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                parser.error(f"argument {name} is not valid UTF-8")


def _setup(args, parser):
    profile = _resolve_profile(args, parser)
    _check_output_path(args.world, args.force, parser)
    return World.create(args.group_id, profile, args.seed), ()


def _demo(args, parser):
    _check_output_path(args.world, args.force, parser)
    return run_demo(args.seed, _resolve_profile(args, parser))


def _export(world, args):
    from .ledger import chain_export_text, drop_log_export_text
    nodes = [n for n in world.nodes
             if args.node is None or n.node_id == args.node]
    if args.node is not None and not nodes:
        raise ProtocolError(f"unknown node {args.node!r}")
    for node in nodes:
        print(f"# chain {node.node_id}")
        text = chain_export_text(node.chain)
        if text:
            print(text)
        print(f"# drops {node.node_id}")
        drops = drop_log_export_text(node)
        if drops:
            print(drops)


def _dispatch(args, parser) -> int:
    _refuse_undecodable(args, parser)
    if args.kind == "create":  # a creator's run checks its output path
        world, failures = args.run(args, parser)
        if args.world:
            _save_world(world, args.world, parser)
        print(world.transcript_text(), end="")
        if failures:
            print(f"{len(failures)} invariant violations", file=sys.stderr)
            return EXIT_INVARIANT
        return EXIT_OK

    world = _load_world(args, parser)
    if args.kind == "view":  # a view never writes the world file
        args.run(world, args)
        return EXIT_OK
    lines_before = len(world.lines)
    code = EXIT_OK
    try:
        args.run(world, args)
    except ProtocolError as exc:
        # Rejected steps are part of the simulated history: persist their
        # side effects (burned challenges, consumed randomness).
        print(f"{exc}", file=sys.stderr)
        code = EXIT_PROTOCOL
    for line in world.lines[lines_before:]:
        print(line)
    _save_world(world, args.world, parser)
    return code


if __name__ == "__main__":
    sys.exit(main())
