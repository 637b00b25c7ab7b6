"""Run one chainanchor CLI command with the benchmark's tracing installed.

    python bench/cli_child.py SUMMARY.json <chainanchor arguments...>

The traced ``cli_desk`` run launches every command through this file instead
of ``python -m chainanchor.cli``.  It installs the same wrappers as an
in-process traced run, calls ``cli.main`` and writes the tracer's counters
and per-span times to SUMMARY.json for the parent to merge.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from chainanchor import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
