"""The phantomscan CLI with per-layer spans installed.

    python3 perfbench/traced_cli.py TRACE.json SUBCOMMAND [ARGS...]

Behaves as `python -m phantomscan.cli SUBCOMMAND [ARGS...]` (same
output, same exit code) and writes the summed spans to TRACE.json.
"""

from __future__ import annotations

import sys

from common import use_program

use_program()

from tracing import Tracer, write  # noqa: E402


def main() -> None:
    trace_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from phantomscan.cli import main as cli_main

    try:
        cli_main(args, prog_name="phantomscan")
    finally:
        write(tracer, trace_path)


if __name__ == "__main__":
    main()
