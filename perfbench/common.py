"""Paths and small helpers shared by the benchmark's modules."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
FIXTURES = SRC / "phantomscan" / "fixtures"
WORK = ROOT / "perfbench" / "work"

BYTECODE_FIXTURES = ("counterfeit", "inconsistent", "inconsistent_safe",
                     "emit_helper", "nocheck_call", "checked_call")
SOURCE_FIXTURES = ("counterfeit", "inconsistent", "inconsistent_safe",
                   "disjoint", "relay")


class MissingProgram(RuntimeError):
    pass


def use_program() -> None:
    """Make the checkout's own sources importable, ahead of anything installed."""
    if not (SRC / "phantomscan" / "cli.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if not (TOOLS / "build_fixtures.py").is_file():
        raise MissingProgram(f"no fixture assembler under {TOOLS}")
    for path in (str(TOOLS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for a child process that runs the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env

