"""Locate bundled fixture inputs (sample bytecode, contracts, corpora)."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def fixture_root() -> Path:
    """Directory holding the bundled fixtures."""
    return Path(str(resources.files("phantomscan") / "fixtures"))


def fixture_path(name: str) -> Path:
    path = fixture_root() / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture named {name!r} under {fixture_root()}")
    return path
