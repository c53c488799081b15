"""Symbolic execution of restricted contract sources."""

from .engine import (
    EmitRecord,
    Path,
    PathSet,
    SourceFinding,
    WriteRecord,
    analyze_source,
    search_paths,
)
from .solver import SAT, UNKNOWN, UNSAT, export_smtlib, solve
from . import values

__all__ = [
    "analyze_source", "search_paths", "Path", "PathSet", "EmitRecord", "WriteRecord",
    "SourceFinding", "solve", "export_smtlib", "SAT", "UNSAT", "UNKNOWN",
    "values",
]
