"""Merge findings from any mix of layers into one deterministic report.

When the same artifact was analyzed both as bytecode and as source, a
confirmed source finding supersedes a potential bytecode finding about
the same event and kind: the bytecode signal is kept for audit but
marked, so consumers do not double-count one forgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import SCHEMA, jsonout
from .findings import LAYER_BYTECODE, LAYER_SOURCE, Finding


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)
    superseded: dict[str, str] = field(default_factory=dict)  # finding id -> dominating id

    @property
    def summary(self) -> dict:
        by_layer: dict[str, int] = {}
        by_kind: dict[str, int] = {}
        by_confidence: dict[str, int] = {}
        for f in self.findings:
            by_layer[f.layer] = by_layer.get(f.layer, 0) + 1
            by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
            by_confidence[f.confidence] = by_confidence.get(f.confidence, 0) + 1
        return {
            "total": len(self.findings),
            "by_layer": dict(sorted(by_layer.items())),
            "by_kind": dict(sorted(by_kind.items())),
            "by_confidence": dict(sorted(by_confidence.items())),
            "superseded": len(self.superseded),
        }

    def json_pieces(self) -> Iterator[str]:
        """The report's JSON text in order, one piece per finding: the
        caveats, each finding, then the schema and the summary."""
        return jsonout.iterdumps({
            "schema": SCHEMA,
            "summary": self.summary,
            "caveats": list(self.caveats),
            "findings": map(self._finding_json, self.findings),
        })

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    def _finding_json(self, f: Finding) -> dict:
        item = f.to_json()
        if f.id in self.superseded:
            item["superseded_by"] = self.superseded[f.id]
        return item


def _dominates(src: Finding, byt: Finding) -> bool:
    if src.layer != LAYER_SOURCE or byt.layer != LAYER_BYTECODE:
        return False
    if src.confidence != "CONFIRMED" or byt.confidence != "POTENTIAL":
        return False
    if src.kind != byt.kind:
        return False
    s, b = src.subject, byt.subject
    if s.get("topic0") is None or s.get("topic0") != b.get("topic0"):
        return False
    return _origin_stem(s.get("origin")) == _origin_stem(b.get("origin"))


def _origin_stem(origin) -> str | None:
    if not isinstance(origin, str):
        return None
    name = origin.rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0]


def merge(findings: Iterable[Finding], caveats: Iterable[str] = ()) -> Report:
    seen: dict[str, Finding] = {}
    for f in findings:
        seen.setdefault(f.id, f)
    merged = sorted(seen.values(), key=lambda f: f.sort_key)
    superseded: dict[str, str] = {}
    sources = [f for f in merged if f.layer == LAYER_SOURCE]
    for byt in merged:
        if byt.layer != LAYER_BYTECODE:
            continue
        for src in sources:
            if _dominates(src, byt):
                superseded[byt.id] = src.id
                break
    return Report(findings=merged, caveats=list(dict.fromkeys(caveats)), superseded=superseded)
