"""Project rulesets for log scanning.

A ruleset names, per project, the contracts allowed to emit its events
and the full event surface of those contracts.  The signature topic of
each event is derived here from the declared parameter types, so rules
never contain raw topic hashes.

Shape:

    version: 1
    projects:
      - name: SomeBridge
        authentic_emitters:
          - "0x...."
        events:
          - name: Redeem
            params:
              - {name: redeemer, type: address, indexed: true}
              - {name: value, type: uint256, indexed: false}
            expected_selectors: ["0xdeadbeef"]     # optional
            predicates:                             # optional
              - {param: value, op: ">", value: 0}
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import yaml

from .._keccak import keccak256
from .abi import DYNAMIC_TYPES, STATIC_TYPES

_OPS = ("==", "!=", "<", "<=", ">", ">=")
_HEX20 = re.compile(r"0x[0-9a-fA-F]{40}").fullmatch
_HEX4 = re.compile(r"0x[0-9a-fA-F]{8}").fullmatch
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch


class RulesError(ValueError):
    pass


@dataclass(frozen=True)
class EventParam:
    name: str
    type: str
    indexed: bool


@dataclass(frozen=True)
class Predicate:
    param: str
    op: str
    value: object

    def holds(self, decoded) -> bool:
        if self.op == "==":
            return decoded == self.value
        if self.op == "!=":
            return decoded != self.value
        if self.op == "<":
            return decoded < self.value
        if self.op == "<=":
            return decoded <= self.value
        if self.op == ">":
            return decoded > self.value
        return decoded >= self.value


@dataclass(frozen=True)
class EventRule:
    name: str
    params: tuple[EventParam, ...]
    topic0: int
    expected_selectors: frozenset[str] | None = None
    predicates: tuple[Predicate, ...] = ()

    @cached_property
    def signature(self) -> str:
        return f"{self.name}({','.join(p.type for p in self.params)})"


@dataclass(frozen=True)
class Project:
    name: str
    authentic_emitters: frozenset[str]
    events: tuple[EventRule, ...]

    @cached_property
    def emitters_sorted(self) -> list[str]:
        return sorted(self.authentic_emitters)

    @cached_property
    def rules_by_topic(self) -> dict[int, EventRule]:
        """Each declared topic's rule; the first one wins."""
        return {rule.topic0: rule for rule in reversed(self.events)}


@dataclass(frozen=True)
class Ruleset:
    projects: tuple[Project, ...] = ()
    watched: dict = field(default_factory=dict, compare=False)
    emitters: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        table: dict[int, list[tuple[Project, EventRule]]] = {}
        # each authentic emitter's projects, in ruleset order
        emitters: dict[str, list[Project]] = {}
        for proj in self.projects:
            for rule in proj.events:
                table.setdefault(rule.topic0, []).append((proj, rule))
            for address in proj.authentic_emitters:
                emitters.setdefault(address, []).append(proj)
        object.__setattr__(self, "watched", table)
        object.__setattr__(self, "emitters", emitters)


def event_topic0(name: str, types: list[str]) -> int:
    sig = f"{name}({','.join(types)})"
    return int.from_bytes(keccak256(sig.encode("ascii")), "big")


def _parse_param(raw, where: str) -> EventParam:
    if not isinstance(raw, dict):
        raise RulesError(f"{where}: each param must be a mapping")
    name = raw.get("name")
    type_ = raw.get("type")
    if not isinstance(name, str) or not _NAME(name):
        raise RulesError(f"{where}: param name {name!r} is not an identifier")
    if type_ not in STATIC_TYPES + DYNAMIC_TYPES:
        raise RulesError(f"{where}: unsupported param type {type_!r}")
    indexed = raw.get("indexed", False)
    if not isinstance(indexed, bool):
        raise RulesError(f"{where}: indexed must be a boolean")
    return EventParam(name=name, type=type_, indexed=indexed)


def _parse_predicate(raw, params: tuple[EventParam, ...], where: str) -> Predicate:
    if not isinstance(raw, dict):
        raise RulesError(f"{where}: each predicate must be a mapping")
    pname = raw.get("param")
    op = raw.get("op")
    value = raw.get("value")
    param = next((p for p in params if p.name == pname), None)
    if param is None:
        raise RulesError(f"{where}: predicate names unknown param {pname!r}")
    if op not in _OPS:
        raise RulesError(f"{where}: predicate op must be one of {', '.join(_OPS)}")
    if param.indexed and param.type in DYNAMIC_TYPES:
        raise RulesError(f"{where}: cannot predicate on indexed dynamic param {pname!r}")
    if param.type == "uint256":
        # a bound past the type's range would make `<` never fire and `>` always
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 256:
            raise RulesError(f"{where}: predicate on {pname!r} needs a non-negative integer "
                             "below 2**256")
    elif param.type == "address":
        if not isinstance(value, str) or not _HEX20(value):
            raise RulesError(f"{where}: predicate on {pname!r} needs a 20-byte hex address")
        if op not in ("==", "!="):
            raise RulesError(f"{where}: address predicates support only == and !=")
        value = value.lower()
    elif param.type == "bool":
        if not isinstance(value, bool):
            raise RulesError(f"{where}: predicate on {pname!r} needs a boolean")
        if op not in ("==", "!="):
            raise RulesError(f"{where}: bool predicates support only == and !=")
    else:
        raise RulesError(f"{where}: predicates on {param.type} params are not supported")
    return Predicate(param=pname, op=op, value=value)


def _parse_event(raw, where: str) -> EventRule:
    if not isinstance(raw, dict):
        raise RulesError(f"{where}: each event must be a mapping")
    name = raw.get("name")
    if not isinstance(name, str) or not _NAME(name):
        raise RulesError(f"{where}: event name {name!r} is not an identifier")
    where = f"{where}, event {name}"
    raw_params = raw.get("params")
    if not isinstance(raw_params, list) or not raw_params:
        raise RulesError(f"{where}: params must be a non-empty list")
    params = tuple(_parse_param(p, where) for p in raw_params)
    if len([p for p in params if p.indexed]) > 3:
        raise RulesError(f"{where}: at most 3 params may be indexed")
    seen = set()
    for p in params:
        if p.name in seen:
            raise RulesError(f"{where}: duplicate param name {p.name!r}")
        seen.add(p.name)

    selectors = raw.get("expected_selectors")
    if selectors is not None:
        if not isinstance(selectors, list) or not selectors:
            raise RulesError(f"{where}: expected_selectors must be a non-empty list")
        for s in selectors:
            if not isinstance(s, str) or not _HEX4(s):
                raise RulesError(f"{where}: selector {s!r} must be a 4-byte hex string")
        selectors = frozenset(s.lower() for s in selectors)

    raw_preds = raw.get("predicates", [])
    if not isinstance(raw_preds, list):
        raise RulesError(f"{where}: predicates must be a list")
    predicates = tuple(_parse_predicate(p, params, where) for p in raw_preds)

    extra = set(raw) - {"name", "params", "expected_selectors", "predicates"}
    if extra:
        raise RulesError(f"{where}: unknown keys {sorted(extra)}")
    return EventRule(
        name=name,
        params=params,
        topic0=event_topic0(name, [p.type for p in params]),
        expected_selectors=selectors,
        predicates=predicates,
    )


def _parse_project(raw, index: int) -> Project:
    if not isinstance(raw, dict):
        raise RulesError(f"project #{index}: must be a mapping")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise RulesError(f"project #{index}: needs a non-empty name")
    where = f"project {name}"
    emitters = raw.get("authentic_emitters")
    if not isinstance(emitters, list) or not emitters:
        raise RulesError(f"{where}: authentic_emitters must be a non-empty list")
    for addr in emitters:
        if not isinstance(addr, str) or not _HEX20(addr):
            raise RulesError(f"{where}: emitter {addr!r} must be a 20-byte hex address")
    raw_events = raw.get("events")
    if not isinstance(raw_events, list) or not raw_events:
        raise RulesError(f"{where}: events must be a non-empty list")
    events = tuple(_parse_event(e, where) for e in raw_events)
    topics = [e.topic0 for e in events]
    if len(topics) != len(set(topics)):
        raise RulesError(f"{where}: two events share a signature topic")
    extra = set(raw) - {"name", "authentic_emitters", "events"}
    if extra:
        raise RulesError(f"{where}: unknown keys {sorted(extra)}")
    return Project(
        name=name,
        authentic_emitters=frozenset(a.lower() for a in emitters),
        events=events,
    )


def load_rules(text: str) -> Ruleset:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise RulesError(f"invalid YAML: {exc}") from exc
    except RecursionError as exc:
        raise RulesError("invalid YAML: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise RulesError("ruleset must be a mapping")
    if type(doc.get("version")) is not int or doc["version"] != 1:  # not true, not 1.0
        raise RulesError("ruleset version must be 1")
    raw_projects = doc.get("projects")
    if not isinstance(raw_projects, list) or not raw_projects:
        raise RulesError("projects must be a non-empty list")
    extra = set(doc) - {"version", "projects"}
    if extra:
        raise RulesError(f"unknown top-level keys {sorted(extra)}")
    projects = tuple(_parse_project(p, i) for i, p in enumerate(raw_projects))
    names = [p.name for p in projects]
    if len(names) != len(set(names)):
        raise RulesError("two projects share a name")
    return Ruleset(projects=projects)


def load_rules_file(path: str | Path) -> Ruleset:
    return load_rules(Path(path).read_text(encoding="utf-8"))
