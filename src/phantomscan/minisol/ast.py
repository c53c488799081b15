"""Syntax tree for the restricted contract language.

Every node carries a (start, end) character span into the original
source, so tooling can slice the exact text a node came from.  Nodes
compare structurally ignoring spans via `strip`, which the round-trip
tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

Span = tuple[int, int]

SCALAR_TYPES = ("uint256", "address", "bool", "bytes")
UINT_MAX = 2**256 - 1  # the largest value of a uint256, and of a number literal
ADDRESS_MAX = 2**160 - 1  # the largest address


@dataclass(frozen=True)
class Node:
    span: Span = field(kw_only=True, default=(0, 0))

    def strip(self):
        """Structural value with spans removed, for comparisons."""
        out = [type(self).__name__]
        for f in fields(self):
            if f.name == "span":
                continue
            v = getattr(self, f.name)
            if isinstance(v, Node):
                out.append(v.strip())
            elif isinstance(v, tuple):
                out.append(tuple(x.strip() if isinstance(x, Node) else x for x in v))
            else:
                out.append(v)
        return tuple(out)


# ---------------------------------------------------------------- expressions

@dataclass(frozen=True)
class Lit(Node):
    value: int  # at most UINT_MAX


@dataclass(frozen=True)
class BoolLit(Node):
    value: bool


@dataclass(frozen=True)
class AddressLit(Node):
    value: int  # at most ADDRESS_MAX


@dataclass(frozen=True)
class MsgSender(Node):
    pass


@dataclass(frozen=True)
class MsgValue(Node):
    pass


@dataclass(frozen=True)
class Name(Node):
    ident: str


@dataclass(frozen=True)
class Index(Node):
    ident: str
    key: Node


@dataclass(frozen=True)
class Unary(Node):
    op: str  # only "!"
    operand: Node


@dataclass(frozen=True)
class Binary(Node):
    op: str  # || && == != < <= > >= + - *
    left: Node
    right: Node


# ----------------------------------------------------------------- statements

@dataclass(frozen=True)
class Require(Node):
    cond: Node


@dataclass(frozen=True)
class Emit(Node):
    event: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class If(Node):
    cond: Node
    then: tuple[Node, ...]
    orelse: tuple[Node, ...]


@dataclass(frozen=True)
class LocalDecl(Node):
    type: str
    name: str
    value: Node


@dataclass(frozen=True)
class Assign(Node):
    target: str
    value: Node


@dataclass(frozen=True)
class MapWrite(Node):
    target: str
    key: Node
    value: Node


@dataclass(frozen=True)
class CallStmt(Node):
    """`ok = call(target);`  result is a fresh success flag."""

    result: str
    target: Node


@dataclass(frozen=True)
class InternalCall(Node):
    name: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class Revert(Node):
    pass


@dataclass(frozen=True)
class Return(Node):
    value: Node | None


# --------------------------------------------------------------- declarations

@dataclass(frozen=True)
class EventParam(Node):
    type: str
    name: str
    indexed: bool


@dataclass(frozen=True)
class EventDecl(Node):
    name: str
    params: tuple[EventParam, ...]

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(p.type for p in self.params)})"


@dataclass(frozen=True)
class StateDecl(Node):
    name: str
    type: str  # value type
    key_type: str | None = None  # set for mappings

    @property
    def is_mapping(self) -> bool:
        return self.key_type is not None


@dataclass(frozen=True)
class Param(Node):
    type: str
    name: str


@dataclass(frozen=True)
class Function(Node):
    name: str
    params: tuple[Param, ...]
    visibility: str  # external | public | internal
    body: tuple[Node, ...]

    @property
    def is_entry(self) -> bool:
        return self.visibility in ("external", "public")


@dataclass(frozen=True)
class Contract(Node):
    name: str
    events: tuple[EventDecl, ...]
    state: tuple[StateDecl, ...]
    functions: tuple[Function, ...]

    def event(self, name: str) -> EventDecl | None:
        return next((e for e in self.events if e.name == name), None)

    def state_var(self, name: str) -> StateDecl | None:
        return next((s for s in self.state if s.name == name), None)

    def function(self, name: str) -> Function | None:
        return next((f for f in self.functions if f.name == name), None)


# -------------------------------------------------------------- pretty printer

_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5,
}


def expr_source(e: Node, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        s = str(e.value)
    elif isinstance(e, BoolLit):
        s = "true" if e.value else "false"
    elif isinstance(e, AddressLit):
        s = f"address({e.value})"
    elif isinstance(e, MsgSender):
        s = "msg.sender"
    elif isinstance(e, MsgValue):
        s = "msg.value"
    elif isinstance(e, Name):
        s = e.ident
    elif isinstance(e, Index):
        s = f"{e.ident}[{expr_source(e.key)}]"
    elif isinstance(e, Unary):
        s = f"!{expr_source(e.operand, 6)}"
        return s
    elif isinstance(e, Binary):
        p = _PREC[e.op]
        s = f"{expr_source(e.left, p)} {e.op} {expr_source(e.right, p + 1)}"
        if p < parent_prec:
            s = f"({s})"
        return s
    else:
        raise TypeError(f"not an expression node: {type(e).__name__}")
    return s


def _stmt_lines(s: Node, indent: str) -> list[str]:
    if isinstance(s, Require):
        return [f"{indent}require({expr_source(s.cond)});"]
    if isinstance(s, Emit):
        args = ", ".join(expr_source(a) for a in s.args)
        return [f"{indent}emit {s.event}({args});"]
    if isinstance(s, If):
        lines = [f"{indent}if ({expr_source(s.cond)}) {{"]
        for st in s.then:
            lines += _stmt_lines(st, indent + "    ")
        if s.orelse:
            lines.append(f"{indent}}} else {{")
            for st in s.orelse:
                lines += _stmt_lines(st, indent + "    ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, LocalDecl):
        return [f"{indent}{s.type} {s.name} = {expr_source(s.value)};"]
    if isinstance(s, Assign):
        return [f"{indent}{s.target} = {expr_source(s.value)};"]
    if isinstance(s, MapWrite):
        return [f"{indent}{s.target}[{expr_source(s.key)}] = {expr_source(s.value)};"]
    if isinstance(s, CallStmt):
        return [f"{indent}{s.result} = call({expr_source(s.target)});"]
    if isinstance(s, InternalCall):
        args = ", ".join(expr_source(a) for a in s.args)
        return [f"{indent}{s.name}({args});"]
    if isinstance(s, Revert):
        return [f"{indent}revert();"]
    if isinstance(s, Return):
        if s.value is None:
            return [f"{indent}return;"]
        return [f"{indent}return {expr_source(s.value)};"]
    raise TypeError(f"not a statement node: {type(s).__name__}")


def to_source(c: Contract) -> str:
    """Canonical text form; parsing it again gives an equal tree."""
    lines = [f"contract {c.name} {{"]
    for e in c.events:
        ps = ", ".join(
            f"{p.type} indexed {p.name}" if p.indexed else f"{p.type} {p.name}"
            for p in e.params)
        lines.append(f"    event {e.name}({ps});")
    if c.events and (c.state or c.functions):
        lines.append("")
    for s in c.state:
        if s.is_mapping:
            lines.append(f"    mapping({s.key_type} => {s.type}) {s.name};")
        else:
            lines.append(f"    {s.type} {s.name};")
    if c.state and c.functions:
        lines.append("")
    for i, f in enumerate(c.functions):
        ps = ", ".join(f"{p.type} {p.name}" for p in f.params)
        lines.append(f"    function {f.name}({ps}) {f.visibility} {{")
        for st in f.body:
            lines += _stmt_lines(st, "        ")
        lines.append("    }")
        if i + 1 < len(c.functions):
            lines.append("")
    lines.append("}")
    return "\n".join(lines) + "\n"
