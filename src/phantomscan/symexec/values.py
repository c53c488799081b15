"""Symbolic value terms produced by executing contract paths.

Terms are immutable and compare structurally.  Numbers are Literals,
atoms (FreeVar, CallerSym, ValueSym, CallSuccessSym, StorageSym) or an
`Affine`, the one arithmetic form: a constant plus (atom, coefficient)
pairs, sorted by `order_key` and none 0, that `arith` builds once by
merging its operands' pairs.  Formulas are `BinOp` comparisons between
two numbers as written, `BinOp` && || and == != between bools, and
`NotOp`.  A local reassigned over many statements nests formulas and
mapping keys that deep, and one that uses its own value twice shares
sub-terms, so no walk recurses and none goes twice through a shared
node.  A node keeps its digest, computed once from its children's,
which decides its hash and equality; `order_key` orders atoms by repr,
cut to a bounded length.  A term keeps its order key, atoms and renamed
copies once asked for them, since paths forked from one state share
their guards.

`tag` lets two runs of the same function coexist in one constraint
system: renaming appends the tag to every atomic symbol, so `amount@1`
and `amount@2` stay distinct while couplings tie them together.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, fields, replace
from hashlib import blake2b
from math import inf

from ..minisol.ast import ADDRESS_MAX, UINT_MAX

SORT_BOUNDS = {
    "uint": (0, UINT_MAX),
    "address": (0, ADDRESS_MAX),
    "bytes": (0, UINT_MAX),  # opaque blobs, compared only for identity
    "bool": (0, 1),
}

_TYPE_TO_SORT = {
    "uint256": "uint",
    "address": "address",
    "bool": "bool",
    "bytes": "bytes",
}


def sort_of_type(type_name: str) -> str:
    return _TYPE_TO_SORT[type_name]


@dataclass(frozen=True)
class SymValue:
    pass


@dataclass(frozen=True)
class Literal(SymValue):
    value: int
    sort: str = "uint"

    def __str__(self):
        if self.sort == "bool":
            return "true" if self.value else "false"
        if self.sort == "address":
            return f"address({self.value})"
        return str(self.value)


@dataclass(frozen=True)
class FreeVar(SymValue):
    name: str
    sort: str = "uint"
    tag: str = ""

    def __str__(self):
        return self.name + self.tag


@dataclass(frozen=True)
class CallerSym(SymValue):
    tag: str = ""
    sort: str = "address"

    def __str__(self):
        return "msg.sender" + self.tag


@dataclass(frozen=True)
class ValueSym(SymValue):
    tag: str = ""
    sort: str = "uint"

    def __str__(self):
        return "msg.value" + self.tag


@dataclass(frozen=True)
class CallSuccessSym(SymValue):
    """Result of an unconstrained external call."""

    site: str
    tag: str = ""
    sort: str = "bool"

    def __str__(self):
        return f"call({self.site})" + self.tag


class _Node(SymValue):
    """A term with sub-terms (`_kids`) and data of its own (`_data`)."""

    def __hash__(self):
        return hash(digest(self))

    def __eq__(self, other):
        return self is other or type(other) is type(self) and digest(self) == digest(other)

    def __repr__(self):
        return render(self, _repr_parts, repr)

    def __str__(self):
        return term_text(self)


@dataclass(frozen=True, eq=False, repr=False)
class StorageSym(_Node):
    """Contents of a storage slot before the path wrote to it."""

    var: str
    key: SymValue | None
    version: int  # 0: a read of a slot the path wrote returns the written value
    sort: str = "uint"
    tag: str = ""

    def _kids(self):
        return () if self.key is None else (self.key,)

    def _data(self):
        return self.var, self.key is None, self.version, self.sort, self.tag

    def _text(self):
        tail = f"#v{self.version}{self.tag}"
        return [self.var + tail] if self.key is None else [self.var + "[", self.key, "]" + tail]


@dataclass(frozen=True, eq=False, repr=False)
class Affine(_Node):
    """const + sum(c * atom) over the integers; built by `arith`."""

    terms: tuple[tuple[SymValue, int], ...]
    const: int = 0
    sort = "uint"

    def _kids(self):
        return tuple(s for s, _ in self.terms)

    def _data(self):
        return tuple(c for _, c in self.terms), self.const

    def _text(self):
        parts = []
        for s, c in self.terms:
            parts += [" - " if c < 0 else " + ", f"{abs(c)}*" if abs(c) != 1 else "", s]
        if self.const or not self.terms:
            parts += [" - " if self.const < 0 else " + ", str(abs(self.const))]
        parts[0] = "-" if parts[0] == " - " else ""
        return ["(", *parts, ")"]


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str  # == != < <= > >= && ||
    left: SymValue
    right: SymValue
    sort = "bool"

    def __post_init__(self):
        if self.op not in CMP_OPS and self.op not in BOOL_OPS:
            raise ValueError(f"not a comparison or connective: {self.op!r}")

    def _kids(self):
        return self.left, self.right

    def _data(self):
        return self.op

    def _text(self):
        return ["(", self.left, f" {self.op} ", self.right, ")"]


@dataclass(frozen=True, eq=False, repr=False)
class NotOp(_Node):
    operand: SymValue
    sort = "bool"

    def _kids(self):
        return (self.operand,)

    def _data(self):
        return ()

    def _text(self):
        return ["!", self.operand]


ATOMIC = (FreeVar, CallerSym, ValueSym, CallSuccessSym, StorageSym)

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*")
BOOL_OPS = ("&&", "||")


def is_formula(v: SymValue) -> bool:
    """A comparison or connective, as opposed to a bool atom or literal."""
    return isinstance(v, (BinOp, NotOp))


def linear(v: SymValue) -> tuple[tuple[tuple[SymValue, int], ...], int]:
    """The (pairs, constant) of a Literal, an atom or an Affine: equal
    numbers in any written order give equal results."""
    if isinstance(v, Affine):
        return v.terms, v.const
    if isinstance(v, Literal):
        return (), v.value
    if isinstance(v, ATOMIC):
        return ((v, 1),), 0
    raise TypeError(f"not a number: {v}")


def _pairs(pairs) -> tuple[tuple[SymValue, int], ...]:
    pairs = [(s, c) for s, c in pairs if c]
    if len(pairs) > 1:
        pairs.sort(key=lambda p: order_key(p[0]))
    return tuple(pairs)


def linear_sum(left: SymValue, right: SymValue, sign: int):
    """linear(left + sign * right): the two sides' sorted pairs merged."""
    (a, j), (b, k) = linear(left), linear(right)
    if sign != 1:
        b = tuple((s, sign * c) for s, c in b)
    if not (a and b):
        return a or b, j + sign * k
    out: list[tuple[SymValue, int]] = []
    for s, c in heapq.merge(a, b, key=lambda p: order_key(p[0])):
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + c)
        else:
            out.append((s, c))
    return tuple(p for p in out if p[1]), j + sign * k


def arith(op: str, left: SymValue, right: SymValue) -> Affine:
    """`left op right` for op one of + - *; a product needs a constant
    side, so every result is linear."""
    if op in ("+", "-"):
        return Affine(*linear_sum(left, right, 1 if op == "+" else -1))
    if op != "*":
        raise ValueError(f"not an arithmetic operator: {op!r}")
    (a, j), (b, k) = linear(left), linear(right)
    if a and b:
        raise ValueError(f"non-linear product: {left} * {right}")
    if a:
        b, j, k = a, k, j  # scale the side with pairs by the constant one
    return Affine(tuple((s, c * j) for s, c in b) if j else (), j * k)


# ------------------------------------------------------- walks without recursion

def _kids(v: SymValue) -> tuple:
    return v._kids() if isinstance(v, _Node) else ()


def digest(v: SymValue) -> bytes:
    """Equal terms, and only they (bar a 128-bit collision), have equal
    digests; a node's is hashed from its data and its kids' digests."""
    if not isinstance(v, _Node):
        return repr(v).encode()
    if "_digest" not in v.__dict__:  # the kids first
        fold(v, _store_digest, lambda x: [
            k for k in _kids(x) if isinstance(k, _Node) and "_digest" not in k.__dict__])
    return v._digest


def _store_digest(v: _Node, _) -> None:
    text = repr((type(v).__name__, v._data(), *map(digest, v._kids())))
    object.__setattr__(v, "_digest", blake2b(text.encode(), digest_size=16).digest())


_ORDER_TEXT = 1024


def order_key(v: SymValue) -> tuple[str, bytes]:
    """The key that orders atoms: the repr.  A key that reuses a sub-term
    writes it out each time, so the repr is cut after _ORDER_TEXT
    characters, and two cut reprs are ordered by digest."""
    key = v.__dict__.get("_order")
    if key is None:
        text = render(v, _repr_parts, repr, _ORDER_TEXT)[:_ORDER_TEXT]
        key = text, digest(v) if len(text) == _ORDER_TEXT else b""
        object.__setattr__(v, "_order", key)
    return key


def connective_kids(v: SymValue) -> tuple:
    """The operands of !, &&, || and of == / != with a formula side.  A
    == / != between bool atoms and literals compares them as 0/1
    numbers."""
    if isinstance(v, BinOp):
        if v.op in BOOL_OPS or is_formula(v.left) or is_formula(v.right):
            return v.left, v.right
        return ()
    return (v.operand,) if isinstance(v, NotOp) else ()


def fold(v: SymValue, combine, kids=_kids):
    """combine(node, results for its kids) for every distinct node of the
    term, children first, on an explicit stack."""
    top = kids(v)
    if not top:
        return combine(v, top)
    if not any(map(kids, top)):  # a node over leaves
        return combine(v, [combine(k, ()) for k in top])
    done: dict[int, object] = {}
    stack = [(v, top)]
    while stack:
        x, ks = stack[-1]
        todo = [k for k in ks if id(k) not in done]
        if todo:
            stack += [(k, kids(k)) for k in todo]
            continue
        stack.pop()
        if id(x) not in done:
            done[id(x)] = combine(x, [done[id(k)] for k in ks])
    return done[id(v)]


def render(v, parts, leaf, limit=inf) -> str:
    """Join the text of a term: parts(x) is None for a leaf, written as
    leaf(x), or a list of strings and values to render in turn.  Stops
    once the text has `limit` characters."""
    out: list[str] = []
    size = 0
    stack = [v]
    while stack and size < limit:
        x = stack.pop()
        if type(x) is not str:
            p = parts(x)
            if p is not None:
                stack += reversed(p)
                continue
            x = leaf(x)
        out.append(x)
        size += len(x)
    return "".join(out)


def term_text(v, limit=inf) -> str:
    """`str(v)`, or its first `limit` characters and a few more."""
    return render(v, lambda x: x._text() if isinstance(x, _Node) else None, str, limit)


def _repr_parts(x):
    """The dataclass `repr` of a node, one level at a time."""
    if isinstance(x, _Node):
        p = [type(x).__qualname__ + "("]
        for i, f in enumerate(fields(x)):
            v = getattr(x, f.name)
            p += [(", " if i else "") + f.name + "=", repr(v) if type(v) is str else v]
        return p + [")"]
    if type(x) is tuple:
        p = ["("]
        for i, item in enumerate(x):
            p += [", " if i else "", item]
        return p + [",)" if len(x) == 1 else ")"]
    return None


def rename(v: SymValue, tag: str) -> SymValue:
    """Append `tag` to every atomic symbol in the term."""
    def renamed(x, kids):
        if isinstance(x, Literal):
            return x
        if isinstance(x, StorageSym):
            return replace(x, tag=x.tag + tag, key=kids[0] if kids else None)
        if isinstance(x, ATOMIC):
            return replace(x, tag=x.tag + tag)
        if isinstance(x, Affine):
            # the tag can change the order
            return Affine(_pairs(zip(kids, (c for _, c in x.terms))), x.const)
        if isinstance(x, NotOp):
            return NotOp(*kids)
        return BinOp(x.op, *kids)
    name = "_renamed" + tag
    if name not in v.__dict__:
        object.__setattr__(v, name, fold(v, renamed))
    return v.__dict__[name]


def atoms(v: SymValue) -> frozenset[SymValue]:
    """Every atomic symbol in the term, including mapping keys."""
    if "_atoms" in v.__dict__:
        return v._atoms
    out: set[SymValue] = set()
    seen: set[int] = set()  # nodes shared within the term are walked once
    stack = [v]
    while stack:
        x = stack.pop()
        if isinstance(x, ATOMIC):
            out.add(x)
        if isinstance(x, _Node) and id(x) not in seen:
            seen.add(id(x))
            stack += x._kids()
    object.__setattr__(v, "_atoms", frozenset(out))
    return v._atoms


def input_atoms(v: SymValue) -> set[SymValue]:
    """Atoms that the transaction sender controls directly: function
    arguments, the sender address, the attached value.  Storage
    contents and call results are excluded, but symbols inside mapping
    keys count."""
    return {a for a in atoms(v) if isinstance(a, (FreeVar, CallerSym, ValueSym))}


_EVAL = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


def evaluate(v: SymValue, model: dict[SymValue, int]) -> int:
    """Concrete evaluation over the integers; bools are 0 or 1."""
    def value(x, kids):
        if isinstance(x, BinOp):
            a, b = kids or (_number(x.left, model), _number(x.right, model))
            return int(_EVAL[x.op](a, b))
        if isinstance(x, NotOp):
            return 0 if kids[0] else 1
        return _number(x, model)
    return fold(v, value, connective_kids)


def _number(x: SymValue, model: dict[SymValue, int]) -> int:
    if isinstance(x, Literal):
        return x.value
    if isinstance(x, Affine):
        return x.const + sum(c * model.get(s, 0) for s, c in x.terms)
    return model.get(x, 0)
