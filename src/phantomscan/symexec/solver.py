"""Bounded constraint solver for path conjunctions.

Formulas are conjunctions of linear comparisons over unsigned bounded
integers (uint256, address, bool as 0/1, bytes as opaque ids).  The
pipeline: normalize to atoms (conjunction splitting, negation pushing,
constant folding; a comparison's atom is the difference of its two
already linear sides), then interval propagation inside a depth-first
search under a node budget.  The search fixes the narrowest open
variable to its lower bound first and splits the rest of a large range
in two; small domains are enumerated.  Propagation that cannot settle
(a cycle such as x < y, y < x) is decided by Fourier-Motzkin
elimination.

Verdicts are honest: SAT only with a model that re-evaluates every
original conjunct to true, UNSAT only when the search space was covered
completely, UNKNOWN otherwise: a disjunction, a bool == or != between
formulas (neither with a constant side), node budget exhaustion, or a
model that fails re-evaluation.  Non-linear terms cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .values import (
    ATOMIC,
    BOOL_OPS,
    SORT_BOUNDS,
    Affine,
    BinOp,
    Literal,
    NotOp,
    StorageSym,
    SymValue,
    atoms,
    connective_kids,
    digest,
    evaluate,
    linear_sum,
    order_key,
    render,
    term_text,
)

DEFAULT_NODE_BUDGET = 4096
ENUM_LIMIT = 64
ELIMINATION_PAIRS = 400

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class _Disjunction(Exception):
    pass


class _Contradiction(Exception):
    pass


# (coeffs, const, op) with op one of "eq" "ne" "le" "lt", meaning
# sum(coeffs[s] * s) + const  OP  0
@dataclass(frozen=True)
class _Atom:
    coeffs: tuple[tuple[SymValue, int], ...]
    const: int
    op: str

    def holds(self, model: dict[SymValue, int]) -> bool:
        total = self.const + sum(c * model[s] for s, c in self.coeffs)
        if self.op == "eq":
            return total == 0
        if self.op == "ne":
            return total != 0
        if self.op == "le":
            return total <= 0
        return total < 0


# L op R, and its negation, as (op, swap): L - R op 0, or R - L op 0
# when swapped
_TO_ATOM = {
    "==": (("eq", False), ("ne", False)), "!=": (("ne", False), ("eq", False)),
    "<": (("lt", False), ("le", True)), "<=": (("le", False), ("lt", True)),
    ">": (("lt", True), ("le", False)), ">=": (("le", True), ("lt", False)),
}


def _normalize(conjunct: SymValue, out: list[_Atom], seen: set[tuple[int, bool]]) -> None:
    """Append the atoms of one conjunct.  Negations are pushed down and
    conjunctions split on an explicit stack of (formula, polarity); a
    conjunction already in `seen` adds nothing, so one whose parts are
    shared is split once per part, not once per path to it."""
    stack = [(conjunct, True)]
    while stack:
        v, positive = stack.pop()
        if isinstance(v, NotOp):
            stack.append((v.operand, not positive))
        elif isinstance(v, Literal):
            if bool(v.value) != positive:
                raise _Contradiction
        elif isinstance(v, ATOMIC) and v.sort == "bool":
            out.append(_Atom(((v, 1),), -1 if positive else 0, "eq"))
        elif not isinstance(v, BinOp):
            raise TypeError(f"not a formula: {v}")
        elif v.op in BOOL_OPS and (v.op == "&&") == positive:
            if (id(v), positive) not in seen:
                seen.add((id(v), positive))
                stack += ((v.right, positive), (v.left, positive))
        elif connective_kids(v):
            # a genuine disjunction, or a bool == / != (one in disguise):
            # give up rather than approximate, unless one side folds to
            # a constant
            side = next((s for s in (v.left, v.right) if not atoms(s)), None)
            if side is None:
                raise _Disjunction
            other = v.right if side is v.left else v.left
            value = bool(evaluate(side, {}))
            if v.op not in BOOL_OPS:
                stack.append((other, value == ((v.op == "==") == positive)))
            elif value != positive:  # this side does not settle it
                stack.append((other, positive))
        else:
            op, swap = _TO_ATOM[v.op][not positive]
            left, right = (v.right, v.left) if swap else (v.left, v.right)
            out.append(_Atom(*linear_sum(left, right, -1), op))


def _cdiv_ceil(a: int, b: int) -> int:
    return -((-a) // b)


def _add_row(rows: dict[tuple[int, ...], int], coeffs: list[int], k: int) -> bool:
    """Add the row sum(coeffs[i] * s_i) + k <= 0, divided by the gcd of
    its coefficients with k rounded up, which every integer solution
    still satisfies.  True when the row has no variables left and is
    false: 0 + k <= 0 with k > 0."""
    g = reduce(gcd, coeffs, 0)
    if g == 0:
        return k > 0
    key = tuple(c // g for c in coeffs)
    k = -(-k // g)
    if rows.get(key, k) <= k:
        rows[key] = k
    return False


def _eliminated_to_contradiction(atoms_: list[_Atom],
                                 bounds: dict[SymValue, tuple[int, int]]) -> bool:
    """Fourier-Motzkin elimination over the atoms and bounds ("ne" atoms
    aside).  True proves that no integer point satisfies them: the
    typical case is a negative cycle of differences, x < y with y < x,
    through which propagation tightens by a constant per sweep.  False
    means no proof, also when a variable would combine more than
    ELIMINATION_PAIRS pairs of rows."""
    syms = list(bounds)
    rows: dict[tuple[int, ...], int] = {}
    for a in atoms_:
        if a.op == "ne":
            continue
        coeffs = [0] * len(syms)
        for s, c in a.coeffs:
            coeffs[syms.index(s)] = c
        _add_row(rows, coeffs, a.const + (a.op == "lt"))
        if a.op == "eq":
            _add_row(rows, [-c for c in coeffs], -a.const)
    for i, s in enumerate(syms):
        lo, hi = bounds[s]
        unit = [0] * len(syms)
        unit[i] = 1
        _add_row(rows, unit, -hi)
        _add_row(rows, [-c for c in unit], lo)

    def pairs(i: int) -> int:
        return sum(c[i] > 0 for c in rows) * sum(c[i] < 0 for c in rows)

    todo = set(range(len(syms)))
    while todo:
        i = min(todo, key=lambda j: (pairs(j), j))
        todo.discard(i)
        if pairs(i) > ELIMINATION_PAIRS:
            return False
        pos = [(c, k) for c, k in rows.items() if c[i] > 0]
        neg = [(c, k) for c, k in rows.items() if c[i] < 0]
        rows = {c: k for c, k in rows.items() if c[i] == 0}
        for cp, kp in pos:
            for cn, kn in neg:
                m, n = -cn[i], cp[i]
                if _add_row(rows, [m * x + n * y for x, y in zip(cp, cn)], m * kp + n * kn):
                    return True
    return False


def _propagate(atoms_: list[_Atom],
               bounds: dict[SymValue, tuple[int, int]]) -> bool:
    """Tighten bounds to a fixpoint.  False means contradiction.

    A cycle of atoms such as x < y, y < x tightens bounds by a constant
    per sweep and never settles, so when the sweeps run out without a
    fixpoint, elimination decides instead."""
    for _ in range(200):
        changed = False
        for a in atoms_:
            if a.op == "ne":
                # decided as soon as its variables are fixed, not at a leaf
                fixed = {s: bounds[s][0] for s, _ in a.coeffs
                         if bounds[s][0] == bounds[s][1]}
                if len(fixed) == len(a.coeffs) and not a.holds(fixed):
                    return False
                continue
            for s, c in a.coeffs:
                rmin = a.const
                rmax = a.const
                for t, ct in a.coeffs:
                    if t is s or t == s:
                        continue
                    lo, hi = bounds[t]
                    rmin += ct * lo if ct > 0 else ct * hi
                    rmax += ct * hi if ct > 0 else ct * lo
                lo, hi = bounds[s]
                slack = 0 if a.op in ("le", "eq") else 1
                # need: c*s + R + slack <= 0 for some feasible R
                if a.op in ("le", "lt", "eq"):
                    if c > 0:
                        new_hi = (-rmin - slack) // c
                        if new_hi < hi:
                            hi = new_hi
                            changed = True
                    else:
                        new_lo = _cdiv_ceil(-rmin - slack, c)
                        if new_lo > lo:
                            lo = new_lo
                            changed = True
                if a.op == "eq":
                    # also need c*s + R >= 0 for some feasible R
                    if c > 0:
                        new_lo = _cdiv_ceil(-rmax, c)
                        if new_lo > lo:
                            lo = new_lo
                            changed = True
                    else:
                        new_hi = -rmax // c
                        if new_hi < hi:
                            hi = new_hi
                            changed = True
                if lo > hi:
                    return False
                bounds[s] = (lo, hi)
        if not changed:
            return True
    return not _eliminated_to_contradiction(atoms_, bounds)


def _search(atoms_: list[_Atom], bounds: dict[SymValue, tuple[int, int]],
            budget: int):
    """Depth-first search over an explicit stack of bounds maps, one node
    per pop.  Returns a model dict, "unsat", or "budget".

    The narrowest open variable is split lower-bound first: a wide range
    lo..hi becomes lo, lo+1..mid, mid+1..hi, and an enumerable one its
    values in order.  The children cover exactly their parent's range,
    so an emptied stack means the space was covered completely."""
    stack = [bounds]
    while stack:
        if budget <= 0:
            return "budget"
        budget -= 1
        bounds = stack.pop()
        if not _propagate(atoms_, bounds):
            continue

        open_syms = [(hi - lo, s) for s, (lo, hi) in bounds.items() if lo < hi]
        if not open_syms:
            model = {s: lo for s, (lo, _) in bounds.items()}
            if all(a.holds(model) for a in atoms_):
                return model
            continue

        width, sym = min(open_syms, key=lambda p: (p[0], order_key(p[1])))
        lo, hi = bounds[sym]
        if width + 1 <= ENUM_LIMIT:
            pieces = [(v, v) for v in range(lo, hi + 1)]
        else:
            mid = (lo + hi) // 2
            pieces = [(lo, lo), (lo + 1, mid), (mid + 1, hi)]
        for piece in reversed(pieces):
            stack.append({**bounds, sym: piece})
    return "unsat"


def _storage_consistent(model: dict[SymValue, int]) -> bool:
    """Within one execution (same tag), equal keys into one mapping must
    read equal values."""
    slots: list[StorageSym] = [s for s in model if isinstance(s, StorageSym)]
    for i, a in enumerate(slots):
        for b in slots[i + 1:]:
            if a.var != b.var or a.tag != b.tag:
                continue
            if (a.key is None) != (b.key is None):
                continue
            if a.key is not None and evaluate(a.key, model) != evaluate(b.key, model):
                continue
            if model[a] != model[b]:
                return False
    return True


def solve(conjuncts: list[SymValue],
          node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[str, dict | None]:
    """Decide a conjunction.  Returns (verdict, model|None)."""
    atoms_: list[_Atom] = []
    seen: set[tuple[int, bool]] = set()
    try:
        for c in conjuncts:
            _normalize(c, atoms_, seen)
    except _Contradiction:
        return UNSAT, None
    except _Disjunction:
        return UNKNOWN, None

    for a in atoms_:
        if not a.coeffs and not a.holds({}):
            return UNSAT, None
    atoms_ = [a for a in atoms_ if a.coeffs]

    # an equality fixes its linear form, up to a factor, to one value, and
    # every atom over that form must hold there: contradictory without any
    # search (catches x == y alongside x != y, x > y or 2x == 2y + 2, over
    # domains far too large to enumerate)
    forms: dict[tuple, list[tuple[int, _Atom]]] = {}
    for a in atoms_:
        g = reduce(gcd, (c for _, c in a.coeffs)) * (1 if a.coeffs[0][1] > 0 else -1)
        forms.setdefault(tuple((s, c // g) for s, c in a.coeffs), []).append((g, a))
    for group in forms.values():
        for g, a in group:
            if a.op == "eq" and (a.const % g or not all(
                    _Atom((), h * (-a.const // g) + b.const, b.op).holds({}) for h, b in group)):
                return UNSAT, None

    bounds: dict[SymValue, tuple[int, int]] = {}
    for a in atoms_:
        for s, _ in a.coeffs:
            bounds.setdefault(s, SORT_BOUNDS[s.sort])

    result = _search(atoms_, bounds, node_budget)
    if result == "unsat":
        return UNSAT, None
    if result == "budget":
        return UNKNOWN, None

    model = result
    # storage atoms inside keys may not be tracked: give them entries
    for c in conjuncts:
        for s in atoms(c):
            model.setdefault(s, SORT_BOUNDS[s.sort][0])
    if not all(bool(evaluate(c, model)) for c in conjuncts):
        return UNKNOWN, None
    if not _storage_consistent(model):
        return UNKNOWN, None
    return SAT, model


# ----------------------------------------------------------------- SMT export

_SORT_WIDTH = {"uint": 256, "address": 160, "bytes": 256}


def _smt_sort(sort: str) -> str:
    if sort == "bool":
        return "Bool"
    return f"(_ BitVec {_SORT_WIDTH[sort]})"


def _smt_name(s: SymValue) -> str:
    """`|text|`, or a digest for a storage atom whose text a quoted symbol
    cannot hold (`|`, `\\`) or runs past 1,024 characters (shared keys)."""
    if not isinstance(s, StorageSym):
        return f"|{s}|"
    name = term_text(s, 1025)
    if len(name) > 1024 or "|" in name or "\\" in name:
        name = f"{s.var}[#{digest(s).hex()}]#v{s.version}{s.tag}"
    return f"|{name}|"


_SMT_BOOL = {"&&": "and", "||": "or"}
_SMT_CMP = {"<": "bvult", "<=": "bvule", ">": "bvugt", ">=": "bvuge"}


def _smt_term(v: SymValue, width: int) -> str:
    """Render a number at the requested bit width: an Affine as the sum
    of its positive parts, from which the negative ones are subtracted."""
    if v.sort == "bool":
        return _smt_leaf(v)
    if isinstance(v, Literal):
        return f"(_ bv{v.value} {width})"
    if isinstance(v, Affine):
        text = None
        for s, c in sorted((*v.terms, (None, v.const)), key=lambda p: p[1] <= 0):
            n = abs(c) % (1 << width)
            part = f"(_ bv{n} {width})" if s is None else _smt_term(s, width)
            if n > 1 and s is not None:
                part = f"(bvmul (_ bv{n} {width}) {part})"
            if n and text is None and c > 0:
                text = part
            elif n:
                text = f"({'bvadd' if c > 0 else 'bvsub'} {text or f'(_ bv0 {width})'} {part})"
        return text or f"(_ bv0 {width})"
    own = _SORT_WIDTH[v.sort]
    name = _smt_name(v)
    if own < width:
        return f"((_ zero_extend {width - own}) {name})"
    return name


def _term_width(v: SymValue) -> int:
    if isinstance(v, (Literal, *ATOMIC)):
        return _SORT_WIDTH.get(v.sort, 256)
    return 256


def _smt_leaf(x: SymValue) -> str:
    """A bool literal or atom, or a comparison between numbers."""
    if x.sort == "bool" and isinstance(x, Literal):
        return "true" if x.value else "false"
    if x.sort == "bool" and isinstance(x, ATOMIC):
        return _smt_name(x)
    if not isinstance(x, BinOp):
        raise TypeError(f"not a formula: {x}")
    w = max(_term_width(x.left), _term_width(x.right))
    l, r = _smt_term(x.left, w), _smt_term(x.right, w)
    if x.op == "==":
        return f"(= {l} {r})"
    if x.op == "!=":
        return f"(not (= {l} {r}))"
    return f"({_SMT_CMP[x.op]} {l} {r})"


def _smt_parts(x: SymValue) -> list | None:
    if isinstance(x, NotOp):
        return ["(not ", x.operand, ")"]
    if not connective_kids(x):
        return None
    if x.op == "!=":
        return ["(not (= ", x.left, " ", x.right, "))"]
    return [f"({_SMT_BOOL.get(x.op, '=')} ", x.left, " ", x.right, ")"]


def _smt_formula(c: SymValue) -> str:
    """One asserted formula.  A node reached more than once is written
    once, as a `let` around the formula, so the text grows with the
    number of distinct nodes rather than with the paths to them."""
    seen: dict[int, int] = {}  # id -> times reached
    order: list[SymValue] = []  # distinct nodes, children first
    stack: list[tuple[SymValue, bool]] = [(c, False)]
    while stack:
        x, done = stack.pop()
        if done:
            order.append(x)
        elif id(x) in seen:
            seen[id(x)] += 1
        else:
            seen[id(x)] = 1
            stack.append((x, True))
            stack += [(k, False) for k in reversed(_smt_parts(x) or ()) if type(k) is not str]
    names: dict[int, str] = {}

    def text(x: SymValue) -> str:
        return render(x, lambda y: None if id(y) in names else _smt_parts(y),
                      lambda y: names.get(id(y)) or _smt_leaf(y))

    lets = []
    for x in order:
        if seen[id(x)] > 1 and not isinstance(x, (Literal, *ATOMIC)):
            lets.append(f"(let ((?s{len(names)} {text(x)})) ")
            names[id(x)] = f"?s{len(names)}"
    return "".join(lets) + text(c) + ")" * len(lets)


def export_smtlib(conjuncts: list[SymValue]) -> str:
    """SMT-LIB 2 rendering of the conjunction, for external solvers."""
    declared: dict[str, str] = {}
    for c in conjuncts:
        for name, sort in sorted((_smt_name(s), _smt_sort(s.sort)) for s in atoms(c)):
            declared.setdefault(name, sort)
    lines = ["(set-logic QF_BV)"]
    for name in sorted(declared):
        lines.append(f"(declare-const {name} {declared[name]})")
    for c in conjuncts:
        lines.append(f"(assert {_smt_formula(c)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
