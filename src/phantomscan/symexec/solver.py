"""Bounded constraint solver for path conjunctions.

Formulas are conjunctions of linear comparisons over unsigned bounded
integers (uint256, address, bool as 0/1, bytes as opaque ids).  The
pipeline: normalize to atoms (conjunction splitting, negation pushing,
constant folding), then interval propagation inside a depth-first
search under a node budget.  The search fixes the narrowest open
variable to its lower bound first and splits the rest of a large range
in two; small domains are enumerated.  Propagation that cannot settle
(a cycle such as x < y, y < x) is decided by Fourier-Motzkin
elimination.

Verdicts are honest: SAT only with a model that re-evaluates every
original conjunct to true, UNSAT only when the search space was covered
completely, UNKNOWN otherwise (disjunctions, non-linear terms, budget
exhaustion, or a model that fails re-evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .values import (
    ARITH_OPS,
    ATOMIC,
    BOOL_OPS,
    CMP_OPS,
    SORT_BOUNDS,
    BinOp,
    Literal,
    NotOp,
    StorageSym,
    SymValue,
    atoms,
    evaluate,
    sort_of,
)

DEFAULT_NODE_BUDGET = 4096
ENUM_LIMIT = 64
ELIMINATION_PAIRS = 400

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class _Disjunction(Exception):
    pass


class _NonLinear(Exception):
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


def _linearize(v: SymValue) -> tuple[dict[SymValue, int], int]:
    if isinstance(v, Literal):
        return {}, v.value
    if isinstance(v, ATOMIC):
        if sort_of(v) == "bool":
            # bool atoms participate as 0/1 integers
            return {v: 1}, 0
        return {v: 1}, 0
    if isinstance(v, BinOp) and v.op in ("+", "-"):
        lc, lk = _linearize(v.left)
        rc, rk = _linearize(v.right)
        sign = 1 if v.op == "+" else -1
        out = dict(lc)
        for s, c in rc.items():
            out[s] = out.get(s, 0) + sign * c
        return {s: c for s, c in out.items() if c}, lk + sign * rk
    if isinstance(v, BinOp) and v.op == "*":
        lc, lk = _linearize(v.left)
        rc, rk = _linearize(v.right)
        if not lc:
            factor, coeffs, k = lk, rc, rk
        elif not rc:
            factor, coeffs, k = rk, lc, lk
        else:
            raise _NonLinear
        return {s: c * factor for s, c in coeffs.items() if c * factor}, k * factor
    raise _NonLinear


_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

_TO_ATOM = {
    # canonical form of  L op R  as  L - R  relation with 0
    "==": ("eq", 0), "!=": ("ne", 0),
    "<": ("lt", 0), "<=": ("le", 0),
    ">": ("lt", 1), ">=": ("le", 1),  # swap sides
}


def _normalize(conjunct: SymValue, positive: bool, out: list[_Atom]) -> None:
    if isinstance(conjunct, NotOp):
        _normalize(conjunct.operand, not positive, out)
        return
    if isinstance(conjunct, Literal):
        truthy = bool(conjunct.value)
        if truthy != positive:
            raise _Contradiction
        return
    if isinstance(conjunct, BinOp) and conjunct.op in BOOL_OPS:
        is_and = (conjunct.op == "&&") == positive
        if is_and:
            _normalize(conjunct.left, positive, out)
            _normalize(conjunct.right, positive, out)
            return
        # a genuine disjunction: give up rather than approximate,
        # unless one side folds to a constant
        for side, other in ((conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left)):
            if not atoms(side):
                if bool(evaluate(side, {})) == positive:
                    return  # this side already satisfies the disjunct
                _normalize(other, positive, out)
                return
        raise _Disjunction
    if isinstance(conjunct, BinOp) and conjunct.op in CMP_OPS:
        op = conjunct.op if positive else _NEGATED[conjunct.op]
        kind, swap = _TO_ATOM[op]
        left, right = (conjunct.right, conjunct.left) if swap else \
                      (conjunct.left, conjunct.right)
        lc, lk = _linearize(left)
        rc, rk = _linearize(right)
        coeffs = dict(lc)
        for s, c in rc.items():
            coeffs[s] = coeffs.get(s, 0) - c
        coeffs = {s: c for s, c in coeffs.items() if c}
        out.append(_Atom(tuple(sorted(coeffs.items(), key=lambda kv: repr(kv[0]))),
                         lk - rk, kind))
        return
    if isinstance(conjunct, ATOMIC) and sort_of(conjunct) == "bool":
        want = 1 if positive else 0
        out.append(_Atom(((conjunct, 1),), -want, "eq"))
        return
    raise _NonLinear


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

        width, sym = min(open_syms, key=lambda p: (p[0], repr(p[1])))
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
            if a.var != b.var or a.tag != b.tag or a.version != b.version:
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
    try:
        for c in conjuncts:
            _normalize(c, True, atoms_)
    except _Contradiction:
        return UNSAT, None
    except (_Disjunction, _NonLinear):
        return UNKNOWN, None

    for a in atoms_:
        if not a.coeffs and not a.holds({}):
            return UNSAT, None
    atoms_ = [a for a in atoms_ if a.coeffs]

    # same linear form under incompatible relations: contradictory
    # without any search (catches x == y alongside x != y over domains
    # far too large to enumerate)
    kinds: dict[tuple, set[str]] = {}
    for a in atoms_:
        kinds.setdefault((a.coeffs, a.const), set()).add(a.op)
    for ops in kinds.values():
        if ("eq" in ops and "ne" in ops) or ("eq" in ops and "lt" in ops):
            return UNSAT, None

    bounds: dict[SymValue, tuple[int, int]] = {}
    for a in atoms_:
        for s, _ in a.coeffs:
            bounds.setdefault(s, SORT_BOUNDS[sort_of(s)])

    result = _search(atoms_, bounds, node_budget)
    if result == "unsat":
        return UNSAT, None
    if result == "budget":
        return UNKNOWN, None

    model = result
    # storage atoms inside keys may not be tracked: give them entries
    for c in conjuncts:
        for s in atoms(c):
            model.setdefault(s, SORT_BOUNDS[sort_of(s)][0])
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
    return f"|{s}|"


_SMT_CMP = {"<": "bvult", "<=": "bvule", ">": "bvugt", ">=": "bvuge"}
_SMT_ARITH = {"+": "bvadd", "-": "bvsub", "*": "bvmul"}


def _smt_term(v: SymValue, width: int) -> str:
    """Render a numeric term at the requested bit width."""
    if isinstance(v, Literal):
        return f"(_ bv{v.value} {width})"
    if isinstance(v, ATOMIC):
        own = _SORT_WIDTH[sort_of(v)]
        name = _smt_name(v)
        if own < width:
            return f"((_ zero_extend {width - own}) {name})"
        return name
    if isinstance(v, BinOp) and v.op in ARITH_OPS:
        return (f"({_SMT_ARITH[v.op]} {_smt_term(v.left, width)} "
                f"{_smt_term(v.right, width)})")
    raise TypeError(f"not a numeric term: {v}")


def _term_width(v: SymValue) -> int:
    if isinstance(v, Literal):
        return _SORT_WIDTH.get(v.sort, 256)
    if isinstance(v, ATOMIC):
        return _SORT_WIDTH[sort_of(v)]
    if isinstance(v, BinOp) and v.op in ARITH_OPS:
        return max(_term_width(v.left), _term_width(v.right))
    return 256


def _smt_formula(v: SymValue) -> str:
    if isinstance(v, Literal) and sort_of(v) == "bool":
        return "true" if v.value else "false"
    if isinstance(v, ATOMIC) and sort_of(v) == "bool":
        return _smt_name(v)
    if isinstance(v, NotOp):
        return f"(not {_smt_formula(v.operand)})"
    if isinstance(v, BinOp) and v.op in BOOL_OPS:
        word = "and" if v.op == "&&" else "or"
        return f"({word} {_smt_formula(v.left)} {_smt_formula(v.right)})"
    if isinstance(v, BinOp) and v.op in CMP_OPS:
        if sort_of(v.left) == "bool" and sort_of(v.right) == "bool":
            inner = f"(= {_smt_formula(v.left)} {_smt_formula(v.right)})"
            return inner if v.op == "==" else f"(not {inner})"
        w = max(_term_width(v.left), _term_width(v.right))
        l, r = _smt_term(v.left, w), _smt_term(v.right, w)
        if v.op == "==":
            return f"(= {l} {r})"
        if v.op == "!=":
            return f"(not (= {l} {r}))"
        return f"({_SMT_CMP[v.op]} {l} {r})"
    raise TypeError(f"not a formula: {v}")


def export_smtlib(conjuncts: list[SymValue]) -> str:
    """SMT-LIB 2 rendering of the conjunction, for external solvers."""
    declared: dict[str, str] = {}
    for c in conjuncts:
        for s in sorted(atoms(c), key=str):
            declared.setdefault(_smt_name(s), _smt_sort(sort_of(s)))
    lines = ["(set-logic QF_BV)"]
    for name in sorted(declared):
        lines.append(f"(declare-const {name} {declared[name]})")
    for c in conjuncts:
        lines.append(f"(assert {_smt_formula(c)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
