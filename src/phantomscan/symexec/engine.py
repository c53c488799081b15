"""Symbolic execution of contract functions and the two source-level
checks built on it.

Each entry function is unrolled into a set of straight-line paths.  A
path carries the conjunction of branch conditions and require guards
that let execution reach its end, every event emission with fully
evaluated arguments, and every storage write.  `require` failures and
`revert` terminate a path without recording its emissions, since a
reverted transaction publishes no logs.  The counterfeit check solves
first the part of a pair's query that the emitted arguments reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .._keccak import event_topic
from ..minisol import ast
from .solver import DEFAULT_NODE_BUDGET, SAT, UNSAT, solve
from .values import (
    ARITH_OPS,
    BinOp,
    CallerSym,
    CallSuccessSym,
    FreeVar,
    Literal,
    NotOp,
    StorageSym,
    SymValue,
    ValueSym,
    arith,
    atoms,
    evaluate,
    input_atoms,
    is_formula,
    linear,
    rename,
    sort_of_type,
)

INLINE_DEPTH = 4
MAX_PATHS = 128


@dataclass(frozen=True)
class EmitRecord:
    event: str
    args: tuple[SymValue, ...]


@dataclass(frozen=True)
class WriteRecord:
    var: str
    key: SymValue | None
    value: SymValue


@dataclass
class Path:
    conjuncts: tuple[SymValue, ...]
    emits: tuple[EmitRecord, ...]
    writes: tuple[WriteRecord, ...]
    truncated: bool


@dataclass
class PathSet:
    function: str
    paths: list[Path]
    truncated: bool  # some path hit the inline depth or the path cap


@dataclass
class SourceFinding:
    kind: str  # EVENT_COUNTERFEITING | INCONSISTENT_LOGGING
    event: str  # event signature
    topic0: str
    contract: str
    functions: tuple[str, ...]
    confidence: str  # CONFIRMED | INCOMPLETE
    detail: dict


def _slot(var: str, key: SymValue | None) -> tuple:
    """Where var[key] lives: a numeric key in its canonical linear form,
    so m[x + 1] and m[1 + x] are one slot; a bool formula as it is."""
    if key is None or is_formula(key):
        return var, key
    return var, linear(key)


class _State:
    def __init__(self):
        self.env: dict[str, SymValue] = {}
        # slot -> its value: the last write, or the StorageSym its first read made
        self.storage: dict[tuple, SymValue] = {}
        self.conjuncts: list[SymValue] = []
        self.emits: list[EmitRecord] = []
        self.writes: list[WriteRecord] = []
        self.truncated = False
        self.alive = True  # False once the path finished early
        self.reverted = False

    def fork(self) -> "_State":
        s = _State.__new__(_State)
        s.env = dict(self.env)
        s.storage = dict(self.storage)
        s.conjuncts = list(self.conjuncts)
        s.emits = list(self.emits)
        s.writes = list(self.writes)
        s.truncated = self.truncated
        s.alive = self.alive
        s.reverted = self.reverted
        return s


class _Executor:
    def __init__(self, contract: ast.Contract):
        self.contract = contract
        self.caller = CallerSym()
        self.msg_value = ValueSym()
        self.call_sites = itertools.count()
        self.capped = False

    # ----------------------------------------------------------- expressions

    def eval(self, e: ast.Node, st: _State) -> SymValue:
        if isinstance(e, ast.Lit):
            return Literal(e.value)
        if isinstance(e, ast.BoolLit):
            return Literal(int(e.value), "bool")
        if isinstance(e, ast.AddressLit):
            return Literal(e.value, "address")
        if isinstance(e, ast.MsgSender):
            return self.caller
        if isinstance(e, ast.MsgValue):
            return self.msg_value
        if isinstance(e, ast.Name):
            if e.ident in st.env:
                return st.env[e.ident]
            return self.read_storage(e.ident, None, st)
        if isinstance(e, ast.Index):
            return self.read_storage(e.ident, self.eval(e.key, st), st)
        if isinstance(e, ast.Unary):
            return NotOp(self.eval(e.operand, st))
        if isinstance(e, ast.Binary):
            left, right = self.eval(e.left, st), self.eval(e.right, st)
            if e.op in ARITH_OPS:
                return arith(e.op, left, right)
            return BinOp(e.op, left, right)
        raise TypeError(type(e).__name__)

    def read_storage(self, var: str, key: SymValue | None, st: _State) -> SymValue:
        slot = _slot(var, key)
        if slot not in st.storage:
            decl = self.contract.state_var(var)
            st.storage[slot] = StorageSym(var=var, key=key, version=0, sort=sort_of_type(decl.type))
        return st.storage[slot]

    def write_storage(self, var: str, key: SymValue | None, value: SymValue,
                      st: _State) -> None:
        slot = _slot(var, key)
        st.storage[slot] = value
        st.writes.append(WriteRecord(var=var, key=key, value=value))

    # ------------------------------------------------------------ statements

    def run_block(self, stmts, states: list[_State], depth: int) -> list[_State]:
        for s in stmts:
            nxt: list[_State] = []
            for st in states:
                if st.alive:
                    nxt.extend(self.step(s, st, depth))
                else:
                    nxt.append(st)
            states = nxt
            if len(states) > MAX_PATHS:
                self.capped = True
                states = states[:MAX_PATHS]
                for st in states:
                    st.truncated = True
        return states

    def step(self, s: ast.Node, st: _State, depth: int) -> list[_State]:
        c = self.contract
        if isinstance(s, ast.Require):
            st.conjuncts.append(self.eval(s.cond, st))
            return [st]
        if isinstance(s, ast.Emit):
            args = tuple(self.eval(a, st) for a in s.args)
            st.emits.append(EmitRecord(event=s.event, args=args))
            return [st]
        if isinstance(s, ast.If):
            cond = self.eval(s.cond, st)
            other = st.fork()
            st.conjuncts.append(cond)
            other.conjuncts.append(NotOp(cond))
            taken = self.run_block(s.then, [st], depth)
            skipped = self.run_block(s.orelse, [other], depth)
            return taken + skipped
        if isinstance(s, ast.LocalDecl):
            st.env[s.name] = self.eval(s.value, st)
            return [st]
        if isinstance(s, ast.Assign):
            value = self.eval(s.value, st)
            if s.target in st.env:
                st.env[s.target] = value
            else:
                self.write_storage(s.target, None, value, st)
            return [st]
        if isinstance(s, ast.MapWrite):
            self.write_storage(s.target, self.eval(s.key, st),
                               self.eval(s.value, st), st)
            return [st]
        if isinstance(s, ast.CallStmt):
            site = f"{s.span[0]}#{next(self.call_sites)}"
            st.env[s.result] = CallSuccessSym(site=site)
            return [st]
        if isinstance(s, ast.InternalCall):
            callee = c.function(s.name)
            if depth >= INLINE_DEPTH:
                st.truncated = True
                return [st]
            args = [self.eval(a, st) for a in s.args]
            saved_env = st.env
            st.env = {p.name: v for p, v in zip(callee.params, args)}
            out = self.run_block(callee.body, [st], depth + 1)
            for o in out:
                o.env = saved_env
            return out
        if isinstance(s, ast.Revert):
            st.alive = False
            st.reverted = True
            return [st]
        if isinstance(s, ast.Return):
            # value, if any, is irrelevant to logging behavior
            st.alive = False
            return [st]
        raise TypeError(type(s).__name__)


def search_paths(contract: ast.Contract, fn_name: str) -> PathSet:
    fn = contract.function(fn_name)
    if fn is None:
        raise KeyError(fn_name)
    ex = _Executor(contract)
    init = _State()
    init.env = {p.name: FreeVar(name=p.name, sort=sort_of_type(p.type))
                for p in fn.params}
    finals = ex.run_block(fn.body, [init], 0)
    paths = []
    for st in finals:
        if st.reverted:
            continue  # a reverted transaction publishes nothing
        paths.append(Path(
            conjuncts=tuple(st.conjuncts),
            emits=tuple(st.emits),
            writes=tuple(st.writes),
            truncated=st.truncated,
        ))
    truncated = ex.capped or any(p.truncated for p in paths)
    return PathSet(function=fn_name, paths=paths, truncated=truncated)


# ------------------------------------------------------------------- checks

def _validated_atoms(path: Path) -> set[SymValue]:
    out: set[SymValue] = set()
    for c in path.conjuncts:
        out |= input_atoms(c)
    for w in path.writes:
        if w.key is not None:
            out |= input_atoms(w.key)
        out |= input_atoms(w.value)
    return out


class _Topics(dict):
    """Event signature -> topic hash, each hashed on first use.  One
    lives for one analysis, so no hash outlives the call that made it."""

    def __missing__(self, signature: str) -> str:
        topic = self[signature] = event_topic(signature)
        return topic


def _inconsistent_logging(contract: ast.Contract, path_sets: list[PathSet],
                          topics: _Topics) -> list[SourceFinding]:
    """Emissions carrying sender-controlled values that the path neither
    constrains nor records in storage, one finding per entry, event and
    set of unvalidated arguments, in the order their first path is found."""
    findings: dict[tuple, SourceFinding] = {}
    for ps in path_sets:
        for path in ps.paths:
            if not path.emits:
                continue
            ok_atoms = _validated_atoms(path)
            for emit in path.emits:
                event = contract.event(emit.event)
                unvalidated: dict[str, list[str]] = {}
                for param, arg in zip(event.params, emit.args):
                    bad = input_atoms(arg) - ok_atoms
                    if bad:
                        unvalidated[param.name] = sorted(str(a) for a in bad)
                if not unvalidated:
                    continue
                key = (ps.function, emit.event,
                       tuple(sorted((k, tuple(v)) for k, v in unvalidated.items())))
                if key in findings:
                    findings[key].detail["paths"] += 1
                    continue
                findings[key] = SourceFinding(
                    kind="INCONSISTENT_LOGGING",
                    event=event.signature,
                    topic0=topics[event.signature],
                    contract=contract.name,
                    functions=(ps.function,),
                    confidence="INCOMPLETE" if ps.truncated else "CONFIRMED",
                    detail={"unvalidated": unvalidated, "paths": 1},
                )
    return list(findings.values())


def _arg_slice(path: Path, emit: EmitRecord) -> tuple[SymValue, ...]:
    """The path's conjuncts linked to the emitted arguments through shared
    atoms, closed transitively, and those with no atom, in path order."""
    cs = path.conjuncts
    reach = set().union(*map(atoms, emit.args))
    rest = {i for i, c in enumerate(cs) if atoms(c)}  # not linked yet
    while linked := {i for i in rest if not reach.isdisjoint(atoms(cs[i]))}:
        rest -= linked
        reach.update(*(atoms(cs[i]) for i in linked))
    return tuple(c for i, c in enumerate(cs) if i not in rest)


def _pair_query(c1, a1, c2, a2) -> list[SymValue]:
    """Conjuncts `c1` and `c2` renamed apart, and arguments `a1` equal `a2`."""
    return [rename(c, "@1") for c in c1] + [rename(c, "@2") for c in c2] + \
        [BinOp("==", rename(x, "@1"), rename(y, "@2")) for x, y in zip(a1, a2)]


def _counterfeit_pairs(contract: ast.Contract, path_sets: list[PathSet],
                       topics: _Topics) -> list[SourceFinding]:
    """Two entries that can emit byte-identical payloads of one event
    under compatible constraints, by event in the order first emitted.
    For each event and pair of entries, the first (path, path) pair in
    product order whose whole query is SAT gives the witness.  The sides
    are renamed apart, so a pair's core (both argument slices and the
    couplings) shares no atom with the rest of its query, and an UNSAT
    core rules the pair out.  A core is solved once per call, within a
    sixteenth of the node budget, where it is less than the whole query
    and one of its sides recurs."""
    emitters: dict[str, dict[str, list[tuple[Path, EmitRecord, tuple]]]] = {}
    uses: dict[tuple, int] = {}  # (argument slice, arguments) -> emissions
    truncated_fns: set[str] = set()
    for ps in path_sets:
        if ps.truncated:
            truncated_fns.add(ps.function)
        for path in ps.paths:
            for emit in path.emits:
                side = (_arg_slice(path, emit), emit.args)
                uses[side] = uses.get(side, 0) + 1
                emitters.setdefault(emit.event, {}).setdefault(ps.function, []) \
                        .append((path, emit, side))

    cores: dict[tuple, str] = {}  # (side1, side2) -> the core's verdict
    findings: list[SourceFinding] = []
    for event_name, by_fn in emitters.items():
        event = contract.event(event_name)
        for fn1, fn2 in itertools.combinations(sorted(by_fn), 2):
            hit = None
            for (p1, e1, k1), (p2, e2, k2) in itertools.product(by_fn[fn1], by_fn[fn2]):
                if (k1, k2) not in cores and uses[k1] + uses[k2] > 2 and \
                        len(k1[0]) + len(k2[0]) < len(p1.conjuncts) + len(p2.conjuncts):
                    cores[k1, k2] = solve(_pair_query(*k1, *k2), DEFAULT_NODE_BUDGET // 16)[0]
                if cores.get((k1, k2)) == UNSAT:
                    continue
                verdict, model = solve(_pair_query(p1.conjuncts, e1.args, p2.conjuncts, e2.args))
                if verdict == SAT:
                    witness = {
                        p.name: evaluate(rename(a, "@1"), model)
                        for p, a in zip(event.params, e1.args)
                    }
                    hit = witness
                    break
            if hit is None:
                continue
            confidence = "INCOMPLETE" if (fn1 in truncated_fns or
                                          fn2 in truncated_fns) else "CONFIRMED"
            findings.append(SourceFinding(
                kind="EVENT_COUNTERFEITING",
                event=event.signature,
                topic0=topics[event.signature],
                contract=contract.name,
                functions=(fn1, fn2),
                confidence=confidence,
                detail={"witness": hit},
            ))
    return findings


def analyze_source(contract: ast.Contract) -> list[SourceFinding]:
    """The source layer's findings on one contract: each entry's paths are
    searched once, and both checks read them.  Counterfeit pairs come
    first, then inconsistent logging, each in the order found;
    `report.merge` orders a report."""
    path_sets = [search_paths(contract, f.name) for f in contract.functions if f.is_entry]
    topics = _Topics()  # each event hashed at most once, whichever check finds it
    return (_counterfeit_pairs(contract, path_sets, topics)
            + _inconsistent_logging(contract, path_sets, topics))
