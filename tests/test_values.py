"""Symbolic terms: affine arithmetic built once, checked against an
integer evaluator that knows nothing of the engine, and walks that do
not recurse on term depth."""

import operator
import random

import pytest

from phantomscan import minisol
from phantomscan.minisol import ast
from phantomscan.symexec import SAT, UNKNOWN, UNSAT, export_smtlib, solve
from phantomscan.symexec.engine import _Executor, _State
from phantomscan.symexec.values import (
    Affine,
    BinOp,
    FreeVar,
    Literal,
    NotOp,
    StorageSym,
    arith,
    atoms,
    evaluate,
    order_key,
    rename,
)

X, Y = FreeVar(name="x"), FreeVar(name="y")

_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def ast_value(e: ast.Node, env: dict[str, int]) -> int:
    """The integer value of a minisol expression tree of literals,
    names, + - * and comparisons."""
    if isinstance(e, ast.Lit):
        return e.value
    if isinstance(e, ast.Name):
        return env[e.ident]
    return int(_OPS[e.op](ast_value(e.left, env), ast_value(e.right, env)))


def _number(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice(["a", "b", "c", str(rng.randint(0, 20)), str(2**rng.randint(0, 255))])
    if kind == 1:
        return f"{rng.randint(0, 5)} * ({_number(rng, depth - 1)})"
    if kind == 2:
        return f"({_number(rng, depth - 1)}) * {rng.randint(0, 5)}"
    return f"({_number(rng, depth - 1)}) {rng.choice('+-')} ({_number(rng, depth - 1)})"


def _case(rng: random.Random) -> ast.Node:
    """One random expression over three locals, as a parsed tree."""
    if rng.random() < 0.5:
        text = f"uint256 t = {_number(rng, 4)};"
    else:
        cmp = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        text = f"require({_number(rng, 3)} {cmp} {_number(rng, 3)});"
    contract = minisol.load(
        "contract C { function f(uint256 a, uint256 b, uint256 c) external { "
        + text + " } }")
    stmt = contract.functions[0].body[0]
    return stmt.value if isinstance(stmt, ast.LocalDecl) else stmt.cond


def test_engine_terms_match_an_independent_evaluator_on_1000_expressions():
    rng = random.Random(20261018)
    executor = _Executor(minisol.load("contract C { }"))
    names = {n: FreeVar(name=n) for n in "abc"}
    for i in range(1000):
        e = _case(rng)
        st = _State()
        st.env = dict(names)
        term = executor.eval(e, st)
        assert isinstance(term, (Affine, BinOp, FreeVar, Literal)), i
        for _ in range(3):
            env = {n: rng.choice([0, 1, rng.randint(0, 1000), 2**256 - 1 - rng.randint(0, 9)])
                   for n in "abc"}
            model = {names[n]: v for n, v in env.items()}
            assert evaluate(term, model) == ast_value(e, env), (i, ast.expr_source(e), env)


class TestAffine:
    def test_sums_merge_into_one_canonical_form(self):
        assert arith("+", arith("+", X, Literal(1)), Y) == arith("+", Y, arith("+", Literal(1), X))
        assert arith("-", arith("*", Literal(2), X), X) == Affine(((X, 1),))
        assert arith("-", X, X) == Affine(())
        assert arith("+", X, Y).terms == ((X, 1), (Y, 1))  # ordered by repr

    def test_a_reassigned_sum_stays_flat(self):
        t = X
        for _ in range(10_000):
            t = arith("+", t, Literal(1))
        assert t == Affine(((X, 1),), 10_000)

    def test_nonlinear_and_arithmetic_binop_are_rejected(self):
        with pytest.raises(ValueError, match="non-linear"):
            arith("*", arith("+", X, Literal(1)), Y)
        with pytest.raises(ValueError):
            BinOp("+", X, Y)
        with pytest.raises(TypeError, match="not a number"):
            arith("+", BinOp(">", X, Literal(1)), Literal(3))

    def test_smt_export_subtracts_negative_parts(self):
        text = export_smtlib([BinOp("<", arith("-", X, arith("*", Literal(3), Y)), Literal(4))])
        assert "(bvult (bvsub |x| (bvmul (_ bv3 256) |y|)) (_ bv4 256))" in text


class TestBoolEquality:
    def test_iff_with_a_constant_side_is_decided(self):
        big = BinOp(">", X, Literal(2))
        verdict, model = solve([BinOp("==", big, Literal(1, "bool"))])
        assert verdict == SAT and model[X] == 3
        verdict, model = solve([BinOp("!=", Literal(1, "bool"), big), BinOp("<=", X, Literal(9))])
        assert verdict == SAT and model[X] == 0

    def test_iff_between_open_formulas_is_unknown(self):
        verdict, _ = solve([BinOp("==", BinOp(">", X, Literal(2)), BinOp("<", Y, Literal(3)))])
        assert verdict == UNKNOWN

    def test_bool_atoms_compare_as_numbers(self):
        # two bool atoms, as when two entries emit a bool argument: 0/1
        # numbers, decided without a split
        a, b = FreeVar(name="a", sort="bool"), FreeVar(name="b", sort="bool")
        verdict, model = solve([BinOp("==", a, b), BinOp("!=", a, Literal(0, "bool"))])
        assert verdict == SAT and model[a] == model[b] == 1
        assert solve([BinOp("!=", a, b), BinOp("==", a, b)])[0] == UNSAT
        assert "(assert (not (= |a| |b|)))" in export_smtlib([BinOp("!=", a, b)])


class TestDeepTerms:
    """Formulas and mapping keys as deep as a 10,000-statement chain."""

    def test_negation_and_conjunction_chains(self):
        b = BinOp(">", X, Literal(1))
        nots, ands = b, b
        for i in range(10_000):
            nots = NotOp(nots)
            ands = BinOp("&&", ands, BinOp(">", X, Literal(i % 7)))
        assert solve([nots])[0] == SAT and solve([ands])[0] == SAT
        for term in (nots, ands):
            again = rename(term, "")  # equal, but built anew
            assert again is not term and again == term and hash(again) == hash(term)
            assert rename(term, "@1") != term
            assert atoms(term) == {X}
            assert len(repr(term)) > 10_000 and len(str(term)) > 10_000
            assert export_smtlib([term]).count("(") > 10_000

    def test_shared_subterms_are_walked_once(self):
        shared = BinOp(">", X, Literal(1))
        for _ in range(200):  # 2^200 leaves as a tree
            shared = BinOp("||", shared, shared)
        renamed = rename(shared, "@1")
        assert renamed == rename(shared, "@1") and hash(renamed) != hash(shared)
        assert atoms(renamed) == {rename(X, "@1")}
        assert evaluate(shared, {X: 2}) == 1 and evaluate(shared, {X: 1}) == 0
        assert solve([shared])[0] == UNKNOWN
        # !(A || A) and A && A split into one atom, not 2^200
        verdict, model = solve([NotOp(shared)])
        assert verdict == SAT and model[X] == 0
        both = BinOp(">", X, Literal(1))
        for _ in range(200):
            both = BinOp("&&", both, both)
        verdict, model = solve([both, BinOp("<", X, Literal(3))])
        assert verdict == SAT and model[X] == 2

    def test_mapping_keys_with_shared_subterms(self):
        shared = BinOp(">", X, Literal(1))
        for _ in range(200):
            shared = BinOp("||", shared, shared)
        m, n = (StorageSym(var=v, key=shared, version=0, sort="uint") for v in "mn")
        # the order key is the repr, cut short, with the digest behind it
        text, digest = order_key(m)
        assert text.startswith("StorageSym(var='m', key=BinOp(op='||', left=BinOp(op='||'")
        assert len(text) == 1024 and len(digest) == 16 and order_key(m) < order_key(n)
        assert arith("+", n, m).terms == ((m, 1), (n, 1))
        again = StorageSym(var="m", key=rename(shared, ""), version=0, sort="uint")
        assert again == m and order_key(again) == order_key(m)
        verdict, model = solve([BinOp(">", arith("-", m, n), Literal(3))])
        assert verdict == SAT and model[m] == 4 and model[n] == 0

    def test_nested_mapping_keys(self):
        key = X
        for _ in range(3000):
            key = StorageSym(var="m", key=arith("+", key, Literal(1)), version=0)
        renamed = rename(key, "@1")
        assert renamed == rename(key, "@1") and renamed != key
        assert {renamed: 1}[rename(key, "@1")] == 1
        assert evaluate(BinOp("==", key, Literal(0)), {}) == 1
        assert repr(key).startswith("StorageSym(var='m', key=Affine(terms=((StorageSym(")
