"""Constraint solver: verdict soundness against exhaustive enumeration."""

import itertools
import random
import re

import pytest

from phantomscan import minisol
from phantomscan.symexec import SAT, UNKNOWN, UNSAT, export_smtlib, solve
from phantomscan.symexec.engine import search_paths
from phantomscan.symexec.values import (
    UINT_MAX,
    BinOp,
    CallerSym,
    CallSuccessSym,
    FreeVar,
    Literal,
    NotOp,
    arith,
    evaluate,
)
from test_fuzz import _time_box

X, Y, Z = FreeVar(name="x"), FreeVar(name="y"), FreeVar(name="z")
CMP = ["==", "!=", "<", "<=", ">", ">="]


def lit(v):
    return Literal(value=v)


class TestBasics:
    def test_trivial_sat(self):
        verdict, model = solve([BinOp("==", X, lit(5))])
        assert verdict == SAT
        assert model[X] == 5

    def test_trivial_unsat(self):
        verdict, model = solve([BinOp("==", X, lit(5)),
                                BinOp("==", X, lit(6))])
        assert verdict == UNSAT and model is None

    def test_constant_contradiction(self):
        verdict, _ = solve([BinOp("<", lit(5), lit(3))])
        assert verdict == UNSAT

    def test_empty_conjunction_is_sat(self):
        verdict, model = solve([])
        assert verdict == SAT and model == {}

    def test_linear_combination(self):
        # x + y == 10, x - y == 4  =>  x=7 y=3
        verdict, model = solve([
            BinOp("==", arith("+", X, Y), lit(10)),
            BinOp("==", arith("-", X, Y), lit(4)),
            BinOp("<=", X, lit(100)),
            BinOp("<=", Y, lit(100)),
        ])
        assert verdict == SAT
        assert model[X] == 7 and model[Y] == 3

    def test_multiplication_by_literal(self):
        verdict, model = solve([
            BinOp("==", arith("*", lit(3), X), lit(12)),
            BinOp("<=", X, lit(50)),
        ])
        assert verdict == SAT and model[X] == 4

    def test_no_solution_under_scaling(self):
        verdict, _ = solve([
            BinOp("==", arith("*", lit(3), X), lit(13)),
            BinOp("<=", X, lit(50)),
        ])
        assert verdict == UNSAT

    def test_bool_symbols_are_zero_one(self):
        ok = CallSuccessSym(site="s")
        verdict, model = solve([ok])
        assert verdict == SAT and model[ok] == 1
        verdict, _ = solve([ok, NotOp(ok)])
        assert verdict == UNSAT

    def test_negation_pushes_through(self):
        verdict, model = solve([NotOp(BinOp("<", X, lit(5))),
                                BinOp("<=", X, lit(7))])
        assert verdict == SAT
        assert 5 <= model[X] <= 7

    def test_conjunction_operator_splits(self):
        both = BinOp("&&", BinOp(">", X, lit(2)), BinOp("<", X, lit(4)))
        verdict, model = solve([both])
        assert verdict == SAT and model[X] == 3

    def test_negated_disjunction_splits(self):
        neither = NotOp(BinOp("||", BinOp("<", X, lit(3)), BinOp(">", X, lit(3))))
        verdict, model = solve([neither, BinOp("<=", X, lit(7))])
        assert verdict == SAT and model[X] == 3


class TestHonestUnknown:
    def test_open_disjunction(self):
        either = BinOp("||", BinOp("==", X, lit(1)), BinOp("==", X, lit(2)))
        verdict, _ = solve([either])
        assert verdict == UNKNOWN

    def test_disjunction_with_constant_side_folds(self):
        either = BinOp("||", Literal(value=0, sort="bool"), BinOp("==", X, lit(2)))
        verdict, model = solve([either])
        assert verdict == SAT and model[X] == 2

    def test_nonlinear_product_cannot_be_built(self):
        with pytest.raises(ValueError, match="non-linear"):
            arith("*", X, Y)
        with pytest.raises(minisol.ResolutionError, match="literal operand"):
            minisol.load("contract C { event E(uint256 v);\n"
                         "function f(uint256 x, uint256 y) external {\n"
                         "require(x * y == 6); emit E(x); } }")

    def test_budget_exhaustion_on_disequality_over_huge_domain(self):
        # x <= huge and x != x+0 style pairs are caught syntactically;
        # force the search instead: two disequalities over the full range
        verdict, _ = solve([
            BinOp("!=", X, Y),
            BinOp("!=", arith("+", X, lit(1)), Y),
            BinOp(">=", Y, lit(UINT_MAX // 2)),
        ], node_budget=64)
        assert verdict in (SAT, UNKNOWN)  # never a false UNSAT

    def test_syntactic_contradiction_over_huge_domain(self):
        verdict, _ = solve([BinOp("==", X, Y), BinOp("!=", X, Y)])
        assert verdict == UNSAT

    @pytest.mark.parametrize("form", ["same-sign", "sign-flipped", "scaled", "odd",
                                      "ne-sign-flipped", "greater"])
    def test_an_equality_settles_atoms_over_its_linear_part(self, form):
        # x1 + y1 == x2 fixes x1 + y1 - x2 to 0, which refutes each second
        # atom; the search and interval propagation cannot refute them
        # over uint256, so they used to end UNKNOWN, most after running
        # out the node budget
        x1, y1, x2 = (FreeVar(name=n, tag=t) for n, t in (("x", "@1"), ("y", "@1"), ("x", "@2")))
        total, two = arith("+", x1, y1), lit(2)
        second = {
            "same-sign": BinOp("==", total, arith("+", x2, lit(1))),
            "sign-flipped": BinOp("==", arith("+", x2, lit(1)), total),
            "scaled": BinOp("==", arith("*", two, total), arith("*", two, arith("+", x2, lit(1)))),
            "odd": BinOp("==", arith("*", two, total), arith("+", arith("*", two, x2), lit(1))),
            "ne-sign-flipped": BinOp("!=", x2, total),
            "greater": BinOp(">", total, x2),
        }[form]
        with _time_box(1.0):
            verdict, _ = solve([BinOp("==", total, x2), second])
        assert verdict == UNSAT

    def test_equality_over_huge_domain_finds_model(self):
        verdict, model = solve([BinOp("==", X, Y)])
        assert verdict == SAT
        assert model[X] == model[Y]


class TestSortDomains:
    def test_address_bounded_to_160_bits(self):
        a = CallerSym()
        verdict, _ = solve([BinOp(">", a, Literal(value=2**160 - 1, sort="address"))])
        assert verdict == UNSAT

    def test_caller_equality_across_tags(self):
        a1, a2 = CallerSym(tag="@1"), CallerSym(tag="@2")
        verdict, model = solve([BinOp("==", a1, a2)])
        assert verdict == SAT and model[a1] == model[a2]


def _rand_term(rng, vs):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(vs)
    if kind == 1:
        return lit(rng.randint(0, 15))
    if kind == 2:
        return arith("+", rng.choice(vs), rng.choice(vs))
    if kind == 3:
        return arith("-", rng.choice(vs), lit(rng.randint(0, 5)))
    return arith("*", lit(rng.randint(0, 3)), rng.choice(vs))


class TestAgainstBruteForce:
    def test_thousand_random_conjunctions_match_enumeration(self):
        rng = random.Random(20260819)
        mismatches = 0
        for _ in range(1000):
            n = rng.randint(1, 3)
            vs = [X, Y, Z][:n]
            conjuncts = [BinOp("<=", v, lit(7)) for v in vs]
            for _ in range(rng.randint(1, 4)):
                conjuncts.append(BinOp(rng.choice(CMP),
                                       _rand_term(rng, vs),
                                       _rand_term(rng, vs)))
            verdict, model = solve(conjuncts)
            brute_sat = any(
                all(evaluate(c, dict(zip(vs, vals))) for c in conjuncts)
                for vals in itertools.product(range(8), repeat=n)
            )
            assert verdict in (SAT, UNSAT)  # domains are small and closed
            if (verdict == SAT) != brute_sat:
                mismatches += 1
            if verdict == SAT:
                assert all(evaluate(c, model) for c in conjuncts)
        assert mismatches == 0


class TestSmtExport:
    def test_declares_sorts_and_asserts(self):
        ok = CallSuccessSym(site="s")
        text = export_smtlib([
            BinOp(">", X, lit(4)),
            BinOp("==", CallerSym(tag="@1"), CallerSym(tag="@2")),
            ok,
        ])
        assert text.startswith("(set-logic QF_BV)")
        assert "(declare-const |x| (_ BitVec 256))" in text
        assert "(declare-const |msg.sender@1| (_ BitVec 160))" in text
        assert "(declare-const |call(s)| Bool)" in text
        assert "(bvugt |x| (_ bv4 256))" in text
        assert text.rstrip().endswith("(check-sat)")

    def test_width_mismatch_gets_zero_extended(self):
        text = export_smtlib([BinOp("==", CallerSym(), X)])
        assert "zero_extend 96" in text

    def test_shared_nodes_are_written_once(self):
        # after 200 statements of `b = b || b;` the guard is a formula of
        # 2^200 leaves as a tree: each node reached twice is bound by a let
        body = ["bool b = x > 1;", *["b = b || b;"] * 200, "require(b);", "emit E(x);"]
        c = minisol.load("contract C { event E(uint256 v);\n"
                         "function f(uint256 x) external {\n" + "\n".join(body) + "\n} }")
        (path,) = search_paths(c, "f").paths
        with _time_box(1.0):
            text = export_smtlib(list(path.conjuncts))
        assert text.count("(let ") == 200 and len(text) < 20_000
        a = BinOp(">", X, lit(1))
        assert "(assert (let ((?s0 (bvugt |x| (_ bv1 256)))) (or ?s0 ?s0)))" in \
            export_smtlib([BinOp("||", a, a)])

    @staticmethod
    def _guard_text(*body: str) -> str:
        c = minisol.load("contract C { event E(uint256 v); mapping(bool => uint256) m;\n"
                         "function f(uint256 x, uint256 y) external {\n"
                         + "\n".join(body) + "\nemit E(x); } }")
        (path,) = search_paths(c, "f").paths
        with _time_box(1.0):
            return export_smtlib(list(path.conjuncts))

    def test_mapping_read_keyed_by_a_disjunction_gets_a_valid_name(self):
        # a quoted symbol cannot hold `|`, which the key's `||` would put there
        text = self._guard_text("bool b = x > 1 || y > 2;", "require(m[b] > 3);")
        (name,) = re.findall(r"\(declare-const (\|m.*\|) ", text)
        assert re.fullmatch(r"\|m\[#[0-9a-f]{32}\]#v0\|", name)
        assert f"(bvugt {name} (_ bv3 256))" in text
        assert re.findall(r"\(declare-const (\S+) ", text) == [name, "|x|", "|y|"]

    def test_mapping_read_keyed_by_a_shared_formula_exports_in_time(self):
        # written out, the key is a tree of 2^40 leaves
        text = self._guard_text("bool b = x > 1;", *["b = b || b;"] * 40, "require(m[b] > 3);")
        assert re.search(r"\(declare-const \|m\[#[0-9a-f]{32}\]#v0\| \(_ BitVec 256\)\)", text)
        assert len(text) < 2_000

    def test_export_is_deterministic(self):
        conjuncts = [BinOp("<", X, Y), BinOp("!=", Y, Z)]
        assert export_smtlib(conjuncts) == export_smtlib(conjuncts)
