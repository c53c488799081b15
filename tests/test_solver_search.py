"""The solver's iterative search: same answers as the former recursive
one, no recursion, and chained or cyclic guards decided quickly."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import phantomscan
from phantomscan.minisol import load
from phantomscan.symexec import SAT, UNSAT, analyze_source, solve, solver
from phantomscan.symexec.values import UINT_MAX, BinOp, FreeVar, Literal, arith

from reference_search import reference_search

X, Y, Z = FreeVar(name="x"), FreeVar(name="y"), FreeVar(name="z")
CMP = ["==", "!=", "<", "<=", ">", ">="]


def lit(v):
    return Literal(value=v)


def chain_source(m: int) -> str:
    """m chained requires a > 0, a < b, b < c, ... on one entry, and an
    unguarded entry that emits the same event."""
    names = "abcdefgh"[:m]
    first, last = names[0], names[-1]
    guards = [f"require({first} > 0);"]
    guards += [f"require({x} < {y});" for x, y in zip(names, names[1:])]
    params = ", ".join(f"uint256 {v}" for v in names)
    return "\n".join([
        "contract Chain {",
        "    event Linked(uint256 first, uint256 last);",
        "    uint256 uses;",
        f"    function strict({params}) external {{",
        "        " + " ".join(guards),
        "        uses = uses + 1;",
        f"        emit Linked({first}, {last});",
        "    }",
        f"    function loose(uint256 {first}, uint256 {last}) external {{",
        f"        emit Linked({first}, {last});",
        "    }",
        "}",
    ]) + "\n"


class TestChainedGuards:
    def test_chain_4_and_5_in_process(self):
        for m in (4, 5):
            findings = analyze_source(load(chain_source(m)))
            kinds = [(f.kind, f.functions) for f in findings]
            assert kinds == [
                ("EVENT_COUNTERFEITING", ("loose", "strict")),
                ("INCONSISTENT_LOGGING", ("loose",)),
            ], m
            assert all(f.confidence == "CONFIRMED" for f in findings), m
            witness = findings[0].detail["witness"]
            assert witness["first"] >= 1
            assert witness["last"] - witness["first"] >= m - 1

    def test_chain_through_the_cli(self, tmp_path):
        path = tmp_path / "chain5.msol"
        path.write_text(chain_source(5))
        src = str(Path(phantomscan.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        res = subprocess.run(
            [sys.executable, "-m", "phantomscan.cli", "analyze-source", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 1, res.stderr
        assert "EVENT_COUNTERFEITING" in res.stdout
        assert "Traceback" not in res.stderr

    def test_long_chain_of_wide_variables(self):
        # forty uint256 variables in one chain: the former search went
        # about 256 levels deep per variable
        vs = [FreeVar(name=f"v{i:02d}") for i in range(40)]
        conjuncts = [BinOp(">", vs[0], lit(0))]
        conjuncts += [BinOp("<", a, b) for a, b in zip(vs, vs[1:])]
        verdict, model = solve(conjuncts)
        assert verdict == SAT
        assert [model[v] for v in vs] == list(range(1, 41))

    def test_search_does_not_call_itself(self):
        assert "_search" not in solver._search.__code__.co_names


class TestCycles:
    def _timed(self, conjuncts):
        start = time.perf_counter()
        verdict, model = solve(conjuncts)
        return verdict, model, time.perf_counter() - start

    def test_two_variable_cycle_is_unsat_at_once(self):
        verdict, model, took = self._timed([BinOp("<", X, Y), BinOp("<", Y, X)])
        assert verdict == UNSAT and model is None
        assert took < 0.2

    def test_three_variable_cycle_is_unsat_at_once(self):
        verdict, _, took = self._timed([BinOp("<", X, Y), BinOp("<", Y, Z),
                                        BinOp("<", Z, X)])
        assert verdict == UNSAT
        assert took < 0.2

    def test_equality_cycle_with_offsets(self):
        verdict, _, took = self._timed([BinOp("==", X, arith("+", Y, lit(1))),
                                        BinOp("==", Y, arith("+", X, lit(1)))])
        assert verdict == UNSAT
        assert took < 0.2

    def test_cycle_closed_by_a_fixed_variable(self):
        # x is fixed to 8, which turns z == y + x into a difference atom
        verdict, _, took = self._timed([
            BinOp("<=", X, Z),
            BinOp("==", arith("+", Y, lit(8)), arith("+", X, Y)),
            BinOp("==", Z, arith("+", Y, X)),
            BinOp(">", arith("+", Y, lit(8)), arith("+", Z, lit(14))),
        ])
        assert verdict == UNSAT
        assert took < 0.2

    def test_zero_weight_cycle_stays_sat(self):
        verdict, model = solve([BinOp("<=", X, Y), BinOp("<=", Y, X)])
        assert verdict == SAT and model[X] == model[Y]


class TestDisequalities:
    def test_fixed_lower_bound_that_breaks_a_disequality(self):
        # the first child fixes x to 0; without deciding x != 0 there,
        # the search spent its whole budget under it and said UNKNOWN
        verdict, model = solve([BinOp("!=", lit(0), X),
                                BinOp(">", arith("+", Y, X), Z)])
        assert verdict == SAT
        assert model[X] != 0 and model[Y] + model[X] > model[Z]


def _const(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(0, 15)
    if kind == 1:
        return UINT_MAX - rng.randint(0, 15)
    if kind == 2:
        return rng.randint(0, UINT_MAX)
    return 2 ** rng.randint(1, 255)


def _term(rng, vs):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(vs)
    if kind == 1:
        return lit(_const(rng))
    if kind == 2:
        return arith("+", rng.choice(vs), rng.choice(vs))
    if kind == 3:
        return arith("-", rng.choice(vs), lit(_const(rng)))
    if kind == 4:
        return arith("+", rng.choice(vs), lit(_const(rng)))
    return arith("*", lit(rng.randint(0, 3)), rng.choice(vs))


class TestAgainstRecursiveSearch:
    def test_same_verdict_and_model_on_600_wide_conjunctions(self, monkeypatch):
        rng = random.Random(20261018)
        cases = []
        for _ in range(600):
            vs = [X, Y, Z][:rng.randint(1, 3)]
            cases.append([BinOp(rng.choice(CMP), _term(rng, vs), _term(rng, vs))
                          for _ in range(rng.randint(1, 4))])
        ours = [solve(c) for c in cases]

        # the recursive search goes about 256 levels deep per variable
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        monkeypatch.setattr(solver, "_search",
                            lambda atoms_, bounds, budget:
                            reference_search(atoms_, bounds, [budget]))
        try:
            theirs = [solve(c) for c in cases]
        finally:
            sys.setrecursionlimit(limit)

        mismatches = [i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
        assert mismatches == []
        assert {v for v, _ in ours} == {SAT, UNSAT}
