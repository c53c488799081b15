"""The pair check against its former whole-query loop
(`reference_pairs.py`), and the number of solver queries it makes."""

import random

import pytest

from phantomscan import minisol
from phantomscan.minisol.ast import UINT_MAX
from phantomscan.symexec import engine
from phantomscan.symexec.engine import analyze_source

import reference_pairs
from reference_pairs import reference_counterfeit_pairs


def summary(findings):
    """The counterfeit pairs of `findings`, sorted."""
    return sorted(((f.kind, f.functions, f.confidence, f.detail["witness"])
                   for f in findings if f.kind == "EVENT_COUNTERFEITING"), key=repr)


def same_as_reference(contract) -> list:
    got = summary(analyze_source(contract))
    assert got == summary(reference_counterfeit_pairs(contract))
    return got


@pytest.fixture
def queries(monkeypatch):
    """Counts the solver queries of the source analysis and of the reference."""
    counts = {"now": 0, "reference": 0}

    def counting(module, name):
        real = module.solve

        def solve(conjuncts, *args):
            counts[name] += 1
            return real(conjuncts, *args)
        monkeypatch.setattr(module, "solve", solve)

    counting(engine, "now")
    counting(reference_pairs, "reference")
    return counts


# --------------------------------------------------------------------------
# the benchmark's source families, written out
# --------------------------------------------------------------------------

def guard(param: str, lo: int, hi: int) -> str:
    return f"require({param} >= {lo}); require({param} <= {hi});"


def pair_n(intervals: list) -> str:
    lanes = "".join(f"""
        function lane{i}(uint256 level) external {{
            {guard("level", lo, hi)} count = count + 1; emit Flag(level);
        }}""" for i, (lo, hi) in enumerate(intervals))
    return f"contract Pair {{ event Flag(uint256 level); uint256 count; {lanes} }}"


def branchy(b: int, wide: tuple, narrow: tuple) -> str:
    flags = ", ".join(f"bool w{i}" for i in range(b))
    state = " ".join(f"uint256 s{i};" for i in range(b))
    ifs = " ".join(f"if (w{i}) {{ s{i} = s{i} + {3 * i + 1}; }}" for i in range(b))
    return f"""contract Branchy {{ event Moved(uint256 amount); {state}
        function wide(uint256 amount, {flags}) external {{
            {guard("amount", *wide)} {ifs} emit Moved(amount);
        }}
        function narrow(uint256 amount) external {{
            {guard("amount", *narrow)} emit Moved(amount);
        }} }}"""


def relay(intervals: list) -> str:
    entries = "function via0(uint256 code) external { record(code); }"
    for i, (lo, hi) in enumerate(intervals, 1):
        entries += f" function via{i}(uint256 code) external {{ {guard('code', lo, hi)} record(code); }}"
    return f"""contract Relay {{ event Relayed(uint256 code); uint256 hits; {entries}
        function record(uint256 code) internal {{ hits = hits + 1; stamp(code); }}
        function stamp(uint256 code) internal {{ emit Relayed(code); }} }}"""


def chain(m: int) -> str:
    names = "abcdefgh"[:m]
    params = ", ".join(f"uint256 {v}" for v in names)
    guards = " ".join([f"require({names[0]} > 0);"] +
                      [f"require({x} < {y});" for x, y in zip(names, names[1:])])
    tail = "" if m == 1 else f", uint256 {names[-1]}"
    return f"""contract Chain {{ event Linked(uint256 first, uint256 last); uint256 uses;
        function strict({params}) external {{
            {guards} uses = uses + 1; emit Linked({names[0]}, {names[-1]});
        }}
        function loose(uint256 {names[0]}{tail}) external {{
            emit Linked({names[0]}, {names[-1]});
        }} }}"""


HALF = UINT_MAX // 2
FAMILIES = {
    "pair-4": pair_n([(10, 90), (50, 200), (HALF, HALF + 9), (HALF + 5, UINT_MAX)]),
    "pair-3": pair_n([(1, 5), (6, 9), (3, 7)]),
    "branchy-3-overlap": branchy(3, (100, 500), (400, 900)),
    "branchy-5-disjoint": branchy(5, (100, 500), (600, 900)),
    "branchy-7-overlap": branchy(7, (HALF, UINT_MAX), (7, HALF + 1)),
    "relay-3": relay([(5, 50), (40, 60)]),
    "relay-4": relay([(5, 50), (51, 60), (HALF, UINT_MAX)]),
    "chain-1": chain(1),
    "chain-3": chain(3),
    "chain-5": chain(5),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_benchmark_families_match_the_reference(name):
    same_as_reference(minisol.load(FAMILIES[name]))


# --------------------------------------------------------------------------
# seeded random programs
# --------------------------------------------------------------------------

def random_program(rng: random.Random) -> str:
    """Two to three entries emitting E and F.  Guards and `if` conditions
    read the emitted parameters, mappings and state, or flags nothing
    emits; arguments are parameters, sums, mapping reads, state and
    literals; a path may emit twice.  Zero to four `if`s per entry."""
    def number() -> str:
        return rng.choice(["x", "y", "x", "y", "m[x]", "m[y]", "s", "x + y",
                           f"x + {rng.randrange(1, 4)}", f"m[x + {rng.randrange(1, 3)}]",
                           str(rng.randrange(0, 12))])

    def condition() -> str:
        if rng.random() < 0.35:
            return f"w{rng.randrange(3)}"
        return f"{number()} {rng.choice(['<', '<=', '>', '>=', '==', '!='])} {rng.randrange(0, 12)}"

    def emit() -> str:
        if rng.random() < 0.3:
            return f"emit F({number()});"
        return f"emit E({number()}, {number()});"

    def statement(depth: int) -> str:
        r = rng.random()
        if r < 0.2:
            return f"require({condition()});"
        if r < 0.3:
            return f"m[{rng.choice(['x', 'y', '1'])}] = {number()};"
        if r < 0.35:
            return f"s = {number()};"
        if r < 0.5:
            return emit()
        if depth < 1 and r < 0.9:
            then = " ".join(statement(depth + 1) for _ in range(rng.randrange(1, 3)))
            orelse = " ".join(statement(depth + 1) for _ in range(rng.randrange(0, 2)))
            tail = f" else {{ {orelse} }}" if orelse else ""
            return f"if ({condition()}) {{ {then} }}{tail}"
        return f"require({condition()});"

    entries = []
    for i in range(rng.randrange(2, 4)):
        body, ifs = [], 0
        for _ in range(rng.randrange(2, 7)):
            s = statement(0)
            if s.startswith("if"):
                if ifs == 4:
                    continue
                ifs += 1
            body.append(s)
        body.append(emit())
        entries.append(f"function f{i}(uint256 x, uint256 y, bool w0, bool w1, bool w2) "
                       f"external {{ {' '.join(body)} }}")
    return ("contract R { event E(uint256 a, uint256 b); event F(uint256 v); "
            "mapping(uint256 => uint256) m; uint256 s; " + " ".join(entries) + " }")


def test_random_programs_match_the_reference(queries):
    rng = random.Random(2022)
    found = fewer = 0
    for _ in range(300):
        contract = minisol.load(random_program(rng))
        paths = [len(engine.search_paths(contract, f.name).paths)
                 for f in contract.functions if f.is_entry]
        assert max(paths) <= 16
        before = dict(queries)
        found += len(same_as_reference(contract))
        fewer += (queries["now"] - before["now"]) < (queries["reference"] - before["reference"])
    # the draw holds both findings and pairs the slices rule out
    assert found >= 100 and fewer >= 50


# --------------------------------------------------------------------------
# the work, counted in solver queries
# --------------------------------------------------------------------------

def test_branches_apart_from_the_arguments_cost_one_query(queries):
    # 128 paths in `wide`, none of whose branches reach `amount`; the
    # guards are disjoint, so every pair is UNSAT for one core's reason
    contract = minisol.load(branchy(7, (100, 500), (600, 900)))
    assert same_as_reference(contract) == []
    assert queries == {"now": 1, "reference": 128}


def test_overlapping_guards_give_the_reference_witness(queries):
    contract = minisol.load(branchy(7, (100, 500), (400, 900)))
    assert same_as_reference(contract) == [
        ("EVENT_COUNTERFEITING", ("narrow", "wide"), "CONFIRMED", {"amount": 400})]
    assert queries["now"] <= 2


def test_single_path_entries_cost_what_they_did(queries):
    contract = minisol.load(pair_n([(1, 5), (6, 9), (3, 7), (20, 30)]))
    assert len(same_as_reference(contract)) == 2
    assert queries["now"] == queries["reference"] == 6


def test_an_undecided_core_leaves_the_pair_to_the_whole_query(queries):
    # 200 excluded values take the core's search past its node budget,
    # which an UNKNOWN core must not turn into a skipped pair
    excluded = " ".join(f"require(amount != {i});" for i in range(200))
    contract = minisol.load(f"""contract C {{ event Moved(uint256 amount); uint256 s0; uint256 s1;
        function wide(uint256 amount, bool w0, bool w1) external {{
            {excluded} if (w0) {{ s0 = 1; }} if (w1) {{ s1 = 1; }} emit Moved(amount);
        }}
        function narrow(uint256 amount) external {{ emit Moved(amount); }} }}""")
    assert same_as_reference(contract) == [
        ("EVENT_COUNTERFEITING", ("narrow", "wide"), "CONFIRMED", {"amount": 200})]
    assert queries["now"] == 2
