"""Seeded contract families for the audit workloads.

Every generated contract carries the answer its construction implies:
the findings (kind, bytecode condition, entry set) a correct analysis
must report, the parameters a source-level inconsistency must name, and
the constraints a counterfeiting witness must satisfy.  None of it is
read back from the program.

The draws are stratified: the family parameters that set the cost of a
contract (k, n, b, m, number of entries, overlap structure) are fixed
per workload, and the seed chooses everything else (names, selectors,
topics, calldata slots, interval bounds, order).  So two seeds give
different contracts of the same cost profile, and the three contracts
that hit known faults are built without the seed at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from common import BYTECODE_FIXTURES, FIXTURES, SOURCE_FIXTURES, use_program

use_program()

import build_fixtures as asm  # noqa: E402  (the repository's assembler)
from phantomscan._keccak import event_topic, function_selector  # noqa: E402

UINT_MAX = (1 << 256) - 1
EC = "EVENT_COUNTERFEITING"
IL = "INCONSISTENT_LOGGING"
MULTI = "MULTI_TAINTED_PATHS"
NO_SSTORE = "NO_TAINT_RELATED_SSTORE"
NO_CHECK = "NO_CONSTRAINT_EXTERNAL_CALL"

# known program faults some contracts hit; run.py knows how each one shows
FAULT_BUDGET = "path budget: INCOMPLETE at k >= 9"
FAULT_DEPTH = "max_depth: finding dropped at n >= 64"
FAULT_RECURSION = "solver recursion: RecursionError at m >= 4"

# cost strata of the bytecode draw: (k, with a taint-related SSTORE)
DIAMOND_STRATA = [(k, s) for k in range(3, 9) for s in (False, True)]
CALLER_STRATA = [8, 16, 24, 32, 40, 48, 56, 62]
# cost strata of the source draw
PAIR_STRATA = [3, 4, 5, 6]
BRANCHY_STRATA = [(b, overlap) for b in (4, 5, 6, 7) for overlap in (True, False)]
RELAY_STRATA = [2, 3, 4]
CHAIN_STRATA = [1, 2, 3]


@dataclass(frozen=True)
class Expected:
    """One finding a correct analysis reports for a contract."""

    kind: str
    functions: tuple[str, ...]
    condition: str | None = None          # bytecode findings only
    unvalidated: tuple[str, ...] | None = None  # source INCONSISTENT_LOGGING only
    # source EVENT_COUNTERFEITING only: ("range", param, lo, hi) or
    # ("gap", first, last, least) meaning last - first >= least
    witness: tuple[tuple, ...] = ()


@dataclass
class Contract:
    name: str
    layer: str  # "bytecode" or "source"
    family: str
    text: str
    expected: list[Expected]
    fault: str | None = None  # the known program fault this contract hits
    sigdb: list[str] = field(default_factory=list)  # extra signature-db lines


def _token(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(6))


def _fn_sig(name: str, params: str = "uint256") -> str:
    return f"{name}({params})"


def _sig_lines(functions: list[str], events: list[str]) -> list[str]:
    lines = [f"{function_selector(s)[2:]} {s}" for s in functions]
    lines += [f"{event_topic(s)[2:]} {s}" for s in events]
    return lines


# --------------------------------------------------------------------------
# bytecode families
# --------------------------------------------------------------------------

def diamond(k: int, sstore: bool, rng: random.Random) -> Contract:
    """k independent JUMPI diamonds on calldata flags, then one LOG1 of
    calldata word 4.  2^k reverse paths reach the log."""
    tok = _token(rng)
    fname = f"settle_{tok}"
    fsig = _fn_sig(fname, ",".join(["uint256"] * (k + 1)))
    esig = f"Settled{tok.capitalize()}(uint256)"
    slots = [0x24 + 0x20 * i for i in range(k)]
    rng.shuffle(slots)
    items = asm.dispatcher([(int(function_selector(fsig), 16), "f")])
    items += [asm.label("f"), "JUMPDEST"]
    if sstore:
        # ledger[slot] = amount: anchors the logged value in storage
        items += [asm.push(1, 4), "CALLDATALOAD", asm.push(1, rng.randrange(1, 200)), "SSTORE"]
    for i, slot in enumerate(slots):
        items += [
            asm.push(2, slot), "CALLDATALOAD", asm.pushl(f"t{i}"), "JUMPI",
            asm.push(1, rng.randrange(256)), "POP", asm.pushl(f"j{i}"), "JUMP",
            asm.label(f"t{i}"), "JUMPDEST", asm.push(1, rng.randrange(256)), "POP",
            asm.label(f"j{i}"), "JUMPDEST",
        ]
    items += [
        asm.push(1, 4), "CALLDATALOAD", asm.push(1, 0), "MSTORE",
        asm.push(32, int(event_topic(esig), 16)),
        asm.push(1, 0x20), asm.push(1, 0), "LOG1", "STOP",
    ]
    expected = [] if sstore else [Expected(IL, (fname,), NO_SSTORE)]
    return Contract(
        name=f"diamond{k}{'s' if sstore else ''}_{tok}.hex", layer="bytecode",
        family="diamond-k", text="0x" + asm.assemble(items).hex(),
        expected=expected, sigdb=_sig_lines([fsig], [esig]),
    )


def callers(n: int, rng: random.Random) -> Contract:
    """n public selectors, each calling one internal helper that logs its
    argument; every caller is a public entry with a tainted path."""
    tok = _token(rng)
    names = sorted({f"route{i}_{tok}" for i in range(n)})
    sigs = [_fn_sig(name) for name in names]
    esig = f"Routed{tok.capitalize()}(uint256)"
    order = list(range(n))
    rng.shuffle(order)
    items = asm.dispatcher([(int(function_selector(sigs[i]), 16), f"f{i}") for i in order])
    for i in range(n):
        items += [
            asm.label(f"f{i}"), "JUMPDEST", asm.pushl(f"r{i}"),
            asm.push(1, 4), "CALLDATALOAD", asm.pushl("helper"), "JUMP",
            asm.label(f"r{i}"), "JUMPDEST", "STOP",
        ]
    items += [
        asm.label("helper"), "JUMPDEST", asm.push(1, 0), "MSTORE",
        asm.push(32, int(event_topic(esig), 16)),
        asm.push(1, 0x20), asm.push(1, 0), "LOG1", "JUMP",
    ]
    entries = tuple(names)
    expected = [Expected(EC, entries, MULTI), Expected(IL, entries, NO_SSTORE)]
    return Contract(
        name=f"callers{n}_{tok}.hex", layer="bytecode", family="callers-n",
        text="0x" + asm.assemble(items).hex(), expected=expected,
        sigdb=_sig_lines(sigs, [esig]),
    )


# hand-written answers of the acceptance suite (tests/test_acceptance.py
# c01 and c03, tests/test_taint.py TestDetection)
BYTECODE_FIXTURE_ANSWERS = {
    "counterfeit": [Expected(EC, ("deposit", "depositETH"), MULTI)],
    "inconsistent": [Expected(IL, ("requestWithdraw",), NO_SSTORE)],
    "inconsistent_safe": [],
    "emit_helper": [Expected(EC, ("poke", "touch"), MULTI),
                    Expected(IL, ("poke", "touch"), NO_SSTORE)],
    "nocheck_call": [Expected(EC, ("fallback",), NO_CHECK)],
    "checked_call": [],
}


def bytecode_fixtures() -> list[Contract]:
    out = []
    for name in BYTECODE_FIXTURES:
        out.append(Contract(
            name=f"{name}.hex", layer="bytecode", family="fixture",
            text=(FIXTURES / f"{name}.hex").read_text(),
            expected=BYTECODE_FIXTURE_ANSWERS[name],
        ))
    return out


def bytecode_faults() -> list[Contract]:
    """Contracts that hit the two known bytecode faults; seed-independent."""
    rng = random.Random("bytecode-faults")
    out = []
    for k in (9, 11):
        c = diamond(k, False, rng)
        c.fault = FAULT_BUDGET
        out.append(c)
    c = callers(64, rng)
    c.fault = FAULT_DEPTH
    out.append(c)
    return out


def bytecode_draw(seed: int) -> list[Contract]:
    rng = random.Random(f"bytecode-{seed}")
    out = bytecode_fixtures()
    out += [diamond(k, s, rng) for k, s in DIAMOND_STRATA]
    out += [callers(max(2, n - rng.randrange(4)), rng) for n in CALLER_STRATA]
    out += bytecode_faults()
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# source families
# --------------------------------------------------------------------------

def _intervals(rng: random.Random, groups: list[int]) -> list[tuple[int, int]]:
    """One interval per member; members of a group share a point, groups
    lie in disjoint bands of the uint256 range."""
    bands = len(groups)
    width = UINT_MAX // bands
    out = []
    for g, size in enumerate(groups):
        base = g * width
        point = base + rng.randrange(width // 4, 3 * width // 4)
        for _ in range(size):
            lo = point - rng.randrange(0, width // 4)
            hi = point + rng.randrange(0, width // 4)
            out.append((lo, hi))
    return out


def _pairs_over(names: list[str], intervals: list[tuple[int, int]], param: str) -> list[Expected]:
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            (lo1, hi1), (lo2, hi2) = intervals[i], intervals[j]
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                a, b = sorted((names[i], names[j]))
                out.append(Expected(EC, (a, b), witness=(("range", param, lo, hi),)))
    return out


def _guard(param: str, lo: int, hi: int) -> str:
    return f"require({param} >= {lo}); require({param} <= {hi});"


def pair(n: int, rng: random.Random) -> Contract:
    """n entries emit one event under interval guards; the pairs whose
    intervals overlap can forge each other's log."""
    tok = _token(rng)
    groups = [2] * (n // 2) + [1] * (n % 2)
    intervals = _intervals(rng, groups)
    order = list(range(n))
    rng.shuffle(order)
    intervals = [intervals[i] for i in order]
    names = [f"lane{i}_{tok}" for i in range(n)]
    event = f"Flag{tok.capitalize()}"
    body = [f"contract Pair{tok.capitalize()} {{",
            f"    event {event}(uint256 level);", "    uint256 count;"]
    for name, (lo, hi) in zip(names, intervals):
        body += [f"    function {name}(uint256 level) external {{",
                 f"        {_guard('level', lo, hi)}",
                 "        count = count + 1;",
                 f"        emit {event}(level);", "    }"]
    body.append("}")
    return Contract(
        name=f"pair{n}_{tok}.msol", layer="source", family="pair-n",
        text="\n".join(body) + "\n",
        expected=_pairs_over(names, intervals, "level"),
    )


def branchy(b: int, overlap: bool, rng: random.Random) -> Contract:
    """One entry with b sequential ifs (2^b paths) and one plain entry,
    both emitting one event under interval guards."""
    tok = _token(rng)
    intervals = _intervals(rng, [2] if overlap else [1, 1])
    wide, narrow = f"wide_{tok}", f"narrow_{tok}"
    event = f"Moved{tok.capitalize()}"
    # bool flags: a uint256 flag per branch would give the solver more
    # wide variables than its recursion limit allows (the chain-m fault)
    flags = ", ".join(f"bool w{i}" for i in range(b))
    body = [f"contract Branchy{tok.capitalize()} {{",
            f"    event {event}(uint256 amount);"]
    body += [f"    uint256 s{i};" for i in range(b)]
    body += [f"    function {wide}(uint256 amount, {flags}) external {{",
             f"        {_guard('amount', *intervals[0])}"]
    body += [f"        if (w{i}) {{ s{i} = s{i} + {rng.randrange(1, 1000)}; }}" for i in range(b)]
    body += [f"        emit {event}(amount);", "    }",
             f"    function {narrow}(uint256 amount) external {{",
             f"        {_guard('amount', *intervals[1])}",
             f"        emit {event}(amount);", "    }", "}"]
    return Contract(
        name=f"branchy{b}{'o' if overlap else 'd'}_{tok}.msol", layer="source",
        family="branchy-b", text="\n".join(body) + "\n",
        expected=_pairs_over([wide, narrow], intervals, "amount"),
    )


def relay(entries: int, rng: random.Random) -> Contract:
    """Entries reach the emission only through two inlined helpers; the
    first entry is unguarded, the rest carry interval guards."""
    tok = _token(rng)
    names = [f"via{i}_{tok}" for i in range(entries)]
    guarded = _intervals(rng, [1] * (entries - 1))
    intervals = [(0, UINT_MAX)] + guarded
    event = f"Relayed{tok.capitalize()}"
    body = [f"contract Relay{tok.capitalize()} {{",
            f"    event {event}(uint256 code);", "    uint256 hits;"]
    for i, name in enumerate(names):
        guard = "" if i == 0 else _guard("code", *intervals[i]) + " "
        body.append(f"    function {name}(uint256 code) external {{ {guard}record(code); }}")
    body += ["    function record(uint256 code) internal { hits = hits + 1; stamp(code); }",
             f"    function stamp(uint256 code) internal {{ emit {event}(code); }}", "}"]
    expected = _pairs_over(names, intervals, "code")
    expected.append(Expected(IL, (names[0],), unvalidated=("code",)))
    return Contract(
        name=f"relay{entries}_{tok}.msol", layer="source", family="relay",
        text="\n".join(body) + "\n", expected=expected,
    )


def chain(m: int, rng: random.Random) -> Contract:
    """m chained requires a > 0, a < b, b < c, ..., plus an unguarded
    entry emitting the same event (first, last)."""
    tok = _token(rng)
    strict, loose = f"strict_{tok}", f"loose_{tok}"
    event = f"Linked{tok.capitalize()}"
    names = "abcdefgh"[:m]
    first, last = names[0], names[-1]
    params = ", ".join(f"uint256 {v}" for v in names)
    guards = [f"require({first} > 0);"] + [f"require({x} < {y});" for x, y in zip(names, names[1:])]
    tail = "" if m == 1 else f", uint256 {last}"
    body = [f"contract Chain{tok.capitalize()} {{",
            f"    event {event}(uint256 first, uint256 last);", "    uint256 uses;",
            f"    function {strict}({params}) external {{",
            "        " + " ".join(guards), "        uses = uses + 1;",
            f"        emit {event}({first}, {last});", "    }",
            f"    function {loose}(uint256 {first}{tail}) external {{",
            f"        emit {event}({first}, {last});", "    }", "}"]
    witness = (("range", "first", 1, UINT_MAX), ("gap", "first", "last", m - 1))
    a, b = sorted((strict, loose))
    expected = [Expected(EC, (a, b), witness=witness),
                Expected(IL, (loose,), unvalidated=("first", "last"))]
    return Contract(
        name=f"chain{m}_{tok}.msol", layer="source", family="chain-m",
        text="\n".join(body) + "\n", expected=expected,
    )


# hand-written answers of the acceptance suite (tests/test_acceptance.py
# c01 to c03, tests/test_symexec.py)
SOURCE_FIXTURE_ANSWERS = {
    "counterfeit": [
        Expected(EC, ("depositETH", "depositToken"),
                 witness=(("range", "token", 0, 0), ("range", "amount", 1, UINT_MAX))),
        Expected(IL, ("depositETH",), unvalidated=None),
        Expected(IL, ("depositToken",), unvalidated=None),
    ],
    "inconsistent": [Expected(IL, ("requestWithdraw",),
                              unvalidated=("account", "amount", "assetType"))],
    "inconsistent_safe": [],
    "disjoint": [],
    "relay": [Expected(EC, ("poke", "touch"), witness=(("range", "code", 1, UINT_MAX),)),
              Expected(IL, ("touch",), unvalidated=("code",))],
}


def source_fixtures() -> list[Contract]:
    out = []
    for name in SOURCE_FIXTURES:
        out.append(Contract(
            name=f"{name}.msol", layer="source", family="fixture",
            text=(FIXTURES / f"{name}.msol").read_text(),
            expected=SOURCE_FIXTURE_ANSWERS[name],
        ))
    return out


def source_faults() -> list[Contract]:
    """Contracts that hit the known solver fault; seed-independent."""
    rng = random.Random("source-faults")
    out = []
    for m in (4, 5):
        c = chain(m, rng)
        c.fault = FAULT_RECURSION
        out.append(c)
    return out


def source_draw(seed: int) -> list[Contract]:
    rng = random.Random(f"source-{seed}")
    out = source_fixtures()
    out += [pair(n, rng) for n in PAIR_STRATA]
    out += [branchy(b, o, rng) for b, o in BRANCHY_STRATA]
    out += [relay(e, rng) for e in RELAY_STRATA]
    out += [chain(m, rng) for m in CHAIN_STRATA]
    out += source_faults()
    rng.shuffle(out)
    return out


def sigdb_text(contracts: list[Contract]) -> str:
    """The bundled signature database plus every generated signature."""
    lines = [(FIXTURES / "sigdb.txt").read_text().rstrip("\n"), "# generated"]
    for c in contracts:
        lines += c.sigdb
    return "\n".join(lines) + "\n"
