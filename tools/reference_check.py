"""Compare the merged taint walk with the exhaustive path search.

    python tools/reference_check.py SEED N

Builds N seeded programs from each generator of the test suite
(`structured` programs of `random_segments`, of `loop_segments` and of
`call_segments`, the last with helpers that tail-jump into another
helper, and the fuzz suite's `_random_code` and `_random_call_code`),
runs `detect` and the exhaustive `reference_detect` from
`tests/reference_slice.py` on each, and prints one line per generator:

    <generator> <programs> <complete> <mismatches> <reruns> <paths>

The search judges each listed path on its own, the unchecked-call
rule included (`_unchecked_external_call` re-reads the whole path),
where the walk decides every rule from its merged state.  Both name a
value by the scope, function and call context, of the visit that runs
it.

A program is complete when the exhaustive search finished every log
site; a mismatch is a program where the two give different findings on
an event whose log sites the search finished; a rerun is a program in
which a path the search lists runs one block under two scopes (a
helper called twice, or a block two functions own), where that naming
decides what the two runs share; paths counts the reverse paths the
walk (`backward_slice`) lists over every log site of every program, the
evidence a report carries.  Exits 1 when there is a mismatch.
Needs pytest and hypothesis, as the tests do.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/reference_check.py SEED N", file=sys.stderr)
        return 2
    seed, n = int(argv[0]), int(argv[1])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

    from phantomscan.evm import Bytecode
    from phantomscan.lifter import build_icfg
    from phantomscan.taint import backward_slice, extract_log_ops
    from reference_slice import reference_slice
    from test_fuzz import _random_call_code, _random_code
    from test_taint import (CALL_STARTS, HELPER_BODIES, call_segments, loop_segments,
                            random_segments, same_as_reference, structured)

    def structured_with(segments, starts=((("PUSH1", 0),), ("CALLER",),
                                          (("PUSH1", 4), "CALLDATALOAD"))):
        def make(rng: random.Random) -> Bytecode:
            return structured(segments(rng), rng.choice(list(HELPER_BODIES)),
                              rng.choice(starts))
        return make

    generators = {
        "random_segments": structured_with(random_segments),
        "loop_segments": structured_with(loop_segments),
        "call_segments": structured_with(call_segments, CALL_STARTS),
        "random_code": lambda rng: Bytecode(code=_random_code(rng)),
        "random_call_code": lambda rng: Bytecode(code=_random_call_code(rng)[0]),
    }

    def reruns(icfg) -> bool:
        """Whether a listed path runs one block under two scopes: each
        SEGMENT of a listed path carries its block's scope as `const`."""
        for op in extract_log_ops(icfg):
            for path in reference_slice(icfg, op)[0]:
                scopes: dict[int, int] = {}
                if any(scopes.setdefault(t.pc, t.const) != t.const
                       for t in path.instrs if t.op == "SEGMENT"):
                    return True
        return False

    failed = False
    for name, make in generators.items():
        rng = random.Random(seed)
        complete = mismatches = rerun = paths = 0
        for _ in range(n):
            icfg = build_icfg(make(rng))
            try:
                complete += same_as_reference(icfg)
            except AssertionError:
                mismatches += 1
            rerun += reruns(icfg)
            paths += sum(len(backward_slice(icfg, op)[0]) for op in extract_log_ops(icfg))
        failed |= mismatches > 0
        print(name, n, complete, mismatches, rerun, paths, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
