"""The source layer's former pair check, kept as a test oracle.

Every (path, path) pair of two entries that emit one event goes to the
solver as one whole query, in product order, and the first SAT pair
gives the witness.  An entry with 2^b paths costs up to 2^b queries per
partner path.
"""

import itertools

from phantomscan.symexec.engine import SourceFinding, _Topics, search_paths
from phantomscan.symexec.solver import SAT, solve
from phantomscan.symexec.values import BinOp, evaluate, rename


def reference_counterfeit_pairs(contract) -> list[SourceFinding]:
    """The pairs by event, in name order, then by pair of entries."""
    path_sets = [search_paths(contract, f.name) for f in contract.functions if f.is_entry]
    topics = _Topics()
    emitters = {}
    truncated_fns = set()
    for ps in path_sets:
        if ps.truncated:
            truncated_fns.add(ps.function)
        for path in ps.paths:
            for emit in path.emits:
                emitters.setdefault(emit.event, {}) \
                        .setdefault(ps.function, []).append((path, emit))

    findings = []
    for event_name in sorted(emitters):
        by_fn = emitters[event_name]
        event = contract.event(event_name)
        for fn1, fn2 in itertools.combinations(sorted(by_fn), 2):
            hit = None
            for (p1, e1), (p2, e2) in itertools.product(by_fn[fn1], by_fn[fn2]):
                conjuncts = [rename(c, "@1") for c in p1.conjuncts]
                conjuncts += [rename(c, "@2") for c in p2.conjuncts]
                for a1, a2 in zip(e1.args, e2.args):
                    conjuncts.append(BinOp("==", rename(a1, "@1"), rename(a2, "@2")))
                verdict, model = solve(conjuncts)
                if verdict == SAT:
                    hit = {p.name: evaluate(rename(a, "@1"), model)
                           for p, a in zip(event.params, e1.args)}
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
