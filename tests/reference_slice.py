"""The bytecode layer's former exhaustive path search, kept as a test oracle.

`reference_slice` lists every acyclic reverse path from a LOG site to a
function entry, crossing each directed edge at most once per path and
call context, and `reference_detect` runs the single-pass taint rule
over each listed path on its own.  Like the walk, the search crosses
every call through its callee, never along the caller's call-block ->
return-block edge.  A crossing bridges the entry slots the visit reads,
the block's consumed slots and the bridge its visit was handed, and
hands the predecessor's visit, as its bridge, the predecessor's entry
slots that carry them: the slots to bridge are per visit.  Values are
named by scope: a listed path renames each variable `<name>#<scope>`,
the scope standing for the function and call context of the visit that
runs it (a PHI's def takes the block's scope, its use the
predecessor's), and only the variables environment reads define keep
their names.  So a helper the path runs twice has values of its own
per run, and `reference_taint`, `_related_fixpoint` and
`_unchecked_external_call` judge the renamed path with the flat rule.
The path count doubles with every independent branch in front of a
LOG, so the search stops after `max_paths` paths and marks the event's
findings INCOMPLETE.
"""

from dataclasses import replace

from phantomscan.evm.opcodes import ENTRY_POINT_OPS, EXTERNAL_CALLS
from phantomscan.lifter.tac import TacInstruction
from phantomscan.taint import (
    BytecodeFinding,
    PathSlice,
    _event_label,
    _key,
    _path_summary,
    extract_log_ops,
)

MAX_PATHS = 256


def reference_slice(icfg, logop, max_paths=MAX_PATHS):
    """(every reverse path as a PathSlice, budget exceeded), in the order
    of a depth-first walk that tries predecessors, then return edges,
    then call edges.  A path's variables, and the seeds of its `logop`,
    are renamed by scope, and each SEGMENT carries its block's scope as
    `const`: scope 0 is the log site's function with no call context."""
    value_keys = icfg.value_keys
    scopes = {(logop.function, ()): 0}  # (function, call context) -> scope

    def name(var, scope):
        return var if var in value_keys else f"{var}#{scope}"

    def rename(instrs, scope, uses_scope=None):
        uses_scope = scope if uses_scope is None else uses_scope
        return [replace(t, defs=tuple(name(v, scope) for v in t.defs),
                        uses=tuple(name(v, uses_scope) for v in t.uses)) for t in instrs]

    runs = {}  # (block, scope) -> the block's TAC, reversed and renamed

    def run(block, scope):
        if (block, scope) not in runs:
            runs[block, scope] = rename(reversed(icfg.lifted[block].tac), scope)
        return runs[block, scope]

    logop = replace(logop, topic_vars=tuple(name(v, 0) for v in logop.topic_vars),
                    data_vars=tuple(name(v, 0) for v in logop.data_vars),
                    synthetic=tuple(rename(logop.synthetic, 0)))
    tac = icfg.lifted[logop.block].tac
    log_idx = next(i for i, t in enumerate(tac) if t.pc == logop.pc and t.op.startswith("LOG"))
    prefix = [
        TacInstruction(pc=logop.block, op="SEGMENT", defs=(logop.function,), const=0),
        *rename([tac[log_idx]], 0),
        *logop.synthetic,
        *run(logop.block, 0)[len(tac) - log_idx:],
    ]

    paths = []
    edges_used = set()
    stack = [("visit", logop.function, logop.block, (), frozenset(), (prefix, None))]

    while stack:
        item = stack.pop()
        kind = item[0]
        if kind == "undo":
            edges_used.discard(item[1])
        elif kind == "cross":
            _, block, scope, bridge, link, pred_fn, pred_block, context, edge_key = item
            if edge_key in edges_used:
                continue
            stack.append(("undo", edge_key))
            edges_used.add(edge_key)
            plb = icfg.lifted[pred_block]
            pred_scope = scopes.setdefault((pred_fn, context), len(scopes))
            srcs = {k: plb.exit_var(k)
                    for k in sorted(bridge.union(range(icfg.lifted[block].extern_consumed)))}
            phis = [TacInstruction(pc=block, op="PHI", defs=(f"S{k}@{block:#x}",), uses=(src,))
                    for k, src in srcs.items()]
            seg = rename(phis, scope, pred_scope)
            seg.append(TacInstruction(pc=pred_block, op="SEGMENT", defs=(pred_fn,),
                                      const=pred_scope))
            seg += run(pred_block, pred_scope)
            bridged = frozenset(plb.entry_slot(src) for src in srcs.values()) - {None}
            stack.append(("visit", pred_fn, pred_block, context, bridged, (seg, link)))
        elif kind == "visit":
            _, fn_name, block, context, bridge, link = item
            fn = icfg.functions[fn_name]
            scope = scopes.setdefault((fn_name, context), len(scopes))
            returns = icfg.return_edges_at(fn_name, block)
            call_blocks = {e.call_block for e in returns}
            moves = [(fn_name, pred, context, ("cfg", context, fn_name, pred, block))
                     for pred in fn.pred.get(block, []) if pred not in call_blocks]
            for edge in returns:
                for exit_block in [] if edge in context else icfg.callee_exit_blocks(edge):
                    moves.append((edge.callee, exit_block, context + (edge,),
                                  ("ret", context, edge.caller, edge.call_block, exit_block)))
            if block == fn.entry:
                if context:
                    callers = [context[-1]] if context[-1].callee == fn_name else []
                    context = context[:-1]
                else:
                    callers = icfg.edges_into(fn_name)
                    if not callers:
                        stack.append(("entry", fn_name, block, link))
                moves += [(edge.caller, edge.call_block, context,
                           ("call", context, edge.caller, edge.call_block, fn_name))
                          for edge in callers]
            stack += [("cross", block, scope, bridge, link, *move) for move in reversed(moves)]
        else:
            _, fn_name, block, link = item
            if len(paths) >= max_paths:
                return paths, True
            segments = []
            while link is not None:
                seg, link = link
                segments.append(seg)
            instrs = [t for seg in reversed(segments) for t in seg]
            instrs.append(TacInstruction(pc=block, op="ENTRY", defs=(fn_name,)))
            traversed = {t.defs[0] for t in instrs if t.op == "SEGMENT"}
            paths.append(PathSlice(
                logop=logop,
                instrs=instrs,
                entry_function=fn_name,
                entry_block=block,
                crossed_functions=tuple(sorted(traversed - {fn_name})),
            ))
    return paths, False


def reference_taint(path, value_keys):
    """(tainted, final taint set): any instruction touching a tainted value
    key taints all of its keys; the path is tainted when an entry-point
    read ends up in the final set."""
    taint = {_key(v, value_keys) for v in path.logop.seed_vars}
    for t in path.instrs:
        if t.op in ("SEGMENT", "ENTRY"):
            continue
        keys = {_key(v, value_keys) for v in t.variables}
        if keys & taint:
            taint |= keys
    tainted = any(t.op in ENTRY_POINT_OPS and t.defs and _key(t.defs[0], value_keys) in taint
                  for t in path.instrs)
    return tainted, taint


def _related_fixpoint(instrs: list[TacInstruction], start: set,
                      value_keys: dict[str, tuple]) -> set:
    related = set(start)
    changed = True
    while changed:
        changed = False
        for t in instrs:
            keys = {_key(v, value_keys) for v in t.variables}
            if keys & related and not keys <= related:
                related |= keys
                changed = True
    return related


def _unchecked_external_call(slice_: PathSlice, taint: set,
                             value_keys: dict[str, tuple]) -> bool:
    """True when the path performs an external call and no JUMPI after it
    conditions on anything related to the call result or the taint set."""
    call_positions = [i for i, t in enumerate(slice_.instrs) if t.op in EXTERNAL_CALLS]
    if not call_positions:
        return False
    call_defs = {_key(slice_.instrs[i].defs[0], value_keys)
                 for i in call_positions if slice_.instrs[i].defs}
    related = _related_fixpoint(slice_.instrs, taint | call_defs, value_keys)
    for call_idx in call_positions:
        # reverse order: smaller index = later in program order
        later_jumpis = [t for t in slice_.instrs[:call_idx] if t.op == "JUMPI"]
        constrained = any(
            len(t.uses) > 1 and _key(t.uses[1], value_keys) in related
            for t in later_jumpis
        )
        if not constrained:
            return True
    return False


def _anchored(path, taint, value_keys):
    return any(t.op == "SSTORE" and (_key(t.uses[0], value_keys) in taint
                                     or _key(t.uses[1], value_keys) in taint)
               for t in path.instrs)


def reference_detect(icfg, sigdb=None, max_paths=MAX_PATHS):
    """(findings from the three path rules, each path judged alone, in the
    order of those rules; the topics whose log sites ran out of paths)."""
    value_keys = icfg.value_keys
    tainted_by_event, il_by_event, nocheck_by_event = {}, {}, {}
    incomplete = set()
    for logop in extract_log_ops(icfg):
        paths, exceeded = reference_slice(icfg, logop, max_paths)
        if exceeded:
            incomplete.add(logop.topic0)
        for path in paths:
            tainted, taint = reference_taint(path, value_keys)
            if tainted:
                tainted_by_event.setdefault(logop.topic0, []).append(path)
                if not _anchored(path, taint, value_keys):
                    il_by_event.setdefault(logop.topic0, []).append(path)
            elif _unchecked_external_call(path, taint, value_keys):
                nocheck_by_event.setdefault(logop.topic0, []).append(path)

    def finding(kind, condition, topic0, entries, paths):
        sig = sigdb.topic_signature(topic0) if (sigdb and topic0 is not None) else None
        return BytecodeFinding(
            kind=kind, condition=condition, topic0=topic0, event=_event_label(topic0, sig),
            contract=icfg.origin,
            confidence="INCOMPLETE" if topic0 in incomplete else "POTENTIAL",
            entries=tuple(sorted(entries)), paths=tuple(_path_summary(p) for p in paths),
        )

    findings = []
    for topic0, paths in il_by_event.items():
        findings.append(finding("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", topic0,
                                {p.entry_function for p in paths}, paths))
    for topic0, paths in tainted_by_event.items():
        public = {p.entry_function for p in paths if icfg.functions[p.entry_function].is_public}
        if len(public) > 1:
            findings.append(finding("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS", topic0,
                                    public, paths))
    for topic0, paths in nocheck_by_event.items():
        findings.append(finding("EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL", topic0,
                                {p.entry_function for p in paths}, paths))
    return findings, incomplete
