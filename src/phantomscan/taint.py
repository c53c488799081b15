"""Backward taint analysis from LOG sites over the lifted ICFG.

For every LOG instruction the engine enumerates acyclic reverse paths
to function entries, tracks which logged values derive from transaction
input (calldata, caller, call value), and flags two situations:

* a logged value flows straight from input to the log with no
  taint-related storage write on the way (the contract records nothing
  that anchors what it announces), and
* an emission that depends on no input at all but follows an external
  call whose outcome nothing checks, or one event signature reachable
  with input-derived values through several public entry points.

Variables are compared by value key, not by name: reads of the same
environment fact (CALLDATALOAD of one constant offset, CALLER,
CALLVALUE, ORIGIN, ADDRESS) denote one value however many times the
code performs them.  Everything else keeps per-definition identity.

Memory is modelled only where LOG and KECCAK-style consumers need it:
constant-offset MSTOREs are matched per 32-byte word within the block
chain leading to the consumer; anything else becomes an opaque region
variable fed by every store in scope, which keeps the analysis
conservative instead of silently dropping dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evm.opcodes import ENTRY_POINT_OPS, EXTERNAL_CALLS
from .lifter.functions import Icfg
from .lifter.tac import TacInstruction

DYNAMIC_SIGNATURE = "DYNAMIC_SIGNATURE"

DEFAULT_MAX_PATHS = 256
DEFAULT_MAX_DEPTH = 64
_MEM_CHAIN_DEPTH = 8


@dataclass(frozen=True)
class LogOp:
    """One LOG site with its resolved signature and data variables."""

    function: str
    block: int
    pc: int
    topic_count: int
    topic0: int | None  # None when the signature topic is not a constant
    topic_vars: tuple[str, ...]  # topics beyond the signature topic
    data_vars: tuple[str, ...]
    synthetic: tuple[TacInstruction, ...] = ()

    @property
    def is_dynamic(self) -> bool:
        return self.topic0 is None

    @property
    def seed_vars(self) -> tuple[str, ...]:
        return self.topic_vars + self.data_vars


@dataclass
class PathSlice:
    """One reverse path: log site first, entry last, PHI copies included."""

    logop: LogOp
    instrs: list[TacInstruction]
    entry_function: str
    entry_block: int
    crossed_functions: tuple[str, ...]

    @property
    def block_trace(self) -> tuple[tuple[str, int], ...]:
        trace: list[tuple[str, int]] = []
        for t in self.instrs:
            if t.op == "SEGMENT":
                trace.append((t.defs[0], t.pc))
        return tuple(trace)


class PathBudgetExceeded(Exception):
    pass


@dataclass
class TaintResult:
    tainted: bool
    taint_keys: set
    sources: list[tuple[str, int | None]]  # (op, calldata offset or None)

    @property
    def calldata_slots(self) -> tuple[int, ...]:
        return tuple(sorted({off for op, off in self.sources
                             if op == "CALLDATALOAD" and off is not None}))


@dataclass(frozen=True)
class BytecodeFinding:
    kind: str  # EVENT_COUNTERFEITING | INCONSISTENT_LOGGING
    condition: str
    topic0: int | None
    event: str
    contract: str
    confidence: str  # POTENTIAL | INCOMPLETE
    entries: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()

    def sort_key(self):
        return (self.kind, self.condition, self.topic0 or 0, self.entries)


# --------------------------------------------------------------------------
# value keys
# --------------------------------------------------------------------------

def build_value_keys(icfg: Icfg) -> dict[str, tuple]:
    """Map variables defined by environment reads to shared value keys."""
    consts = icfg.consts
    keys: dict[str, tuple] = {}
    for lb in icfg.lifted.values():
        for t in lb.tac:
            if not t.defs:
                continue
            if t.op in ("CALLER", "CALLVALUE", "ORIGIN", "ADDRESS"):
                keys[t.defs[0]] = (t.op,)
            elif t.op == "CALLDATALOAD" and t.uses and t.uses[0] in consts:
                keys[t.defs[0]] = ("CALLDATALOAD", consts[t.uses[0]])
    return keys


def _key(var: str, value_keys: dict[str, tuple]) -> tuple:
    return value_keys.get(var, ("v", var))


# --------------------------------------------------------------------------
# log-op extraction
# --------------------------------------------------------------------------

def extract_log_ops(icfg: Icfg) -> list[LogOp]:
    """Every LOG site, each owned by exactly one function.

    If cloning ever leaves one LOG block inside several functions the
    deterministic owner is the non-fallback function that sorts first.
    """
    owners: dict[int, list[str]] = {}
    for name in sorted(icfg.functions, key=lambda n: (n == "fallback", n)):
        for off in icfg.functions[name].block_offsets:
            owners.setdefault(off, []).append(name)

    out: list[LogOp] = []
    seen_pcs: set[int] = set()
    for off in sorted(icfg.lifted):
        for idx, t in enumerate(icfg.lifted[off].tac):
            if not t.op.startswith("LOG") or t.op == "LOG":
                continue
            if t.pc in seen_pcs or off not in owners:
                continue
            seen_pcs.add(t.pc)
            out.append(_make_log_op(icfg, owners[off][0], off, idx, t))
    return out


def _make_log_op(icfg: Icfg, fn_name: str, block: int, idx: int,
                 instr: TacInstruction) -> LogOp:
    consts = icfg.consts
    k = int(instr.op[3:])
    topic_vars = instr.uses[2:]
    topic0 = consts.get(topic_vars[0]) if k >= 1 else None
    extra_topics = topic_vars[1:] if k >= 1 else ()

    off_var, size_var = instr.uses[0], instr.uses[1]
    chain = _block_chain(icfg, fn_name, block)
    stores = _mstores_before(icfg, chain, idx)

    data_vars: list[str] = []
    synthetic: list[TacInstruction] = []
    opaque = True
    if off_var in consts and size_var in consts:
        # the stored words of the region, in address order; the region
        # itself may be far too large to walk word by word
        base, size = consts[off_var], consts[size_var]
        data_vars = [v for addr, v in sorted(
            (addr, v) for addr, v in stores
            if addr is not None and base <= addr < base + size and (addr - base) % 32 == 0
        )]
        opaque = len(data_vars) < (size + 31) // 32
    if opaque:
        region = f"mem{instr.pc:#x}"
        data_vars.append(region)
        synthetic.append(TacInstruction(
            pc=instr.pc, op="MEMREGION", defs=(region,),
            uses=tuple(v for _, v in stores),
        ))

    return LogOp(
        function=fn_name,
        block=block,
        pc=instr.pc,
        topic_count=k,
        topic0=topic0,
        topic_vars=extra_topics,
        data_vars=tuple(data_vars),
        synthetic=tuple(synthetic),
    )


def _block_chain(icfg: Icfg, fn_name: str, block: int) -> list[int]:
    """The block plus its unique-predecessor chain (nearest first)."""
    fn = icfg.functions[fn_name]
    chain = [block]
    current = block
    for _ in range(_MEM_CHAIN_DEPTH):
        preds = fn.pred.get(current, [])
        if len(preds) != 1:
            break
        current = preds[0]
        chain.append(current)
    return chain


def _mstores_before(icfg: Icfg, chain: list[int], idx: int) -> list[tuple[int | None, str]]:
    """(constant address, value var) for stores preceding position idx,
    nearest first.  Unknown addresses come through as None; a known
    address comes through once."""
    found: list[tuple[int | None, str]] = []
    seen_addrs: set[int] = set()
    for pos, off in enumerate(chain):
        tac = icfg.lifted[off].tac
        upto = idx if pos == 0 else len(tac)
        for t in reversed(tac[:upto]):
            if t.op != "MSTORE":
                continue
            addr = icfg.consts.get(t.uses[0])
            if addr is not None and addr in seen_addrs:
                continue  # a nearer store already covers this word
            if addr is not None:
                seen_addrs.add(addr)
            found.append((addr, t.uses[1]))
    return found


# --------------------------------------------------------------------------
# backward slicing
# --------------------------------------------------------------------------

def backward_slice(
    icfg: Icfg,
    logop: LogOp,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[list[PathSlice], bool]:
    """All acyclic reverse paths from the log site to function entries.

    Returns (paths, budget_exceeded).  Each directed edge is crossed at
    most once per path, which bounds loop bodies to a single unrolling.
    """
    fn = icfg.functions[logop.function]
    tac = icfg.lifted[logop.block].tac
    log_idx = next(i for i, t in enumerate(tac) if t.pc == logop.pc and t.op.startswith("LOG"))

    paths: list[PathSlice] = []
    exceeded = False

    prefix: list[TacInstruction] = [
        TacInstruction(pc=logop.block, op="SEGMENT", defs=(logop.function,)),
        tac[log_idx],
        *logop.synthetic,
        *reversed(tac[:log_idx]),
    ]

    def extern_slots(block_off: int) -> set[int]:
        return set(range(icfg.lifted[block_off].extern_consumed))

    def walk(fn_name: str, block: int, instrs: list[TacInstruction],
             pending: dict[int, set[int]], context: tuple,
             edges_used: frozenset, depth: int) -> None:
        nonlocal exceeded
        if exceeded:
            return
        if depth > max_depth:
            exceeded = True
            return
        fn = icfg.functions[fn_name]
        if block in fn.lift_failed:
            return

        def cross(pred_fn: str, pred_block: int, new_context: tuple,
                  edge_key: tuple) -> None:
            nonlocal exceeded
            if exceeded or edge_key in edges_used:
                return
            needed = sorted(extern_slots(block) | pending.get(block, set()))
            plb = icfg.lifted[pred_block]
            new_pending = {k: set(v) for k, v in pending.items()}
            copies: list[TacInstruction] = []
            for k in needed:
                src = plb.exit_var(k)
                copies.append(TacInstruction(
                    pc=block, op="PHI",
                    defs=(f"S{k}@{block:#x}",), uses=(src,),
                ))
                slot = plb.entry_slot(src)
                if slot is not None:
                    new_pending.setdefault(pred_block, set()).add(slot)
            seg = [TacInstruction(pc=pred_block, op="SEGMENT", defs=(pred_fn,))]
            seg += reversed(icfg.lifted[pred_block].tac)
            walk(pred_fn, pred_block,
                 instrs + copies + seg,
                 new_pending, new_context,
                 edges_used | {edge_key}, depth + 1)

        terminal = True

        for pred in icfg.functions[fn_name].pred.get(block, []):
            terminal = False
            cross(fn_name, pred, context, ("cfg", fn_name, pred, block))

        for edge in icfg.return_edges_at(fn_name, block):
            for exit_block in icfg.callee_exit_blocks(edge):
                terminal = False
                cross(edge.callee, exit_block, context + (edge,),
                      ("ret", edge.caller, edge.call_block, exit_block))

        if block == fn.entry:
            if context:
                edge = context[-1]
                if edge.callee == fn_name:
                    terminal = False
                    cross(edge.caller, edge.call_block, context[:-1],
                          ("call", edge.caller, edge.call_block, fn_name))
            else:
                incoming = icfg.edges_into(fn_name)
                for edge in incoming:
                    terminal = False
                    cross(edge.caller, edge.call_block, context,
                          ("call", edge.caller, edge.call_block, fn_name))
                if not incoming:
                    if len(paths) >= max_paths:
                        exceeded = True
                        return
                    entry_marker = TacInstruction(pc=block, op="ENTRY", defs=(fn_name,))
                    traversed = {t.defs[0] for t in instrs if t.op == "SEGMENT"}
                    paths.append(PathSlice(
                        logop=logop,
                        instrs=instrs + [entry_marker],
                        entry_function=fn_name,
                        entry_block=block,
                        crossed_functions=tuple(sorted(traversed - {fn_name})),
                    ))
                    return

        if terminal and block != fn.entry:
            # dead-end inside the graph (e.g. every predecessor pruned):
            # not a valid entry path, drop it
            return

    walk(logop.function, logop.block, prefix, {}, (), frozenset(), 0)
    return paths, exceeded


# --------------------------------------------------------------------------
# taint propagation
# --------------------------------------------------------------------------

def taint_analysis(slice_: PathSlice, value_keys: dict[str, tuple],
                   seed: tuple[str, ...] | None = None) -> TaintResult:
    """Single reverse pass: any instruction touching a tainted value key
    taints all of its keys.  Sources are entry-point reads whose result
    ends up in the final taint set."""
    seed = seed if seed is not None else slice_.logop.seed_vars
    taint: set = {_key(v, value_keys) for v in seed}
    for t in slice_.instrs:
        if t.op in ("SEGMENT", "ENTRY"):
            continue
        keys = {_key(v, value_keys) for v in t.variables}
        if keys & taint:
            taint |= keys

    sources: list[tuple[str, int | None]] = []
    for t in slice_.instrs:
        if t.op not in ENTRY_POINT_OPS or not t.defs:
            continue
        key = _key(t.defs[0], value_keys)
        if key in taint:
            # a CALLDATALOAD of a constant offset is keyed by that offset
            sources.append((t.op, key[1] if key[0] == "CALLDATALOAD" else None))
    return TaintResult(tainted=bool(sources), taint_keys=taint, sources=sources)


def _related_fixpoint(instrs: list[TacInstruction], start: set,
                      value_keys: dict[str, tuple]) -> set:
    related = set(start)
    changed = True
    while changed:
        changed = False
        for t in instrs:
            if t.op in ("SEGMENT", "ENTRY"):
                continue
            keys = {_key(v, value_keys) for v in t.variables}
            if keys & related and not keys <= related:
                related |= keys
                changed = True
    return related


# --------------------------------------------------------------------------
# detection
# --------------------------------------------------------------------------

def _has_taint_related_sstore(slice_: PathSlice, taint: set,
                              value_keys: dict[str, tuple]) -> bool:
    for t in slice_.instrs:
        if t.op == "SSTORE" and (
            _key(t.uses[0], value_keys) in taint or _key(t.uses[1], value_keys) in taint
        ):
            return True
    return False


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


def _event_label(topic0: int | None, sig: str | None) -> str:
    if topic0 is None:
        return DYNAMIC_SIGNATURE
    if sig:
        return sig
    return f"0x{topic0:064x}"


def _path_summary(slice_: PathSlice) -> str:
    blocks = "->".join(f"{f}:{b:#x}" for f, b in reversed(slice_.block_trace))
    return f"{slice_.entry_function} [{blocks}] log@{slice_.logop.pc:#x}"


def detect(icfg: Icfg, sigdb=None, max_paths: int = DEFAULT_MAX_PATHS,
           max_depth: int = DEFAULT_MAX_DEPTH, strict_eq2: bool = False) -> list[BytecodeFinding]:
    """Run the full bytecode-level analysis and return sorted findings."""
    value_keys = build_value_keys(icfg)
    logops = extract_log_ops(icfg)

    findings: list[BytecodeFinding] = []
    tainted_by_event: dict[int | None, list[tuple[str, PathSlice]]] = {}
    il_by_event: dict[int | None, list[PathSlice]] = {}
    nocheck_by_event: dict[int | None, list[PathSlice]] = {}
    incomplete_events: set = set()

    for logop in logops:
        slices, exceeded = backward_slice(icfg, logop, max_paths=max_paths, max_depth=max_depth)
        if exceeded:
            incomplete_events.add(logop.topic0)
        for sl in slices:
            result = taint_analysis(sl, value_keys)
            if result.tainted:
                tainted_by_event.setdefault(logop.topic0, []).append((sl.entry_function, sl))
                if not strict_eq2 and not _has_taint_related_sstore(sl, result.taint_keys, value_keys):
                    il_by_event.setdefault(logop.topic0, []).append(sl)
            else:
                if _unchecked_external_call(sl, result.taint_keys, value_keys):
                    nocheck_by_event.setdefault(logop.topic0, []).append(sl)

    def event_name(topic0):
        sig = sigdb.topic_signature(topic0) if (sigdb and topic0 is not None) else None
        return _event_label(topic0, sig)

    def confidence(topic0):
        return "INCOMPLETE" if topic0 in incomplete_events else "POTENTIAL"

    if strict_eq2:
        findings.extend(_detect_strict_structural(icfg, logops, event_name))
    else:
        for topic0, slices in sorted(il_by_event.items(), key=lambda kv: kv[0] or 0):
            findings.append(BytecodeFinding(
                kind="INCONSISTENT_LOGGING",
                condition="NO_TAINT_RELATED_SSTORE",
                topic0=topic0,
                event=event_name(topic0),
                contract=icfg.origin,
                confidence=confidence(topic0),
                entries=tuple(sorted({s.entry_function for s in slices})),
                paths=tuple(_path_summary(s) for s in slices),
            ))

    for topic0, pairs in sorted(tainted_by_event.items(), key=lambda kv: kv[0] or 0):
        public_entries = sorted({
            entry for entry, sl in pairs
            if icfg.functions[entry].is_public
        })
        if len(public_entries) > 1:
            findings.append(BytecodeFinding(
                kind="EVENT_COUNTERFEITING",
                condition="MULTI_TAINTED_PATHS",
                topic0=topic0,
                event=event_name(topic0),
                contract=icfg.origin,
                confidence=confidence(topic0),
                entries=tuple(public_entries),
                paths=tuple(_path_summary(s) for _, s in pairs),
            ))

    for topic0, slices in sorted(nocheck_by_event.items(), key=lambda kv: kv[0] or 0):
        findings.append(BytecodeFinding(
            kind="EVENT_COUNTERFEITING",
            condition="NO_CONSTRAINT_EXTERNAL_CALL",
            topic0=topic0,
            event=event_name(topic0),
            contract=icfg.origin,
            confidence=confidence(topic0),
            entries=tuple(sorted({s.entry_function for s in slices})),
            paths=tuple(_path_summary(s) for s in slices),
        ))

    return sorted(findings, key=BytecodeFinding.sort_key)


def _detect_strict_structural(icfg: Icfg, logops: list[LogOp], event_name) -> list[BytecodeFinding]:
    """Literal per-function rule: flag an emitting function only when it
    has no conditional jump at all, or touches no storage at all."""
    out: list[BytecodeFinding] = []
    for logop in logops:
        fn = icfg.functions[logop.function]
        ops = [t.op for off in fn.block_offsets for t in icfg.lifted[off].tac]
        no_constraint = "JUMPI" not in ops
        no_storage = "SLOAD" not in ops and "SSTORE" not in ops
        if no_constraint or no_storage:
            out.append(BytecodeFinding(
                kind="INCONSISTENT_LOGGING",
                condition="STRICT_STRUCTURAL",
                topic0=logop.topic0,
                event=event_name(logop.topic0),
                contract=icfg.origin,
                confidence="POTENTIAL",
                entries=(logop.function,),
                paths=(),
            ))
    return sorted(out, key=BytecodeFinding.sort_key)
