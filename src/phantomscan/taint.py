"""Backward taint analysis from LOG sites over the lifted ICFG.

For every LOG instruction the engine walks reverse paths to function
entries with no depth limit, carrying which logged values derive from
transaction input (calldata, caller, call value) and which values
share an instruction, and stops where a finished walk left the same
state (the exploded-supergraph reachability of IFDS, Reps, Horwitz and
Sagiv, POPL '95): a site yields one path per distinct (entry, state),
its verdicts read off that state.  It flags two situations:

* a logged value flows straight from input to the log with no
  taint-related storage write on the way (the contract records nothing
  that anchors what it announces), and
* an emission that depends on no input at all but follows an external
  call whose outcome nothing checks, or one event signature reachable
  with input-derived values through several public entry points.

Variables are compared by value key, not by name: reads of the same
environment fact (CALLDATALOAD of one constant offset, CALLER,
CALLVALUE, ORIGIN, ADDRESS) denote one value however many times the
code performs them.  Everything else keeps per-definition identity,
named apart per scope: the walk steps a block under the function and
call context it visits it in, so each run of a helper on a path has
values of its own (the per-procedure-instance view of IFDS).

Memory is modelled only where LOG and KECCAK-style consumers need it:
constant-offset MSTOREs are matched per 32-byte word within the whole
unique-predecessor block chain leading to the consumer; anything else,
an MCOPY in that chain, a store at an unknown address, or an MSTORE8
into a logged word, nearer the consumer than that word's store included,
becomes an opaque region variable fed by every store in scope, which
keeps the analysis conservative instead of silently dropping dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evm.opcodes import ENTRY_POINT_OPS, EXTERNAL_CALLS
from .lifter.functions import Icfg
from .lifter.tac import TacInstruction, extern_var

DYNAMIC_SIGNATURE = "DYNAMIC_SIGNATURE"

MAX_PATHS = 256  # completed paths per LOG site; past it the event's findings are INCOMPLETE
CALLS, CHECKS = ("calls",), ("checks",)  # the sentinels of `_Walk`'s union-find


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
    verdicts: frozenset[str] = frozenset()  # `_Walk.seen` at the entry, plus "unchecked"

    @property
    def block_trace(self) -> tuple[tuple[str, int], ...]:
        return tuple((t.defs[0], t.pc) for t in self.instrs if t.op == "SEGMENT")


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


# --------------------------------------------------------------------------
# value keys
# --------------------------------------------------------------------------

def _key(var: str, value_keys: dict[str, tuple], scope: int = 0) -> tuple:
    return value_keys.get(var) or ("v", var, scope)


# --------------------------------------------------------------------------
# log-op extraction
# --------------------------------------------------------------------------

def extract_log_ops(icfg: Icfg) -> list[LogOp]:
    """Every LOG site, once per function that owns its block: a block a
    function tail-jumps into belongs to the jumping function too, and
    each owner reaches the LOG from its own callers."""
    owners: dict[int, list[str]] = {}
    for name in sorted(icfg.functions):
        for off in icfg.functions[name].block_offsets:
            owners.setdefault(off, []).append(name)

    return [_make_log_op(icfg, name, off, idx, t)
            for off in sorted(owners)
            for idx, t in enumerate(icfg.lifted[off].tac)
            if t.op.startswith("LOG") and t.op != "LOG"
            for name in owners[off]]


def _make_log_op(icfg: Icfg, fn_name: str, block: int, idx: int,
                 instr: TacInstruction) -> LogOp:
    consts = icfg.consts
    k = int(instr.op[3:])
    topic_vars = instr.uses[2:]
    topic0 = consts.get(topic_vars[0]) if k >= 1 else None
    extra_topics = topic_vars[1:] if k >= 1 else ()

    off_var, size_var = instr.uses[0], instr.uses[1]
    chain = _block_chain(icfg, fn_name, block)
    stores, copied = _mstores_before(icfg, chain, idx)

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
        opaque = copied or len(data_vars) < (size + 31) // 32
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
    pred = icfg.functions[fn_name].pred
    chain = [block]
    seen = {block}
    while len(pred.get(chain[-1], [])) == 1 and pred[chain[-1]][0] not in seen:
        chain.append(pred[chain[-1]][0])
        seen.add(chain[-1])
    return chain


def _mstores_before(icfg: Icfg, chain: list[int], idx: int
                    ) -> tuple[list[tuple[int | None, str]], bool]:
    """(constant address, value var) for stores preceding position idx,
    nearest first, and whether an MCOPY precedes it.  Unknown addresses
    come through as None, and so does a store that one at an unknown
    address follows, which may have overwritten its word; a known
    address once, until an MCOPY is passed.  An MSTORE8 writes one byte:
    at an unknown address it counts as a store there; at a known one it
    comes through as None, and so does every older store whose word holds
    that byte, unless a nearer store's word already holds it."""
    found: list[tuple[int | None, str]] = []
    seen_addrs: set[int] = set()
    bytes_stored: list[int] = []  # the known addresses of MSTORE8s passed
    copied = blurred = False
    consts = icfg.consts
    for pos, off in enumerate(chain):
        tac = icfg.lifted[off].tac
        upto = idx if pos == 0 else len(tac)
        for t in reversed(tac[:upto]):
            copied = copied or t.op == "MCOPY"
            if t.op not in ("MSTORE", "MSTORE8"):
                continue
            addr = consts.get(t.uses[0])
            if t.op == "MSTORE8" and addr is not None:
                if not copied and any(a <= addr < a + 32 for a in seen_addrs):
                    continue  # a nearer store already covers this byte
                bytes_stored.append(addr)
                found.append((None, t.uses[1]))
                continue
            if addr is not None and addr in seen_addrs and not copied:
                continue  # a nearer store already covers this word
            if addr is not None:
                seen_addrs.add(addr)
            blurred = blurred or addr is None
            overwritten = blurred or any(addr <= b < addr + 32 for b in bytes_stored)
            found.append((None if overwritten else addr, t.uses[1]))
    return found, copied


# --------------------------------------------------------------------------
# the reverse walk
# --------------------------------------------------------------------------

class _Walk:
    """One path's state, changed in place: the tainted value keys, the
    verdicts `seen` ("source": a tainted entry-point read, "anchor": a
    taint-related SSTORE, "call": an external call), and per verdict the
    keys `waiting` whose taint decides it.  A union-find (`parent`, and
    `size` per root) joins the keys of each instruction, CALLS with the
    seeds and every external call's result, and CHECKS with the condition
    of every JUMPI before the first call met; the path crossed an
    unchecked call when the two are apart at its entry.  Every change
    goes on `trail` as (undo, member)."""

    def __init__(self, value_keys: dict[str, tuple], seed: tuple[str, ...]) -> None:
        self.value_keys, self.trail, self.seen = value_keys, [], set()
        self.taint = {_key(v, value_keys) for v in seed}
        self.waiting: dict[str, set] = {"source": set(), "anchor": set()}
        self.parent, self.size = {}, {}
        self.union(self.taint | {CALLS})

    def add(self, members: set, new) -> None:
        new = [m for m in new if m not in members]
        members.update(new)
        self.trail += [(members.discard, m) for m in new]

    def find(self, key: tuple) -> tuple:
        while key in self.parent:
            key = self.parent[key]
        return key

    def union(self, keys: set) -> None:
        roots = {self.find(k) for k in keys}
        if len(roots) < 2:
            return
        top = max(roots, key=lambda r: self.size.get(r, 1))
        for root in roots - {top}:
            self.parent[root] = top
            self.size[top] = self.size.get(top, 1) + self.size.get(root, 1)
            self.trail.append((self.unlink, root))

    def unlink(self, root: tuple) -> None:
        self.size[self.parent.pop(root)] -= self.size.get(root, 1)

    def open(self) -> bool:
        """No tainted entry-point read, and the sentinels still apart."""
        return "source" not in self.seen and self.find(CALLS) != self.find(CHECKS)

    def classes(self, keys) -> frozenset:
        """The classes of `keys` and the sentinels that hold two or more."""
        groups: dict[tuple, set] = {}
        for k in (*keys, CALLS, CHECKS):
            groups.setdefault(self.find(k), set()).add(k)
        return frozenset(frozenset(g) for g in groups.values() if len(g) > 1)

    def step(self, instrs: list[TacInstruction], scope: int = 0, block_scope: int = 0) -> None:
        """The single-pass rule: an instruction touching a tainted value
        key taints all of its keys (SEGMENT and ENTRY have only one).
        While `open`, the union-find joins them.  Variables are keyed in
        `scope`, except that a crossing's PHI keys its def, an entry slot
        of the block crossed from, in that block's `block_scope`."""
        join = self.open()
        vk = self.value_keys
        for t in instrs:
            if t.op == "PHI":
                keys = {_key(t.defs[0], vk, block_scope), _key(t.uses[0], vk, scope)}
            else:
                keys = {_key(v, vk, scope) for v in t.variables}
            new = keys - self.taint
            if new and len(new) < len(keys):
                self.add(self.taint, new)
                self.add(self.seen, [v for v, w in self.waiting.items() if not new.isdisjoint(w)])
            if t.op in EXTERNAL_CALLS:
                self.add(self.seen, ["call"])
                keys.add(CALLS)
            elif t.op == "JUMPI" and "call" not in self.seen:
                keys.add(CHECKS)
            elif t.op == "SSTORE" or t.op in ENTRY_POINT_OPS and t.defs:
                verdict = "anchor" if t.op == "SSTORE" else "source"
                watched = keys if t.op == "SSTORE" else {_key(t.defs[0], vk, scope)}
                self.add(self.waiting[verdict], watched)
                if watched & self.taint:
                    self.add(self.seen, [verdict])
            if join and len(keys) > 1:
                self.union(keys)


def backward_slice(icfg: Icfg, logop: LogOp) -> tuple[list[PathSlice], bool]:
    """Reverse paths from the log site to function entries, one per
    distinct (entry, state), each with its `_Walk` verdicts; and whether
    MAX_PATHS ran out.  Depth-first, the walk tries predecessors, then
    return edges, then call edges, crossing each edge at most once per
    path and call context, and entering no call already in the context.
    It crosses every call through its callee, never along the caller's
    own call-block -> return-block edge.  A visit steps its block in the
    scope of its function and call context, and a crossing's PHIs key
    their defs in the block's scope and their uses in the predecessor's,
    so every run of a block on a path names values of its own, except
    around a loop.  Each visit has a bridge of its own: the block's entry
    slots that carry the slots its successor on the path reads.  The walk
    stops at a block in a state a finished walk left there: call context,
    bridge, and the state a later step can read: of the environment keys
    and the block's own and bridged entry slots in its scope, those
    tainted or waiting and, while the unchecked-call verdict is open,
    their classes.  A walk is recorded as finished only if nothing below
    it read what the state leaves out, an edge its path had crossed
    before; this one rule keeps loops exact, as a path back into a loop
    block tries again the edge it left it by.  Paths share their common
    part through (segment, rest) links."""
    value_keys, env = icfg.value_keys, icfg.env_keys
    tac = icfg.lifted[logop.block].tac
    log_idx = next(i for i, t in enumerate(tac) if t.pc == logop.pc and t.op.startswith("LOG"))
    prefix: list[TacInstruction] = [
        TacInstruction(pc=logop.block, op="SEGMENT", defs=(logop.function,)),
        tac[log_idx],
        *logop.synthetic,
        *reversed(tac[:log_idx]),
    ]
    walk = _Walk(value_keys, logop.seed_vars)
    if not icfg.calls_out:
        walk.union({CALLS, CHECKS})  # no call to check: the verdict is settled
    walk.step(prefix)

    paths: list[PathSlice] = []
    scopes = {(logop.function, ()): 0}  # (function, call context) -> scope
    crossed: dict[tuple, int] = {}  # edge on the path -> trail mark of the visit that crossed it
    done: set[tuple] = set()
    reads: dict[tuple[int, int], set] = {}  # (block, scope) -> env and the block's slot keys
    low: list[int] = []  # per open visit: the lowest trail mark its subtree read below
    # ("visit", fn, block, context, scope, bridge, link) | ("cross", block, scope,
    # bridge, link, mark, pred_fn, pred_block, pred_context, pred_scope, edge_key)
    # | ("undo", mark) | ("finish", state, mark) | ("entry", fn, block, link)
    stack: list[tuple] = [("visit", logop.function, logop.block, (), 0, frozenset(), (prefix, None))]

    while stack:
        item = stack.pop()
        kind = item[0]
        if kind == "undo":
            while len(walk.trail) > item[1]:
                undo, member = walk.trail.pop()
                undo(member)
        elif kind == "finish":
            _, state, mark = item
            below = low.pop()
            if low:
                low[-1] = min(low[-1], below)
            if below >= mark:
                done.add(state)
        elif kind == "cross":
            (_, block, scope, bridge, link, mark,
             pred_fn, pred_block, context, pred_scope, edge_key) = item
            if edge_key in crossed:
                low[-1] = min(low[-1], crossed[edge_key])
                continue
            stack.append(("undo", len(walk.trail)))
            crossed[edge_key] = mark
            walk.trail.append((crossed.pop, edge_key))
            plb = icfg.lifted[pred_block]
            slots = sorted(bridge.union(range(icfg.lifted[block].extern_consumed)))
            srcs = {k: plb.exit_var(k) for k in slots}
            bridged = frozenset(plb.entry_slot(src) for src in srcs.values()) - {None}
            seg = [TacInstruction(pc=block, op="PHI", defs=(f"S{k}@{block:#x}",), uses=(src,))
                   for k, src in srcs.items()]
            seg.append(TacInstruction(pc=pred_block, op="SEGMENT", defs=(pred_fn,)))
            seg += reversed(plb.tac)
            walk.step(seg, pred_scope, scope)
            stack.append(("visit", pred_fn, pred_block, context, pred_scope, bridged, (seg, link)))
        elif kind == "visit":
            _, fn_name, block, context, scope, bridge, link = item
            fn = icfg.functions[fn_name]
            if (block, scope) not in reads:
                reads[block, scope] = env.union(("v", v, scope) for t in icfg.lifted[block].tac
                                                for v in t.variables if v[0] == "S")
            read = reads[block, scope]
            if bridge:
                read = read.union(("v", extern_var(block, k), scope) for k in bridge)
            state = (scope, block, bridge, "call" in walk.seen, frozenset(read & walk.taint),
                     *(v in walk.seen or frozenset(read & w) for v, w in walk.waiting.items()),
                     walk.open() and walk.classes(read))
            if state in done:
                continue
            mark = len(walk.trail)
            low.append(mark)
            stack.append(("finish", state, mark))
            returns = icfg.return_edges_at(fn_name, block)
            call_blocks = {e.call_block for e in returns}
            moves = [(fn_name, pred, context, scope, ("cfg", scope, pred, block))
                     for pred in fn.pred.get(block, []) if pred not in call_blocks]
            for edge in returns:
                if edge in context:
                    continue
                inner = context + (edge,)
                inner_scope = scopes.setdefault((edge.callee, inner), len(scopes))
                moves += [(edge.callee, exit_block, inner, inner_scope,
                           ("ret", scope, edge.call_block, exit_block))
                          for exit_block in icfg.callee_exit_blocks(edge)]
            if block == fn.entry:
                if context:
                    callers = [context[-1]] if context[-1].callee == fn_name else []
                    context = context[:-1]
                else:
                    callers = icfg.edges_into(fn_name)
                    if not callers:
                        stack.append(("entry", fn_name, block, link))
                for edge in callers:
                    outer_scope = scopes.setdefault((edge.caller, context), len(scopes))
                    moves.append((edge.caller, edge.call_block, context, outer_scope,
                                  ("call", outer_scope, edge.call_block, fn_name)))
            stack += [("cross", block, scope, bridge, link, mark, *move) for move in reversed(moves)]
        else:
            _, fn_name, block, link = item
            if len(paths) >= MAX_PATHS:
                return paths, True
            segments = []
            while link is not None:
                seg, link = link
                segments.append(seg)
            instrs = [t for seg in reversed(segments) for t in seg]
            instrs.append(TacInstruction(pc=block, op="ENTRY", defs=(fn_name,)))
            traversed = {t.defs[0] for t in instrs if t.op == "SEGMENT"}
            unchecked = {"unchecked"} if "call" in walk.seen and walk.open() else set()
            paths.append(PathSlice(
                logop=logop,
                instrs=instrs,
                entry_function=fn_name,
                entry_block=block,
                crossed_functions=tuple(sorted(traversed - {fn_name})),
                verdicts=frozenset(walk.seen | unchecked),
            ))
    return paths, False


# --------------------------------------------------------------------------
# taint propagation
# --------------------------------------------------------------------------

def taint_analysis(slice_: PathSlice, value_keys: dict[str, tuple],
                   seed: tuple[str, ...] | None = None) -> TaintResult:
    """The walk's single reverse pass over one flattened path, all of it
    in one scope: a helper the path runs twice names one value per
    variable, as the walk does not.  Sources are entry-point reads whose
    result ends up in the final taint set."""
    walk = _Walk(value_keys, slice_.logop.seed_vars if seed is None else seed)
    walk.step(slice_.instrs)

    sources: list[tuple[str, int | None]] = []
    for t in slice_.instrs:
        if t.op not in ENTRY_POINT_OPS or not t.defs:
            continue
        key = _key(t.defs[0], value_keys)
        if key in walk.taint:
            # a CALLDATALOAD of a constant offset is keyed by that offset
            sources.append((t.op, key[1] if key[0] == "CALLDATALOAD" else None))
    return TaintResult(tainted=bool(sources), taint_keys=walk.taint, sources=sources)


# --------------------------------------------------------------------------
# detection
# --------------------------------------------------------------------------

def _event_label(topic0: int | None, sig: str | None) -> str:
    if topic0 is None:
        return DYNAMIC_SIGNATURE
    if sig:
        return sig
    return f"0x{topic0:064x}"


def _path_summary(slice_: PathSlice) -> str:
    blocks = "->".join(f"{f}:{b:#x}" for f, b in reversed(slice_.block_trace))
    return f"{slice_.entry_function} [{blocks}] log@{slice_.logop.pc:#x}"


def detect(icfg: Icfg, sigdb=None, strict_eq2: bool = False) -> list[BytecodeFinding]:
    """Run the full bytecode-level analysis.  Under `strict_eq2` the literal
    per-function rule, STRICT_STRUCTURAL (an emitting function with no
    conditional jump at all, or touching no storage at all), replaces
    NO_TAINT_RELATED_SSTORE.  Findings come in the order found: the
    STRICT_STRUCTURAL ones by log site, then one per (kind, condition,
    event) in the order of its first path."""
    logops = extract_log_ops(icfg)
    groups: dict[tuple, list[PathSlice]] = {}  # (kind, condition, topic0) -> its paths
    incomplete_events: set = set()
    findings: list[BytecodeFinding] = []

    def finding(kind: str, condition: str, topic0, entries, slices=()) -> BytecodeFinding:
        sig = sigdb.topic_signature(topic0) if (sigdb and topic0 is not None) else None
        return BytecodeFinding(
            kind=kind,
            condition=condition,
            topic0=topic0,
            event=_event_label(topic0, sig),
            contract=icfg.origin,
            # a finding read off no path is settled whatever the path budget did
            confidence="INCOMPLETE" if slices and topic0 in incomplete_events else "POTENTIAL",
            entries=tuple(sorted(entries)),
            paths=tuple(_path_summary(s) for s in slices),
        )

    for logop in logops:
        slices, exceeded = backward_slice(icfg, logop)
        if exceeded:
            incomplete_events.add(logop.topic0)
        if strict_eq2:
            fn = icfg.functions[logop.function]
            ops = {t.op for off in fn.block_offsets for t in icfg.lifted[off].tac}
            if "JUMPI" not in ops or not ops & {"SLOAD", "SSTORE"}:
                findings.append(finding("INCONSISTENT_LOGGING", "STRICT_STRUCTURAL",
                                        logop.topic0, {logop.function}))
        for sl in slices:
            if "source" in sl.verdicts:
                keys = [("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS")]
                if not strict_eq2 and "anchor" not in sl.verdicts:
                    keys.append(("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE"))
            elif "unchecked" in sl.verdicts:
                keys = [("EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL")]
            else:
                continue
            for kind, condition in keys:
                groups.setdefault((kind, condition, logop.topic0), []).append(sl)

    for (kind, condition, topic0), slices in groups.items():
        entries = {s.entry_function for s in slices}
        if condition == "MULTI_TAINTED_PATHS":
            entries = {e for e in entries if icfg.functions[e].is_public}
            if len(entries) < 2:
                continue
        findings.append(finding(kind, condition, topic0, entries, slices))
    return findings
