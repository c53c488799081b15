"""Function recovery over the block graph, plus the ICFG container.

Public functions are found by walking the selector dispatcher from
offset 0 (PUSHn selector; EQ; PUSH dest; JUMPI per branch).  Internal
helpers are the targets of the calls that jump resolution records: a
JUMP leaving a JUMPDEST offset on the stack that reaches, through any
number of blocks, a jump to a caller-supplied (entry-slot) address.
Only the dispatcher's branches bound a function: the fallback does not
follow a selector branch's edge to the entry it selects, though it owns
an entry its own code jumps to, and any other function owns every block
its entry reaches other than through a call.  So a jump into another
function's entry that is not a call (a tail jump) is an ordinary edge of
the jumping function, which then owns the target's blocks and their
exits to its own callers' return blocks.  Blocks reachable from more
than one entry are owned by each function separately, so path
enumeration never leaks between functions; a LOG-bearing helper stays a
single separate unit connected by call edges.

A function's own graph (`FunctionUnit.succ`, `pred`) steps from each call
block to its return block, for ownership and the memory model's block
chains; the taint walk never takes that step, and crosses every call
through its callee, and names a block's values apart for each function
and call context it visits the block in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .. import jsonout
from ..evm.disasm import Bytecode
from ..evm.opcodes import EXTERNAL_CALLS
from .blocks import BasicBlock, build_blocks, fold_constants, resolve_jumps
from .tac import LiftedBlock, _VarSource, lift_block


class SigDbError(ValueError):
    def __init__(self, lineno: int, reason: str) -> None:
        super().__init__(f"signature database line {lineno}: {reason}")
        self.lineno = lineno


class SigDb:
    """Flat-text signature database.

    One entry per line: an 8-hex-digit function selector or a
    64-hex-digit event topic, a space, and the textual signature.
    ``#`` comments and blank lines are ignored.
    """

    def __init__(self) -> None:
        self.selectors: dict[str, str] = {}
        self.topics: dict[str, str] = {}

    @classmethod
    def from_text(cls, text: str) -> "SigDb":
        db = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise SigDbError(lineno, "expected '<hex> <signature>'")
            key, signature = parts
            key = key.lower().removeprefix("0x")
            if "(" not in signature or not signature.endswith(")"):
                raise SigDbError(lineno, f"malformed signature {signature!r}")
            try:
                int(key, 16)
            except ValueError:
                raise SigDbError(lineno, f"bad hex key {parts[0]!r}") from None
            if len(key) == 8:
                db.selectors[key] = signature
            elif len(key) == 64:
                db.topics[key] = signature
            else:
                raise SigDbError(lineno, f"key must be 8 or 64 hex digits, got {len(key)}")
        return db

    @classmethod
    def from_file(cls, path: str | Path) -> "SigDb":
        return cls.from_text(Path(path).read_text())

    @classmethod
    def empty(cls) -> "SigDb":
        return cls()

    def selector_signature(self, selector: int) -> str | None:
        return self.selectors.get(f"{selector & 0xFFFFFFFF:08x}")

    def topic_signature(self, topic0: int) -> str | None:
        return self.topics.get(f"{topic0:064x}")

    @staticmethod
    def bare_name(signature: str) -> str:
        return signature.split("(", 1)[0]


@dataclass
class FunctionUnit:
    name: str
    entry: int
    selector: str | None = None  # "0x" + 8 hex digits
    signature: str | None = None
    is_public: bool = False
    block_offsets: set[int] = field(default_factory=set)
    succ: dict[int, list[int]] = field(default_factory=dict)
    pred: dict[int, list[int]] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<fn {self.name} entry={self.entry:#x} blocks={len(self.block_offsets)}>"


@dataclass(frozen=True)
class CallEdge:
    caller: str
    call_block: int
    callee: str
    return_block: int


@dataclass
class Icfg:
    origin: str
    blocks: dict[int, BasicBlock]
    lifted: dict[int, LiftedBlock]
    functions: dict[str, FunctionUnit]
    call_edges: list[CallEdge]
    consts: dict[str, int]  # every CONST-defined variable -> its value
    _into: dict[str, list[CallEdge]] = field(init=False, repr=False)
    _returns: dict[tuple[str, int], list[CallEdge]] = field(init=False, repr=False)
    _exits: dict[tuple[str, int], list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._into = {}
        self._returns = {}
        self._exits = {}
        for e in self.call_edges:
            self._into.setdefault(e.callee, []).append(e)
            self._returns.setdefault((e.caller, e.return_block), []).append(e)
        for callee in self._into:
            for off in sorted(self.functions[callee].block_offsets):
                for s in self.blocks[off].successors:
                    self._exits.setdefault((callee, s), []).append(off)

    @cached_property
    def value_keys(self) -> dict[str, tuple]:
        """Variables defined by environment reads -> shared value keys, so
        that reads of one fact (CALLDATALOAD of one constant offset,
        CALLER, CALLVALUE, ORIGIN, ADDRESS) denote one value."""
        keys: dict[str, tuple] = {}
        for lb in self.lifted.values():
            for t in lb.tac:
                if t.op in ("CALLER", "CALLVALUE", "ORIGIN", "ADDRESS"):
                    keys[t.defs[0]] = (t.op,)
                elif t.op == "CALLDATALOAD" and t.uses[0] in self.consts:
                    keys[t.defs[0]] = ("CALLDATALOAD", self.consts[t.uses[0]])
        return keys

    @cached_property
    def env_keys(self) -> frozenset[tuple]:
        return frozenset(self.value_keys.values())

    @cached_property
    def calls_out(self) -> bool:
        """Whether any block makes an external call."""
        return any(t.op in EXTERNAL_CALLS for lb in self.lifted.values() for t in lb.tac)

    def edges_into(self, callee: str) -> tuple[CallEdge, ...]:
        return tuple(self._into.get(callee, ()))

    def return_edges_at(self, caller: str, block: int) -> tuple[CallEdge, ...]:
        return tuple(self._returns.get((caller, block), ()))

    def callee_exit_blocks(self, edge: CallEdge) -> list[int]:
        return self._exits.get((edge.callee, edge.return_block), [])

    @property
    def unresolved_jumps(self) -> int:
        """Jumps with no known target in blocks that some function owns."""
        owned = set().union(*(fn.block_offsets for fn in self.functions.values()))
        return sum(self.blocks[off].has_unresolved_jump for off in owned)

    def to_json(self) -> str:
        doc = {
            "origin": self.origin,
            "unresolved_jumps": self.unresolved_jumps,
            "call_edges": [
                {
                    "caller": e.caller,
                    "call_block": f"{e.call_block:#x}",
                    "callee": e.callee,
                    "return_block": f"{e.return_block:#x}",
                }
                for e in sorted(self.call_edges, key=lambda e: (e.caller, e.call_block))
            ],
            "functions": {
                name: {
                    "entry": f"{fn.entry:#x}",
                    "selector": fn.selector,
                    "signature": fn.signature,
                    "public": fn.is_public,
                    "blocks": {
                        f"{off:#x}": {
                            "terminator": self.blocks[off].terminator,
                            "successors": [f"{s:#x}" for s in fn.succ.get(off, [])],
                            "unresolved": self.blocks[off].has_unresolved_jump,
                            "tac": [str(t) for t in self.lifted[off].tac],
                            "phis": self._phis(fn, off),
                        }
                        for off in sorted(fn.block_offsets)
                    },
                }
                for name, fn in sorted(self.functions.items())
            },
        }
        return jsonout.dumps(doc)

    def _phis(self, fn: FunctionUnit, off: int) -> dict[str, dict[str, str]]:
        """A join block's entry slot -> predecessor -> source variable."""
        preds = fn.pred.get(off, [])
        if len(preds) < 2:
            return {}
        return {str(k): {f"{p:#x}": self.lifted[p].exit_var(k) for p in preds}
                for k in range(self.lifted[off].extern_consumed)}

    def to_dot(self) -> str:
        lines = ["digraph icfg {", "  node [shape=box fontname=monospace];"]
        for name, fn in sorted(self.functions.items()):
            lines.append(f'  subgraph "cluster_{name}" {{')
            lines.append(f'    label="{name}";')
            for off in sorted(fn.block_offsets):
                label = f"{off:#x}"
                lines.append(f'    "{name}:{off:#x}" [label="{label}"];')
                for s in fn.succ.get(off, []):
                    lines.append(f'    "{name}:{off:#x}" -> "{name}:{s:#x}";')
            lines.append("  }")
        for e in sorted(self.call_edges, key=lambda e: (e.caller, e.call_block)):
            lines.append(
                f'  "{e.caller}:{e.call_block:#x}" -> "{e.callee}:{self.functions[e.callee].entry:#x}"'
                ' [style=dashed label="call"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _match_selector_branch(block: BasicBlock) -> int | None:
    """Return the selector constant if the block compares one and jumps."""
    if block.terminator != "JUMPI":
        return None
    push_val: int | None = None
    saw_eq_after_push = False
    for ins in block.instructions:
        if ins.operand is not None and len(ins.operand) <= 4 and ins.mnemonic.startswith("PUSH"):
            if not saw_eq_after_push:
                push_val = ins.push_value
        if ins.mnemonic == "EQ" and push_val is not None:
            saw_eq_after_push = True
    return push_val if saw_eq_after_push else None


def _walk_dispatcher(blocks: dict[int, BasicBlock]) -> list[tuple[int, int, int]]:
    """Follow the dispatch chain from offset 0: [(selector, branch block,
    entry offset)]."""
    branches: list[tuple[int, int, int]] = []
    if 0 not in blocks:
        return branches
    seen: set[int] = set()
    current = 0
    while current in blocks and current not in seen:
        seen.add(current)
        block = blocks[current]
        sel = _match_selector_branch(block)
        fallthrough = [s for s in block.successors if s > current and s == block.end_offset]
        if sel is not None:
            targets = [s for s in block.successors if s != block.end_offset]
            if targets:
                branches.append((sel, current, targets[0]))
            if not fallthrough:
                break
            current = fallthrough[0]
        elif block.terminator in ("FALLTHROUGH", "JUMPI") and fallthrough:
            # size guards and similar preamble: keep walking the chain
            current = fallthrough[0]
        else:
            break
    return branches


def _reachable(blocks: dict[int, BasicBlock], entry: int,
               call_by_block: dict[int, int],
               boundaries: set[tuple[int, int]]) -> tuple[set[int], dict[int, list[int]]]:
    """Blocks owned by a function entry, with call edges short-circuited
    to their return blocks and the (block, successor) `boundaries` left
    out."""
    owned: set[int] = set()
    succ: dict[int, list[int]] = {}
    frontier = [entry]
    while frontier:
        off = frontier.pop()
        if off in owned or off not in blocks:
            continue
        owned.add(off)
        if off in call_by_block:
            nexts = [call_by_block[off]]
        elif blocks[off].returns_via_entry_slot:
            # return-style jump to a caller-supplied address: the
            # continuation belongs to the callers, not this function
            nexts = []
        else:
            nexts = [s for s in blocks[off].successors if (off, s) not in boundaries]
        succ[off] = sorted(set(nexts))
        frontier.extend(nexts)
    return owned, succ


def build_icfg(bytecode: Bytecode, sigdb: SigDb | None = None) -> Icfg:
    """Disassembled bytecode -> functions, TAC blocks, call edges."""
    sigdb = sigdb or SigDb.empty()
    blocks = build_blocks(bytecode.instructions)
    vars_ = _VarSource()
    lifted = {off: lift_block(blocks[off], vars_) for off in sorted(blocks)}
    consts = {t.defs[0]: t.const for lb in lifted.values() for t in lb.tac if t.op == "CONST"}
    values = fold_constants(lifted, consts)
    resolve_jumps(blocks, lifted, values)

    branches = _walk_dispatcher(blocks)
    raw_call_edges = [(b, t, r) for b in sorted(blocks) for t, r in blocks[b].calls.items()]

    public_entries = {entry for _, _, entry in branches}
    helper_entries = sorted(
        {target for _, target, _ in raw_call_edges} - public_entries
    )

    functions: dict[str, FunctionUnit] = {}
    for sel, _, entry in branches:
        signature = sigdb.selector_signature(sel)
        name = SigDb.bare_name(signature) if signature else f"func_{sel:08x}"
        functions[name] = FunctionUnit(name, entry, f"0x{sel:08x}", signature, is_public=True)
    if 0 in blocks:
        # execution always starts at offset 0, so the fallback owns the
        # dispatcher chain plus whatever runs when no selector matches
        functions["fallback"] = FunctionUnit("fallback", 0, is_public=True)
    for entry in helper_entries:
        functions[f"helper_{entry:#x}"] = FunctionUnit(f"helper_{entry:#x}", entry)

    call_by_block = {b: r for b, _, r in raw_call_edges}
    selected = {(block, entry) for _, block, entry in branches}

    call_edges: list[CallEdge] = []
    for name in sorted(functions):
        fn = functions[name]
        owned, succ = _reachable(blocks, fn.entry, call_by_block,
                                  selected if name == "fallback" else set())
        fn.block_offsets = owned
        fn.succ = succ
        fn.pred = {}
        for off, nexts in succ.items():
            for s in nexts:
                fn.pred.setdefault(s, []).append(off)
        for off in fn.pred:
            fn.pred[off].sort()

    entry_to_fn = {fn.entry: fn.name for fn in functions.values()}
    for b, t, r in raw_call_edges:
        callee = entry_to_fn.get(t)
        if callee is None:
            continue
        for name, fn in functions.items():
            if b in fn.block_offsets and name != callee:
                call_edges.append(CallEdge(caller=name, call_block=b, callee=callee, return_block=r))

    return Icfg(
        origin=bytecode.origin,
        blocks=blocks,
        lifted=lifted,
        functions=functions,
        call_edges=sorted(call_edges, key=lambda e: (e.caller, e.call_block, e.callee)),
        consts=consts,
    )
