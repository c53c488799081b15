"""Basic-block construction and static jump resolution.

Jump targets are read from the blocks' three-address code: the target
is the variable a JUMP or JUMPI consumes first.  It is known when that
variable is a constant, or an AND or ADD folded from constants.  A
target the block takes from its entry stack (the return jump of an
internal call) is every constant that reaches that slot, through any
number of blocks that pass the slot along; the same flow tells which
JUMPs are calls.  Whatever is still unknown stays marked unresolved
rather than being guessed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..evm.disasm import Instruction
from ..evm.opcodes import TERMINATORS

if TYPE_CHECKING:
    from .tac import LiftedBlock

UMAX = (1 << 256) - 1

_FOLDS = {"AND": operator.and_, "ADD": lambda a, b: (a + b) & UMAX}

# the EVM stack holds 1,024 words, so no deeper entry slot exists
STACK_SLOTS = 1024


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    offset: int
    instructions: list[Instruction]
    terminator: str = "FALLTHROUGH"
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)
    has_unresolved_jump: bool = False
    invalid: bool = False
    invalid_reason: str | None = None
    # a JUMP to an address taken from the entry stack: a return to the caller
    returns_via_entry_slot: bool = False
    # internal calls this block's JUMP makes: callee entry -> return block
    calls: dict[int, int] = field(default_factory=dict)

    @property
    def end_offset(self) -> int:
        last = self.instructions[-1]
        return last.offset + last.size

    def __repr__(self) -> str:
        return f"<block {self.offset:#x} {self.terminator} -> {[hex(s) for s in self.successors]}>"


def build_blocks(instructions: list[Instruction]) -> dict[int, BasicBlock]:
    """Split an instruction stream into basic blocks.

    A block starts at offset 0, at every JUMPDEST, and right after every
    terminator; it ends at the next terminator or leader.
    """
    blocks: dict[int, BasicBlock] = {}
    block = None
    for ins in instructions:
        if block is None or ins.mnemonic == "JUMPDEST" or block.terminator != "FALLTHROUGH":
            if block is not None and block.terminator in ("FALLTHROUGH", "JUMPI"):
                block.successors.append(ins.offset)
            block = blocks[ins.offset] = BasicBlock(ins.offset, [])
        block.instructions.append(ins)
        if ins.mnemonic in TERMINATORS:
            block.terminator = ins.mnemonic
    return blocks


def fold_constants(lifted: dict[int, LiftedBlock], consts: dict[str, int]) -> dict[str, int]:
    """``consts`` plus every AND/ADD result computable from it.

    These are the values jump resolution reads.  They stay apart from
    the constants map, which taint uses to address memory.
    """
    values = dict(consts)
    for lb in lifted.values():
        for t in lb.tac:
            if t.op in _FOLDS and t.uses[0] in values and t.uses[1] in values:
                values[t.defs[0]] = _FOLDS[t.op](values[t.uses[0]], values[t.uses[1]])
    return values


def resolve_jumps(blocks: dict[int, BasicBlock], lifted: dict[int, LiftedBlock],
                  values: dict[str, int]) -> None:
    """Resolve static jump targets, marking the jumps left unresolved.

    ``values`` maps variables of the lifted blocks to known constants
    (see ``fold_constants``).  Resolved targets must land on a JUMPDEST:
    a constant target that does not is dropped and the block marked
    invalid instead of growing a bogus edge.

    Targets taken from the entry stack come from one worklist fixpoint
    over (block, entry slot) facts.  A fact ``(r, c, t)`` at ``(b, k)``
    says that block ``c`` leaves the constant ``r`` in an exit slot it
    hands to ``t``, and that this slot reaches entry slot ``k`` of ``b``
    through any blocks that pass it along.  Only the slots such a jump
    reads, directly or through such blocks, are followed, none deeper
    than the EVM stack, and each target found adds its edge at once.
    The same facts tell which JUMPs are calls (``BasicBlock.calls``).
    """
    if not blocks:
        return
    jumpdests = {b.offset for b in blocks.values()
                 if b.instructions and b.instructions[0].mnemonic == "JUMPDEST"}

    if 0 in blocks and lifted[0].extern_consumed > 0:
        # the entry stack is empty, so drawing from it is an underflow
        blocks[0].invalid = True
        blocks[0].invalid_reason = "StackUnderflow(0x0)"

    def add_target(block: BasicBlock, target: int) -> bool:
        """Add the edge to ``target``; True if it is new."""
        if target not in jumpdests:
            block.invalid = True
            block.invalid_reason = f"jump to non-JUMPDEST {target:#x}"
        elif target not in block.successors:
            block.successors.append(target)
            return True
        return False

    slot_jumps: dict[int, int] = {}  # block -> entry slot holding its target
    for block in blocks.values():
        block.predecessors = []
        if block.terminator not in ("JUMP", "JUMPI"):
            continue
        lb = lifted[block.offset]
        target = lb.tac[-1].uses[0]
        slot = lb.entry_slot(target)
        if target in values:
            add_target(block, values[target])
        elif slot is None:
            block.has_unresolved_jump = True
        else:
            slot_jumps[block.offset] = slot
            block.returns_via_entry_slot = block.terminator == "JUMP"
    for block in blocks.values():
        for succ in block.successors:
            blocks[succ].predecessors.append(block.offset)

    needed: dict[int, set[int]] = {b: set() for b in blocks}
    facts: dict[tuple[int, int], set[tuple[int, int, int]]] = {}
    feeds: dict[tuple[int, int], set[tuple[int, int]]] = {}  # slot -> slots it reaches
    # ("edge", block, predecessor, _) | ("need", block, slot, _) | ("facts", block, slot, new)
    work: list[tuple] = [("need", b, k, 0) for b, k in slot_jumps.items()]

    def add(b: int, k: int, new: set[tuple[int, int, int]]) -> None:
        have = facts.setdefault((b, k), set())
        if not new <= have:
            work.append(("facts", b, k, new - have))
            have |= new

    while work:
        kind, b, x, new = work.pop()
        if kind == "facts":
            for dst in feeds.get((b, x), ()):
                add(*dst, new)
            if slot_jumps.get(b) == x:
                work += [("edge", r, b, 0) for r, _, _ in new if add_target(blocks[b], r)]
            continue
        if kind == "edge":
            blocks[b].predecessors.append(x)
            flows = [(x, k) for k in needed[b]]
        else:
            if x in needed[b] or x >= STACK_SLOTS:
                continue
            needed[b].add(x)
            flows = [(p, x) for p in blocks[b].predecessors]
        for p, k in flows:
            lb = lifted[p]
            depth = len(lb.exit_stack)  # deeper exit slots pass entry slots along
            v = lb.exit_stack[k] if k < depth else None
            j = lb.entry_slot(v) if v else k - depth + lb.extern_consumed
            if v in values:
                add(b, k, {(values[v], p, b)})
            elif j is not None:
                feeds.setdefault((p, j), set()).add((b, k))
                work.append(("need", p, j, 0))
                if (p, j) in facts:
                    add(b, k, facts[(p, j)])

    returned: dict[tuple[int, int], set[int]] = {}  # (call block, callee) -> return blocks
    for off, slot in slot_jumps.items():
        block = blocks[off]
        block.successors.sort()
        found = facts.get((off, slot), set())
        block.has_unresolved_jump = not found
        for r, c, t in found:
            if block.returns_via_entry_slot and r in jumpdests:
                returned.setdefault((c, t), set()).add(r)
    # a JUMP is a call when an address it leaves on the stack comes back
    # to a return jump; the topmost such address is the return block
    for (off, callee), back in sorted(returned.items()):
        pushed = (values.get(v) for v in lifted[off].exit_stack)
        ret = next((r for r in pushed if r in back and r != callee), None)
        if blocks[off].terminator == "JUMP" and ret is not None:
            blocks[off].calls[callee] = ret
    for block in blocks.values():
        block.predecessors.sort()
