"""Basic-block construction and static jump resolution.

Jump targets are read from the blocks' three-address code: the target
is the variable a JUMP or JUMPI consumes first.  It is known when that
variable is a constant, or an AND or ADD folded from constants.  A
target the block takes from its entry stack (the return jump of an
internal call) is looked up in the exit slots of its predecessors, one
level deep.  Whatever is still unknown stays marked unresolved rather
than being guessed.
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
    if not instructions:
        return {}
    leaders = {instructions[0].offset}
    for idx, ins in enumerate(instructions):
        if ins.mnemonic == "JUMPDEST":
            leaders.add(ins.offset)
        if ins.mnemonic in TERMINATORS and idx + 1 < len(instructions):
            leaders.add(instructions[idx + 1].offset)

    blocks: dict[int, BasicBlock] = {}
    current: list[Instruction] = []
    for ins in instructions:
        if ins.offset in leaders and current:
            blocks[current[0].offset] = BasicBlock(current[0].offset, current)
            current = []
        current.append(ins)
    if current:
        blocks[current[0].offset] = BasicBlock(current[0].offset, current)

    ordered = sorted(blocks)
    for i, off in enumerate(ordered):
        block = blocks[off]
        last = block.instructions[-1]
        if last.mnemonic in TERMINATORS:
            block.terminator = last.mnemonic
            if last.mnemonic == "JUMPI" and i + 1 < len(ordered):
                block.successors.append(ordered[i + 1])
        else:
            block.terminator = "FALLTHROUGH"
            if i + 1 < len(ordered):
                block.successors.append(ordered[i + 1])
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
                  values: dict[str, int]) -> int:
    """Resolve static jump targets; returns the number of unresolved jumps.

    ``values`` maps variables of the lifted blocks to known constants
    (see ``fold_constants``).  Resolved targets must land on a JUMPDEST:
    a constant target that does not is dropped and the block marked
    invalid instead of growing a bogus edge.
    """
    if not blocks:
        return 0
    jumpdests = {
        b.offset for b in blocks.values()
        if b.instructions and b.instructions[0].mnemonic == "JUMPDEST"
    }

    if 0 in blocks and lifted[0].extern_consumed > 0:
        # the entry stack is empty, so drawing from it is an underflow
        blocks[0].invalid = True
        blocks[0].invalid_reason = "StackUnderflow(0x0)"

    def add_target(block: BasicBlock, target: int) -> None:
        if target in jumpdests:
            if target not in block.successors:
                block.successors.append(target)
        else:
            block.invalid = True
            block.invalid_reason = f"jump to non-JUMPDEST {target:#x}"

    pending: list[tuple[BasicBlock, int | None]] = []
    for block in blocks.values():
        if block.terminator not in ("JUMP", "JUMPI"):
            continue
        lb = lifted[block.offset]
        target = lb.tac[-1].uses[0]
        if target in values:
            add_target(block, values[target])
        else:
            pending.append((block, lb.entry_slot(target)))

    _fill_predecessors(blocks)

    # one round of cross-block propagation: a target pushed by a
    # predecessor and consumed here (the internal-call return pattern)
    for block, slot in pending:
        if slot is None:
            block.has_unresolved_jump = True
            continue
        block.returns_via_entry_slot = block.terminator == "JUMP"
        found = False
        for pred_off in block.predecessors:
            pred_val = values.get(lifted[pred_off].exit_var(slot))
            if pred_val is not None:
                add_target(block, pred_val)
                found = True
        if not found:
            block.has_unresolved_jump = True

    _fill_predecessors(blocks)
    return sum(1 for b in blocks.values() if b.has_unresolved_jump)


def _fill_predecessors(blocks: dict[int, BasicBlock]) -> None:
    for b in blocks.values():
        b.predecessors = []
    for b in blocks.values():
        for succ in b.successors:
            if succ in blocks and b.offset not in blocks[succ].predecessors:
                blocks[succ].predecessors.append(b.offset)
    for b in blocks.values():
        b.predecessors.sort()
