"""Per-block conversion of stack code into three-address code.

Each block is run over a symbolic stack of variable names.  PUSH
becomes a CONST definition, DUP/SWAP/POP only rearrange the stack and
emit nothing, and every other opcode becomes one TAC instruction whose
uses are the popped variables, top of stack first.  Values the block
takes from its entry stack appear as placeholder variables
``S<k>@<block>``, slot 0 being the entry top; the ICFG layer later
stitches those to predecessor exit slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..evm.opcodes import BY_BYTE
from .blocks import BasicBlock


@dataclass(slots=True)
class TacInstruction:
    """A slotted record that nothing changes once it is built."""

    pc: int
    op: str
    defs: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()
    const: int | None = None

    @property
    def variables(self) -> tuple[str, ...]:
        return self.defs + self.uses

    def __str__(self) -> str:
        lhs = ", ".join(self.defs)
        if self.op == "CONST":
            return f"{self.pc:#06x}: {lhs} = {self.const:#x}"
        rhs = f"{self.op}({', '.join(self.uses)})"
        return f"{self.pc:#06x}: {lhs + ' = ' if lhs else ''}{rhs}"


@dataclass
class LiftedBlock:
    """TAC for one basic block plus its stack interface."""

    offset: int
    tac: list[TacInstruction]
    exit_stack: list[str] = field(default_factory=list)  # top first
    extern_consumed: int = 0

    def exit_var(self, k: int) -> str:
        """Variable occupying exit slot ``k``; passthrough slots map to entry slots."""
        if k < len(self.exit_stack):
            return self.exit_stack[k]
        return extern_var(self.offset, k - len(self.exit_stack) + self.extern_consumed)

    def entry_slot(self, var: str) -> int | None:
        """``k`` if ``var`` is this block's entry-stack slot ``k``, else None."""
        name, _, block = var.partition("@")
        return int(name[1:]) if block == f"{self.offset:#x}" else None


def extern_var(block_offset: int, k: int) -> str:
    return f"S{k}@{block_offset:#x}"


class _VarSource:
    def __init__(self, start: int = 0) -> None:
        self.counter = start


# per byte: (mnemonic without its number, mnemonic, pops, pushes); a DUPn
# needs n slots and a SWAPn n + 1, which are their pops
_LIFT = [(info.mnemonic.rstrip("0123456789"), info.mnemonic, info.pops, info.pushes)
         for info in BY_BYTE]


def lift_block(block: BasicBlock, vars_: Optional[_VarSource] = None) -> LiftedBlock:
    """Destackify one block. ``vars_`` supplies globally fresh names."""
    vars_ = vars_ or _VarSource()
    counter = vars_.counter
    offset = block.offset
    stack: list[str] = []  # top last
    consumed = 0
    tac: list[TacInstruction] = []
    emit = tac.append

    for ins in block.instructions:
        kind, name, pops, pushes = _LIFT[ins.opcode]
        if kind == "PUSH":
            v = f"V{counter}"
            counter += 1
            emit(TacInstruction(ins.offset, "CONST", (v,), (), ins.push_value or 0))  # PUSH0: None
            stack.append(v)
            continue
        if len(stack) < pops:
            # draw the entry slots the stack lacks, slot 0 right under it
            k = consumed + pops - len(stack)
            stack[:0] = [extern_var(offset, j) for j in range(k - 1, consumed - 1, -1)]
            consumed = k
        if kind == "DUP":
            stack.append(stack[-pops])
        elif kind == "SWAP":
            stack[-1], stack[-pops] = stack[-pops], stack[-1]
        elif kind == "POP":
            stack.pop()
        elif kind != "JUMPDEST":
            uses: tuple[str, ...] = ()
            if pops:
                uses = tuple(stack[:-pops - 1:-1])
                del stack[-pops:]
            defs: tuple[str, ...] = ()
            if pushes:  # one value: only DUP and SWAP leave more
                defs = (f"V{counter}",)
                counter += 1
                stack.append(defs[0])
            emit(TacInstruction(ins.offset, name, defs, uses))

    vars_.counter = counter
    return LiftedBlock(offset=offset, tac=tac, exit_stack=stack[::-1], extern_consumed=consumed)
