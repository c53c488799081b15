"""Per-block conversion of stack code into three-address code.

Each block is run over a symbolic stack of variable names.  PUSH
becomes a CONST definition, DUP/SWAP/POP only rearrange the stack and
emit nothing, and every other opcode becomes one TAC instruction whose
uses are the popped variables.  Values the block takes from its entry
stack appear as placeholder variables ``S<k>@<block>``; the ICFG layer
later stitches those to predecessor exit slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..evm.disasm import Instruction
from ..evm.opcodes import OPCODES
from .blocks import BasicBlock


@dataclass(frozen=True)
class TacInstruction:
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

    def extern_var(self, k: int) -> str:
        return extern_var(self.offset, k)

    def exit_var(self, k: int) -> str:
        """Variable occupying exit slot ``k``; passthrough slots map to entry slots."""
        if k < len(self.exit_stack):
            return self.exit_stack[k]
        return self.extern_var(k - len(self.exit_stack) + self.extern_consumed)

    def entry_slot(self, var: str) -> int | None:
        """``k`` if ``var`` is this block's entry-stack slot ``k``, else None."""
        name, _, block = var.partition("@")
        return int(name[1:]) if block == f"{self.offset:#x}" else None


def extern_var(block_offset: int, k: int) -> str:
    return f"S{k}@{block_offset:#x}"


class _VarSource:
    def __init__(self, start: int = 0) -> None:
        self.counter = start

    def fresh(self) -> str:
        name = f"V{self.counter}"
        self.counter += 1
        return name


def lift_block(block: BasicBlock, vars_: Optional[_VarSource] = None) -> LiftedBlock:
    """Destackify one block. ``vars_`` supplies globally fresh names."""
    vars_ = vars_ or _VarSource()
    stack: list[str] = []  # top first
    consumed = 0
    tac: list[TacInstruction] = []

    def ensure(depth: int) -> None:
        nonlocal consumed
        while len(stack) < depth:
            stack.append(extern_var(block.offset, consumed))
            consumed += 1

    def pop() -> str:
        ensure(1)
        return stack.pop(0)

    for ins in block.instructions:
        name = ins.mnemonic
        if name == "PUSH0" or ins.operand is not None:
            v = vars_.fresh()
            value = 0 if name == "PUSH0" else ins.push_value
            tac.append(TacInstruction(pc=ins.offset, op="CONST", defs=(v,), const=value))
            stack.insert(0, v)
        elif name.startswith("DUP"):
            n = int(name[3:])
            ensure(n)
            stack.insert(0, stack[n - 1])
        elif name.startswith("SWAP"):
            n = int(name[4:])
            ensure(n + 1)
            stack[0], stack[n] = stack[n], stack[0]
        elif name == "POP":
            pop()
        elif name == "JUMPDEST":
            continue
        else:
            info = OPCODES.get(ins.opcode)
            pops = info.pops if info else 0
            pushes = info.pushes if info else 0
            uses = tuple(pop() for _ in range(pops))
            defs = tuple(vars_.fresh() for _ in range(pushes))
            tac.append(TacInstruction(pc=ins.offset, op=name, defs=defs, uses=uses))
            for d in reversed(defs):
                stack.insert(0, d)

    return LiftedBlock(offset=block.offset, tac=tac, exit_stack=stack, extern_consumed=consumed)

