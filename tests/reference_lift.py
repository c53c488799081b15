"""The former disassembler and block lifter, kept as a test oracle.

`reference_disassemble` looks every byte up in the opcode table and
builds each `Instruction` by keyword.  `reference_lift_block` keeps its
stack top first, through `insert(0)` and `pop(0)`, and dispatches on
the mnemonic's text.  Both build the package's own records, so their
results compare with `==`.
"""

from __future__ import annotations

from phantomscan.evm.disasm import Instruction
from phantomscan.evm.opcodes import OPCODES, OpInfo
from phantomscan.lifter.blocks import BasicBlock
from phantomscan.lifter.tac import LiftedBlock, TacInstruction, extern_var

_UNKNOWN = OpInfo("INVALID", 0, 0, 0)


def reference_disassemble(code: bytes) -> list[Instruction]:
    out: list[Instruction] = []
    offset = 0
    end = len(code)
    while offset < end:
        opcode = code[offset]
        info = OPCODES.get(opcode, _UNKNOWN)
        operand = None
        if info.immediate_size:
            operand = code[offset + 1:offset + 1 + info.immediate_size]
        out.append(Instruction(offset=offset, opcode=opcode, mnemonic=info.mnemonic, operand=operand))
        offset += 1 + info.immediate_size
    return out


class Counter:
    """Globally fresh `V<n>` names, as `lifter.tac._VarSource` hands out."""

    def __init__(self, start: int = 0) -> None:
        self.counter = start

    def fresh(self) -> str:
        name = f"V{self.counter}"
        self.counter += 1
        return name


def reference_lift_block(block: BasicBlock, vars_: Counter) -> LiftedBlock:
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
