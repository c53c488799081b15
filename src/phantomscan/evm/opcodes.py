"""EVM opcode table, pinned to the Cancun instruction set: Shanghai (PUSH0
included) plus TLOAD/TSTORE, MCOPY, BLOBHASH and BLOBBASEFEE.

A byte with no entry decodes as INVALID, which ends its block.
"""

from __future__ import annotations

from typing import NamedTuple


class OpInfo(NamedTuple):
    mnemonic: str
    immediate_size: int  # bytes of inline operand (PUSHn only)
    pops: int
    pushes: int


def _table() -> dict[int, OpInfo]:
    ops: dict[int, OpInfo] = {
        0x00: OpInfo("STOP", 0, 0, 0),
        0x01: OpInfo("ADD", 0, 2, 1),
        0x02: OpInfo("MUL", 0, 2, 1),
        0x03: OpInfo("SUB", 0, 2, 1),
        0x04: OpInfo("DIV", 0, 2, 1),
        0x05: OpInfo("SDIV", 0, 2, 1),
        0x06: OpInfo("MOD", 0, 2, 1),
        0x07: OpInfo("SMOD", 0, 2, 1),
        0x08: OpInfo("ADDMOD", 0, 3, 1),
        0x09: OpInfo("MULMOD", 0, 3, 1),
        0x0A: OpInfo("EXP", 0, 2, 1),
        0x0B: OpInfo("SIGNEXTEND", 0, 2, 1),
        0x10: OpInfo("LT", 0, 2, 1),
        0x11: OpInfo("GT", 0, 2, 1),
        0x12: OpInfo("SLT", 0, 2, 1),
        0x13: OpInfo("SGT", 0, 2, 1),
        0x14: OpInfo("EQ", 0, 2, 1),
        0x15: OpInfo("ISZERO", 0, 1, 1),
        0x16: OpInfo("AND", 0, 2, 1),
        0x17: OpInfo("OR", 0, 2, 1),
        0x18: OpInfo("XOR", 0, 2, 1),
        0x19: OpInfo("NOT", 0, 1, 1),
        0x1A: OpInfo("BYTE", 0, 2, 1),
        0x1B: OpInfo("SHL", 0, 2, 1),
        0x1C: OpInfo("SHR", 0, 2, 1),
        0x1D: OpInfo("SAR", 0, 2, 1),
        0x20: OpInfo("KECCAK256", 0, 2, 1),
        0x30: OpInfo("ADDRESS", 0, 0, 1),
        0x31: OpInfo("BALANCE", 0, 1, 1),
        0x32: OpInfo("ORIGIN", 0, 0, 1),
        0x33: OpInfo("CALLER", 0, 0, 1),
        0x34: OpInfo("CALLVALUE", 0, 0, 1),
        0x35: OpInfo("CALLDATALOAD", 0, 1, 1),
        0x36: OpInfo("CALLDATASIZE", 0, 0, 1),
        0x37: OpInfo("CALLDATACOPY", 0, 3, 0),
        0x38: OpInfo("CODESIZE", 0, 0, 1),
        0x39: OpInfo("CODECOPY", 0, 3, 0),
        0x3A: OpInfo("GASPRICE", 0, 0, 1),
        0x3B: OpInfo("EXTCODESIZE", 0, 1, 1),
        0x3C: OpInfo("EXTCODECOPY", 0, 4, 0),
        0x3D: OpInfo("RETURNDATASIZE", 0, 0, 1),
        0x3E: OpInfo("RETURNDATACOPY", 0, 3, 0),
        0x3F: OpInfo("EXTCODEHASH", 0, 1, 1),
        0x40: OpInfo("BLOCKHASH", 0, 1, 1),
        0x41: OpInfo("COINBASE", 0, 0, 1),
        0x42: OpInfo("TIMESTAMP", 0, 0, 1),
        0x43: OpInfo("NUMBER", 0, 0, 1),
        0x44: OpInfo("PREVRANDAO", 0, 0, 1),
        0x45: OpInfo("GASLIMIT", 0, 0, 1),
        0x46: OpInfo("CHAINID", 0, 0, 1),
        0x47: OpInfo("SELFBALANCE", 0, 0, 1),
        0x48: OpInfo("BASEFEE", 0, 0, 1),
        0x49: OpInfo("BLOBHASH", 0, 1, 1),
        0x4A: OpInfo("BLOBBASEFEE", 0, 0, 1),
        0x50: OpInfo("POP", 0, 1, 0),
        0x51: OpInfo("MLOAD", 0, 1, 1),
        0x52: OpInfo("MSTORE", 0, 2, 0),
        0x53: OpInfo("MSTORE8", 0, 2, 0),
        0x54: OpInfo("SLOAD", 0, 1, 1),
        0x55: OpInfo("SSTORE", 0, 2, 0),
        0x56: OpInfo("JUMP", 0, 1, 0),
        0x57: OpInfo("JUMPI", 0, 2, 0),
        0x58: OpInfo("PC", 0, 0, 1),
        0x59: OpInfo("MSIZE", 0, 0, 1),
        0x5A: OpInfo("GAS", 0, 0, 1),
        0x5B: OpInfo("JUMPDEST", 0, 0, 0),
        0x5C: OpInfo("TLOAD", 0, 1, 1),
        0x5D: OpInfo("TSTORE", 0, 2, 0),
        0x5E: OpInfo("MCOPY", 0, 3, 0),
        0x5F: OpInfo("PUSH0", 0, 0, 1),
        0xF0: OpInfo("CREATE", 0, 3, 1),
        0xF1: OpInfo("CALL", 0, 7, 1),
        0xF2: OpInfo("CALLCODE", 0, 7, 1),
        0xF3: OpInfo("RETURN", 0, 2, 0),
        0xF4: OpInfo("DELEGATECALL", 0, 6, 1),
        0xF5: OpInfo("CREATE2", 0, 4, 1),
        0xFA: OpInfo("STATICCALL", 0, 6, 1),
        0xFD: OpInfo("REVERT", 0, 2, 0),
        0xFE: OpInfo("INVALID", 0, 0, 0),
        0xFF: OpInfo("SELFDESTRUCT", 0, 1, 0),
    }
    for n in range(1, 33):
        ops[0x5F + n] = OpInfo(f"PUSH{n}", n, 0, 1)
    for n in range(1, 17):
        ops[0x7F + n] = OpInfo(f"DUP{n}", 0, n, n + 1)
        ops[0x8F + n] = OpInfo(f"SWAP{n}", 0, n + 1, n + 1)
    for n in range(0, 5):
        ops[0xA0 + n] = OpInfo(f"LOG{n}", 0, 2 + n, 0)
    return ops


OPCODES: dict[int, OpInfo] = _table()

# the entry of every byte, INVALID for a byte with none
BY_BYTE: list[OpInfo] = [OPCODES.get(byte, OPCODES[0xFE]) for byte in range(256)]

MNEMONIC_TO_OPCODE: dict[str, int] = {info.mnemonic: op for op, info in OPCODES.items()}

# Instructions that end a basic block.
TERMINATORS = frozenset({"JUMP", "JUMPI", "RETURN", "REVERT", "STOP", "SELFDESTRUCT", "INVALID"})

# External message-call instructions (value-bearing or not).
EXTERNAL_CALLS = frozenset({"CALL", "CALLCODE", "DELEGATECALL", "STATICCALL"})

# Instructions whose results carry transaction input into the contract.
ENTRY_POINT_OPS = frozenset({"CALLDATALOAD", "CALLDATACOPY", "CALLER", "CALLVALUE", "ORIGIN"})
