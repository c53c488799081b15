"""Linear-sweep disassembler for EVM runtime bytecode.

Decoding never fails: bytes without a table entry become INVALID
(size 1, raw opcode preserved), and a PUSH immediate that runs past the
end of the code is zero-padded on the right, matching node behaviour.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .opcodes import BY_BYTE

_MNEMONIC = [info.mnemonic for info in BY_BYTE]
_IMMEDIATE = [info.immediate_size for info in BY_BYTE]

_HEX_RE = re.compile(r"^(0x)?[0-9a-fA-F]*$")


@dataclass(slots=True)
class Instruction:
    """One decoded instruction, a slotted record that nothing changes
    once it is built.

    ``opcode`` keeps the raw byte even for unknown opcodes (mnemonic
    INVALID), so that re-encoding a stream reproduces the original
    bytes.  ``operand`` is None except for PUSH1-PUSH32, whose immediate
    it holds as far as the code has it.
    """

    offset: int
    opcode: int
    mnemonic: str
    operand: bytes | None = None

    @property
    def size(self) -> int:
        return 1 + (len(self.operand) if self.operand is not None else 0)

    @property
    def push_value(self) -> int | None:
        if self.operand is None:
            return None
        # a PUSH cut off by the end of code reads its missing low bytes as zero
        width = self.opcode - 0x5F
        return int.from_bytes(self.operand.ljust(width, b"\x00"), "big")

    def __str__(self) -> str:
        if self.operand is not None:
            return f"{self.offset:#06x}: {self.mnemonic} 0x{self.operand.hex()}"
        return f"{self.offset:#06x}: {self.mnemonic}"


@dataclass
class Bytecode:
    """Raw runtime bytecode plus a label naming where it came from."""

    code: bytes
    origin: str = "<bytes>"
    metadata: bytes | None = None
    instructions: list[Instruction] = field(init=False)

    def __post_init__(self) -> None:
        self.instructions = disassemble(self.code)

    @classmethod
    def from_hex(cls, text: str, origin: str = "<hex>", strip: bool = True) -> "Bytecode":
        cleaned = "".join(text.split())
        if cleaned.startswith(("0x", "0X")):
            cleaned = cleaned[2:]
        if not _HEX_RE.match(cleaned) or len(cleaned) % 2 != 0:
            raise ValueError(f"{origin}: not a hex-encoded bytecode string")
        raw = bytes.fromhex(cleaned)
        meta = None
        if strip:
            raw, meta = strip_metadata(raw)
        return cls(code=raw, origin=origin, metadata=meta)

    @classmethod
    def from_hex_file(cls, path: str | Path, strip: bool = True) -> "Bytecode":
        p = Path(path)
        return cls.from_hex(p.read_text(), origin=p.name, strip=strip)


def disassemble(code: bytes) -> list[Instruction]:
    """Decode ``code`` into an instruction list covering every byte."""
    out: list[Instruction] = []
    append = out.append
    offset = 0
    end = len(code)
    while offset < end:
        opcode = code[offset]
        size = _IMMEDIATE[opcode]
        # keep only the bytes that exist; push_value pads the rest
        operand = code[offset + 1:offset + 1 + size] if size else None
        append(Instruction(offset, opcode, _MNEMONIC[opcode], operand))
        offset += 1 + size
    return out


def encode_instructions(instructions: list[Instruction]) -> bytes:
    """Exact inverse of :func:`disassemble`, truncated trailing PUSH included."""
    out = bytearray()
    for ins in instructions:
        out.append(ins.opcode)
        if ins.operand is not None:
            out += ins.operand
    return bytes(out)


def strip_metadata(code: bytes) -> tuple[bytes, bytes | None]:
    """Split a trailing compiler-metadata blob off ``code``.

    The trailer length lives in the final two bytes (big endian) and the
    blob itself is a CBOR map, so its first byte must have major type 5.
    Anything that does not match exactly is kept: stripping real code
    would corrupt the analysis, keeping metadata merely adds dead bytes.
    """
    if len(code) < 4:
        return code, None
    trailer_len = int.from_bytes(code[-2:], "big")
    if trailer_len == 0 or trailer_len + 2 > len(code):
        return code, None
    blob = code[-(trailer_len + 2):-2]
    if (blob[0] >> 5) != 5:  # CBOR major type 5 = map
        return code, None
    return code[:-(trailer_len + 2)], code[-(trailer_len + 2):]
