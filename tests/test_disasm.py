import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phantomscan.evm import (
    Bytecode,
    disassemble,
    encode_instructions,
    strip_metadata,
)
from phantomscan.evm.opcodes import OPCODES


def test_simple_preamble():
    # 60 80 60 40 52 is the classic free-memory-pointer prologue
    ins = disassemble(bytes.fromhex("6080604052"))
    assert [(i.offset, i.mnemonic, i.push_value) for i in ins] == [
        (0, "PUSH1", 0x80),
        (2, "PUSH1", 0x40),
        (4, "MSTORE", None),
    ]


def test_log1_single_byte():
    ins = disassemble(bytes.fromhex("a1"))
    assert len(ins) == 1
    assert ins[0].offset == 0
    assert ins[0].mnemonic == "LOG1"


def test_push0_is_known():
    ins = disassemble(bytes.fromhex("5f"))
    assert ins[0].mnemonic == "PUSH0"
    assert ins[0].operand is None


def test_unknown_bytes_decode_as_invalid():
    # 0x0c is unassigned; 0xef is unassigned in the pinned opcode set
    for raw in ("0c", "ef", "21"):
        ins = disassemble(bytes.fromhex(raw))
        assert len(ins) == 1
        assert ins[0].mnemonic == "INVALID"
        assert ins[0].size == 1
        assert ins[0].opcode == int(raw, 16)


@pytest.mark.parametrize("raw,mnemonic,pops,pushes", [
    ("5c", "TLOAD", 1, 1),
    ("5d", "TSTORE", 2, 0),
    ("5e", "MCOPY", 3, 0),
    ("49", "BLOBHASH", 1, 1),
    ("4a", "BLOBBASEFEE", 0, 1),
])
def test_cancun_opcodes_decode(raw, mnemonic, pops, pushes):
    ins, = disassemble(bytes.fromhex(raw))
    assert (ins.mnemonic, ins.size) == (mnemonic, 1)
    assert (OPCODES[int(raw, 16)].pops, OPCODES[int(raw, 16)].pushes) == (pops, pushes)


def test_truncated_push_zero_padded():
    ins = disassemble(bytes.fromhex("61ff"))
    assert len(ins) == 1
    assert ins[0].mnemonic == "PUSH2"
    # the raw operand keeps only the byte that exists; the value pads right
    assert ins[0].operand == b"\xff"
    assert ins[0].size == 2
    assert ins[0].push_value == 0xFF00


def test_push32_full_width():
    blob = "7f" + "11" * 32
    ins = disassemble(bytes.fromhex(blob))
    assert ins[0].mnemonic == "PUSH32"
    assert ins[0].push_value == int("11" * 32, 16)


@given(st.binary(max_size=10_000))
@settings(max_examples=200)
def test_offsets_partition_the_code(code):
    ins = disassemble(code)
    cursor = 0
    for i in ins:
        assert i.offset == cursor
        cursor += i.size
    # sizes partition the input exactly, truncated trailing PUSH included
    assert cursor == len(code)


@given(st.binary(max_size=10_000))
@settings(max_examples=200)
def test_reencode_roundtrip(code):
    first = disassemble(code)
    assert encode_instructions(first) == code
    assert disassemble(encode_instructions(first)) == first


def _cbor_trailer(payload_len: int) -> bytes:
    # map(2): "ipfs" => bytes(payload_len), "solc" => bytes(3)
    blob = bytes([0xA2])
    blob += bytes([0x64]) + b"ipfs" + bytes([0x58, payload_len]) + bytes(payload_len)
    blob += bytes([0x64]) + b"solc" + bytes([0x43]) + bytes([0, 8, 19])
    return blob + len(blob).to_bytes(2, "big")


def test_strip_metadata_cbor_trailer():
    body = bytes.fromhex("6080604052")
    trailer = _cbor_trailer(36)
    assert len(trailer) == 55  # 53-byte CBOR map + 2 length bytes
    code, meta = strip_metadata(body + trailer)
    assert code == body
    assert meta == trailer


def test_strip_metadata_keeps_non_cbor_tail():
    # trailer length says 3, but the byte there is not a CBOR map header
    code = bytes.fromhex("60806040520102030003")
    kept, meta = strip_metadata(code)
    assert kept == code and meta is None


def test_strip_metadata_keeps_oversized_length():
    code = bytes.fromhex("6080604052ffff")
    kept, meta = strip_metadata(code)
    assert kept == code and meta is None


def test_strip_metadata_short_input():
    code = bytes.fromhex("600a")
    assert strip_metadata(code) == (code, None)


def test_from_hex_accepts_prefix_and_whitespace():
    bc = Bytecode.from_hex("0x60 80\n60 40\t52", origin="inline")
    assert bc.code == bytes.fromhex("6080604052")
    assert bc.origin == "inline"


def test_from_hex_rejects_bad_input():
    with pytest.raises(ValueError):
        Bytecode.from_hex("0xzz")
    with pytest.raises(ValueError):
        Bytecode.from_hex("abc")  # odd length


def test_table_has_no_gaps_in_push_dup_swap_log():
    for n in range(1, 33):
        assert OPCODES[0x5F + n].mnemonic == f"PUSH{n}"
        assert OPCODES[0x5F + n].immediate_size == n
    for n in range(1, 17):
        assert OPCODES[0x7F + n].mnemonic == f"DUP{n}"
        assert OPCODES[0x8F + n].mnemonic == f"SWAP{n}"
    for n in range(0, 5):
        assert OPCODES[0xA0 + n].mnemonic == f"LOG{n}"
        assert OPCODES[0xA0 + n].pops == 2 + n
