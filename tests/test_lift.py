"""Stack-to-register lifting of single blocks."""

import random

import pytest
from hypothesis import given, strategies as st

from phantomscan.evm import Bytecode, disassemble
from phantomscan.lifter import build_blocks, lift_block
from phantomscan.lifter.tac import _VarSource, extern_var
from phantomscan.resources import fixture_path
from reference_lift import Counter, reference_disassemble, reference_lift_block
from test_fuzz import _random_code
from test_taint import FIXTURES, callers, diamonds


def lift_hex(hexcode: str, offset: int = 0):
    bc = Bytecode.from_hex(hexcode)
    blocks = build_blocks(bc.instructions)
    return lift_block(blocks[offset], _VarSource())


def test_push_becomes_const_def():
    lb = lift_hex("602a00")
    assert len(lb.tac) == 2
    const, stop = lb.tac
    assert const.op == "CONST" and const.const == 0x2A
    assert const.defs and not const.uses
    assert stop.op == "STOP"


def test_dup_swap_pop_emit_no_tac():
    # PUSH1 01 PUSH1 02 DUP2 SWAP1 POP POP POP STOP
    lb = lift_hex("6001600281905050505000")
    assert [t.op for t in lb.tac] == ["CONST", "CONST", "STOP"]


def test_add_uses_operands_in_pop_order():
    lb = lift_hex("600160020100")
    add = next(t for t in lb.tac if t.op == "ADD")
    c1 = next(t for t in lb.tac if t.const == 2)
    c2 = next(t for t in lb.tac if t.const == 1)
    # top of stack first: the later push is popped first
    assert add.uses == (c1.defs[0], c2.defs[0])
    assert add.defs


def test_extern_slots_materialize_with_block_tag():
    # JUMPDEST ADD STOP at offset 0x0: reads two slots from outside
    lb = lift_hex("5b0100")
    add = next(t for t in lb.tac if t.op == "ADD")
    assert add.uses == (extern_var(0, 0), extern_var(0, 1))
    assert lb.extern_consumed == 2


def test_exit_var_passthrough_beyond_exit_stack():
    # block consumes two externs, pushes one result: slot 1 of the exit
    # view maps to extern slot 2 of the entry view
    lb = lift_hex("5b0100")
    add = next(t for t in lb.tac if t.op == "ADD")
    assert lb.exit_var(0) == add.defs[0]
    assert lb.exit_var(1) == extern_var(0, 2)


def test_swap_reorders_before_store():
    # PUSH1 05 PUSH1 00 SWAP1 SSTORE: key=0, value=5 after the swap
    lb = lift_hex("600560009055")
    sstore = next(t for t in lb.tac if t.op == "SSTORE")
    key_const = next(t for t in lb.tac if t.const == 5)
    val_const = next(t for t in lb.tac if t.const == 0)
    assert sstore.uses == (key_const.defs[0], val_const.defs[0])


def test_jumpdest_emits_nothing():
    lb = lift_hex("5b00")
    assert [t.op for t in lb.tac] == ["STOP"]


@given(st.binary(min_size=1, max_size=64))
def test_defs_precede_uses_within_block(code):
    bc = Bytecode(code=code)
    blocks = build_blocks(bc.instructions)
    for off, block in blocks.items():
        lb = lift_block(block, _VarSource())
        defined = set()
        for t in lb.tac:
            for u in t.uses:
                # every non-extern use must already be defined
                assert "@" in u or u in defined
            defined.update(t.defs)


@given(st.binary(min_size=1, max_size=64))
def test_extern_names_carry_their_block(code):
    bc = Bytecode(code=code)
    blocks = build_blocks(bc.instructions)
    for off, block in blocks.items():
        lb = lift_block(block, _VarSource())
        for t in lb.tac:
            for u in t.uses:
                if "@" in u:
                    assert u.endswith(f"@{off:#x}")


# --------------------------------------------------------------------------
# the disassembler and the lifter against their former versions
# --------------------------------------------------------------------------

EDGE_CASES = {
    "push32-cut-off": bytes([0x60, 0x01, 0x7F, 0xAA, 0xBB]),
    "push0": bytes([0x5F, 0x5F, 0x01, 0x5F, 0x00]),
    "dup16-on-empty-stack": bytes([0x8F, 0x00]),
    "swap16-on-empty-stack": bytes([0x9F, 0x00]),
    "pop-underflow": bytes([0x50, 0x50, 0x60, 0x01, 0x01]),
    "undecodable": bytes([0x0C, 0xEF, 0x21, 0xB0, 0xF6]),
    "cancun": bytes([0x5C, 0x5D, 0x5E, 0x49, 0x4A]),
}
# the opcodes whose decoding or stack effect is out of the ordinary
_EDGE_OPS = [0x7F, 0x5F, 0x8F, 0x9F, 0x50, 0x0C, 0xEF, 0x5C, 0x5D, 0x5E, 0x49, 0x4A, 0x5B, 0x56]


def _front_end_code(rng: random.Random) -> bytes:
    """Raw bytes, the fuzz suite's jump- and LOG-heavy code, or edge
    opcodes among random bytes, which may end inside a PUSH32."""
    roll = rng.random()
    if roll < 0.3:
        return rng.randbytes(rng.randint(1, 300))
    if roll < 0.6:
        return _random_code(rng)
    return bytes(rng.choice(_EDGE_OPS) if rng.random() < 0.5 else rng.randrange(256)
                 for _ in range(rng.randint(1, 120)))


def _front_end_inputs() -> list[tuple[str, bytes]]:
    inputs = [(name, Bytecode.from_hex_file(fixture_path(name + ".hex")).code) for name in FIXTURES]
    inputs += [(f"diamond-{k}", diamonds(k, carry=k % 2 == 1, sstore=k > 4).code) for k in range(3, 9)]
    inputs += [(f"callers-{n}", callers(n).code) for n in (2, 8, 30, 62)]
    inputs += sorted(EDGE_CASES.items())
    rng = random.Random(23)
    inputs += [(f"random-{i}", _front_end_code(rng)) for i in range(2000)]
    return inputs


def test_front_end_matches_its_former_version():
    for name, code in _front_end_inputs():
        instructions = disassemble(code)
        assert instructions == reference_disassemble(code), name
        vars_, counter = _VarSource(), Counter()
        blocks = build_blocks(instructions)
        for off in sorted(blocks):
            lb = lift_block(blocks[off], vars_)
            assert lb == reference_lift_block(blocks[off], counter), (name, off)
            assert vars_.counter == counter.counter, (name, off)


def _slots(*ks: int) -> list[str]:
    return [extern_var(0, k) for k in ks]


@pytest.mark.parametrize("name,consumed,exit_stack", [
    ("dup16-on-empty-stack", 16, _slots(15, *range(16))),
    ("swap16-on-empty-stack", 17, _slots(16, *range(1, 16), 0)),
    ("pop-underflow", 3, ["V1"]),
])
def test_underflow_draws_entry_slots_in_order(name, consumed, exit_stack):
    block = build_blocks(disassemble(EDGE_CASES[name]))[0]
    lb = lift_block(block, _VarSource())
    assert (lb.extern_consumed, lb.exit_stack) == (consumed, exit_stack)
