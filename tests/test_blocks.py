"""Basic-block construction and jump resolution."""

from phantomscan.evm import Bytecode
from phantomscan.lifter import build_blocks, build_icfg, lift_block, resolve_jumps
from phantomscan.lifter.blocks import fold_constants
from phantomscan.lifter.tac import _VarSource


def lifted_blocks_of(hexcode: str):
    bc = Bytecode.from_hex(hexcode)
    blocks = build_blocks(bc.instructions)
    vars_ = _VarSource()
    lifted = {off: lift_block(blocks[off], vars_) for off in sorted(blocks)}
    consts = {t.defs[0]: t.const for lb in lifted.values() for t in lb.tac if t.op == "CONST"}
    resolve_jumps(blocks, lifted, fold_constants(lifted, consts))
    return blocks, lifted, sum(b.has_unresolved_jump for b in blocks.values())


def blocks_of(hexcode: str):
    blocks, _, unresolved = lifted_blocks_of(hexcode)
    return blocks, unresolved


def test_leaders_at_zero_jumpdest_and_after_terminators():
    # PUSH1 06 JUMP | INVALID | JUMPDEST STOP | JUMPDEST STOP
    blocks, _ = blocks_of("600656fe5b005b00")
    assert sorted(blocks) == [0x0, 0x3, 0x4, 0x6]


def test_direct_jump_resolves_to_jumpdest():
    blocks, unresolved = blocks_of("600456005b00")
    assert unresolved == 0
    assert blocks[0].successors == [0x4]
    assert blocks[0x4].predecessors == [0]


def test_jumpi_gets_both_successors():
    # PUSH1 01 PUSH1 06 JUMPI STOP JUMPDEST STOP
    blocks, unresolved = blocks_of("6001600657005b00")
    assert unresolved == 0
    assert sorted(blocks[0].successors) == [0x5, 0x6]


def test_jump_to_non_jumpdest_marks_block_invalid():
    # PUSH1 04 JUMP STOP STOP  (0x4 is STOP, not JUMPDEST)
    blocks, _ = blocks_of("6004560000")
    assert blocks[0].invalid
    assert "non-JUMPDEST" in blocks[0].invalid_reason


def test_stack_underflow_at_entry_block():
    # bare ADD at offset 0 reads two slots that do not exist yet
    blocks, _ = blocks_of("01")
    assert blocks[0].invalid
    assert "StackUnderflow" in blocks[0].invalid_reason


def test_deeper_block_may_read_caller_stack():
    # JUMPDEST ADD STOP as a jump target: reads come from the callers'
    # stacks, so the block consumes two extern slots without underflow
    blocks, lifted, unresolved = lifted_blocks_of("6001600260095601005b0100")
    assert not blocks[0x9].invalid
    assert lifted[0x9].extern_consumed == 2


def test_jump_target_through_stack_propagation():
    # PUSH1 07 PUSH1 05 JUMP | JUMPDEST(5) JUMP | JUMPDEST(7) STOP
    # block 5 jumps to a value pushed by its predecessor
    blocks, unresolved = blocks_of("6007600556" + "5b56" + "5b00")
    assert unresolved == 0
    assert blocks[0x5].successors == [0x7]
    assert blocks[0x5].returns_via_entry_slot


def test_return_target_through_pass_through_blocks():
    # PUSH1 09 PUSH1 05 JUMP | JUMPDEST(5) | JUMPDEST(6) | JUMPDEST(7) JUMP | JUMPDEST(9) STOP
    # the return address passes two blocks before the block that jumps to it
    blocks, unresolved = blocks_of("6009600556" + "5b" + "5b" + "5b56" + "5b00")
    assert unresolved == 0
    assert blocks[0x7].successors == [0x9]
    assert blocks[0x9].predecessors == [0x7]
    assert blocks[0x0].calls == {0x5: 0x9}


def test_loop_that_pops_more_than_it_pushes_terminates():
    # PUSH1 0d PUSH1 07 | JUMPDEST(4) POP PUSH1 0 CALLDATALOAD PUSH1 04 JUMPI
    # | JUMP(c) | JUMPDEST(d) STOP: each round of the loop pops one slot
    # deeper, so the slots that reach the return jump are bounded only by
    # the EVM stack
    blocks, unresolved = blocks_of("600d6007" + "5b50600035600457" + "56" + "5b00")
    assert unresolved == 0
    assert blocks[0xC].successors == [0xD]


def test_jump_target_folds_and_and_add():
    # PUSH1 05 PUSH1 05 ADD PUSH1 ff AND JUMP STOP | JUMPDEST(0xa) STOP
    blocks, unresolved = blocks_of("6005600501" + "60ff1656" + "00" + "5b00")
    assert unresolved == 0
    assert blocks[0].successors == [0xA]


def test_unresolved_jump_is_counted_not_guessed():
    # CALLDATALOAD result used as jump target: no constant to recover
    blocks, unresolved = blocks_of("600035565b00")
    assert unresolved == 1
    assert blocks[0].has_unresolved_jump
    assert blocks[0].successors == []


def test_fallthrough_terminator():
    # PUSH1 01 then JUMPDEST STOP: first block falls through
    blocks, _ = blocks_of("60015b00")
    assert blocks[0].terminator == "FALLTHROUGH"
    assert blocks[0].successors == [0x2]


def test_exit_stack_top_first():
    icfg = build_icfg(Bytecode.from_hex("6001600200"))
    assert [icfg.consts[v] for v in icfg.lifted[0].exit_stack] == [2, 1]


def test_folded_values_stay_out_of_the_constants_map():
    # PUSH1 01 PUSH1 02 ADD STOP: the sum resolves jumps, not memory
    icfg = build_icfg(Bytecode.from_hex("600160020100"))
    (total,) = icfg.lifted[0].exit_stack
    assert total not in icfg.consts
    assert sorted(icfg.consts.values()) == [1, 2]
