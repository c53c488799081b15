"""Totality of the bytecode pipeline: build_icfg and detect finish on any input."""

import random
import signal
import time
from contextlib import contextmanager

import pytest

from phantomscan.evm import Bytecode
from phantomscan.evm.opcodes import MNEMONIC_TO_OPCODE
from phantomscan.lifter import build_icfg
from phantomscan.taint import detect, extract_log_ops

CASE_BOUND_S = 1.0

# weighted towards what steers the lifter and the taint engine: jumps and
# their targets, wide constants and LOG regions
_OPS = (
    ["JUMP"] * 6 + ["JUMPI"] * 6 + ["JUMPDEST"] * 8 + ["PUSH1"] * 12 + ["PUSH2"] * 4
    + ["PUSH32"] * 3 + ["LOG0", "LOG1", "LOG2", "LOG3", "LOG4"] * 2 + ["AND", "ADD"] * 3
    + ["DUP1", "DUP2", "DUP3", "SWAP1", "SWAP2", "POP"] * 2 + ["MSTORE"] * 3
    + ["CALLDATALOAD"] * 2 + ["CALLER", "SSTORE", "SLOAD", "CALL", "EQ", "STOP"]
)
_WIDE = [0, 32, 64, 1 << 64, 1 << 255, (1 << 256) - 1]


class _Overrun(Exception):
    pass


@contextmanager
def _time_box(seconds: float):
    """Turn a hang into an exception instead of a stuck test run, and a
    block that ran past the bound into a failure even when something
    (such as a gc callback) swallowed the alarm's exception."""
    def expire(*_):
        raise _Overrun(f"no result within {seconds} s")

    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if elapsed > seconds:
        raise _Overrun(f"took {elapsed:.2f} s, over the {seconds} s bound")


def _random_code(rng: random.Random) -> bytes:
    size = rng.randint(1, 200)
    if rng.random() < 0.2:
        return rng.randbytes(size)
    out = bytearray()
    while len(out) < size:
        op = rng.choice(_OPS)
        out.append(MNEMONIC_TO_OPCODE[op])
        if op.startswith("PUSH"):
            n = int(op[4:])
            roll = rng.random()
            if roll < 0.6:
                value = rng.randrange(max(2, size))  # likely a jump target
            elif roll < 0.8:
                value = rng.choice(_WIDE)
            else:
                value = rng.getrandbits(8 * n)
            out += (value % (1 << (8 * n))).to_bytes(n, "big")
    return bytes(out[:200])


def assemble(items) -> bytes:
    """Mnemonics, ("PUSHn", value) pairs, ("label", name) marks and
    ("pushl", name) pushes of a label's offset as PUSH2."""
    labels: dict[str, int] = {}
    offset = 0
    for item in items:
        if isinstance(item, str):
            offset += 1
        elif item[0] == "label":
            labels[item[1]] = offset
        else:
            offset += 3 if item[0] == "pushl" else 1 + int(item[0][4:])
    out = bytearray()
    for item in items:
        if isinstance(item, str):
            out.append(MNEMONIC_TO_OPCODE[item])
        elif item[0] == "pushl":
            out.append(MNEMONIC_TO_OPCODE["PUSH2"])
            out += labels[item[1]].to_bytes(2, "big")
        elif item[0] != "label":
            out.append(MNEMONIC_TO_OPCODE[item[0]])
            out += item[1].to_bytes(int(item[0][4:]), "big")
    return bytes(out)


def _random_call_code(rng: random.Random) -> tuple[bytes, int]:
    """1-8 callers, each pushing its return label and jumping into one
    helper of 1-50 random blocks (JUMPDEST padding, forward JUMPIs on
    calldata, a LOG1 of calldata) that ends in a return JUMP.  One more
    helper block is a loop that pops more than it pushes.  Returns the
    code and its number of callers."""
    n = rng.randint(1, 8)
    items: list = []
    for i in range(n):  # dispatch on calldata flags
        items += [("PUSH1", 32 * i), "CALLDATALOAD", ("pushl", f"c{i}"), "JUMPI"]
    items.append("STOP")
    for i in range(n):
        items += [("label", f"c{i}"), "JUMPDEST", ("pushl", f"r{i}"), ("pushl", "h0"), "JUMP",
                  ("label", f"r{i}"), "JUMPDEST", "STOP"]
    size = rng.randint(1, 50)
    loop = rng.randint(1, size)  # the loop block's place, after the helper's entry
    log = rng.randrange(size)
    for k in range(size + 1):
        if k == loop:
            # under the return label sits one junk word, which the loop pops
            # on its first round; every further round pops one slot deeper
            items += [("PUSH1", 7), ("label", "loop"), "JUMPDEST", "POP",
                      ("PUSH1", 0), "CALLDATALOAD", ("pushl", "loop"), "JUMPI"]
        if k == size:
            break
        items += [("label", f"h{k}"), "JUMPDEST"]
        if k == log:
            items += [("PUSH1", 4), "CALLDATALOAD", ("PUSH1", 0), "MSTORE",
                      ("PUSH32", rng.getrandbits(256)), ("PUSH1", 32), ("PUSH1", 0), "LOG1"]
        if rng.random() < 0.5 and k + 1 < size:
            target = rng.randint(k + 1, size - 1)
            items += [("PUSH1", rng.randrange(256)), "CALLDATALOAD", ("pushl", f"h{target}"), "JUMPI"]
    items.append("JUMP")
    return assemble(items), n


def test_log_over_a_2_to_the_255_byte_region_returns():
    # PUSH32 2^255 (size), PUSH1 0 (offset), LOG0
    code = Bytecode.from_hex("7f80" + "00" * 31 + "6000a0")
    start = time.perf_counter()
    with _time_box(CASE_BOUND_S):
        findings = detect(build_icfg(code))
    assert time.perf_counter() - start < CASE_BOUND_S
    assert findings == []


@pytest.mark.parametrize("size_word", ["80" + "00" * 31, "ff" * 32])
def test_log_region_word_count_past_2_to_the_63(size_word):
    # MSTORE one word, then LOG1 over a region of more than 2^63 words
    code = Bytecode.from_hex("602a600052" + "6001" + "7f" + size_word + "6000" + "a1")
    with _time_box(CASE_BOUND_S):
        icfg = build_icfg(code)
        (logop,) = extract_log_ops(icfg)
    (stored,) = [t.uses[1] for t in icfg.lifted[0].tac if t.op == "MSTORE"]
    assert logop.data_vars == (stored, f"mem{logop.pc:#x}")


def test_2000_random_bytecodes_finish_without_raising():
    rng = random.Random(20261018)
    for i in range(2000):
        code = _random_code(rng)
        try:
            with _time_box(CASE_BOUND_S):
                findings = detect(build_icfg(Bytecode(code=code)))
        except Exception as exc:
            pytest.fail(f"case {i} ({code.hex()}): {type(exc).__name__}: {exc}")
        assert isinstance(findings, list)


def test_500_random_calls_resolve_every_return_jump():
    rng = random.Random(20261019)
    for i in range(500):
        code, n = _random_call_code(rng)
        try:
            with _time_box(CASE_BOUND_S):
                icfg = build_icfg(Bytecode(code=code))
                detect(icfg)
        except Exception as exc:
            pytest.fail(f"case {i} ({code.hex()}): {type(exc).__name__}: {exc}")
        returns = [b for b in icfg.blocks.values() if b.returns_via_entry_slot]
        assert icfg.unresolved_jumps == 0 and len(returns) == 1, (i, code.hex())
        assert len(returns[0].successors) == len(icfg.call_edges) == n, (i, code.hex())
