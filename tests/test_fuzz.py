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
    """Turn a hang into an exception instead of a stuck test run."""
    def expire(*_):
        raise _Overrun(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
