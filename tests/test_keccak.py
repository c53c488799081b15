"""Keccak-256: known answers, and the straight-line permutation against
the former nested-list one."""

import random

import pytest

from phantomscan._keccak import event_topic, function_selector, keccak256
from reference_keccak import reference_keccak256


def test_empty_input():
    assert keccak256(b"").hex() == (
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")


def test_transfer_event_topic():
    assert event_topic("Transfer(address,address,uint256)") == (
        "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef")


def test_transfer_function_selector():
    assert function_selector("transfer(address,uint256)") == "0xa9059cbb"


# one byte short of the 136-byte rate (the two padding bytes coincide),
# exactly one block, one past it, and the same around two blocks
EDGE_LENGTHS = (135, 136, 137, 271, 272)


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_block_edges_match_the_former_permutation(length):
    data = random.Random(length).randbytes(length)
    assert keccak256(data) == reference_keccak256(data)


def test_random_inputs_match_the_former_permutation():
    rng = random.Random(20251019)
    for _ in range(300):
        data = rng.randbytes(rng.randint(0, 400))
        assert keccak256(data) == reference_keccak256(data), data.hex()


def test_bytes_like_inputs_hash_as_their_bytes():
    data = b"Deposit(address,uint256,address,uint256)"
    assert keccak256(bytearray(data)) == keccak256(memoryview(data)) == keccak256(data)
