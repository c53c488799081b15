#!/usr/bin/env python3
"""Regenerate the bundled fixtures under src/phantomscan/fixtures/.

Everything here is deterministic; the generated files are checked in so
tests never depend on running this script.  Run it after changing a
fixture definition:

    python3 tools/build_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from phantomscan._keccak import event_topic, function_selector, keccak256  # noqa: E402
from phantomscan.evm.opcodes import MNEMONIC_TO_OPCODE  # noqa: E402

FIXTURES = ROOT / "src" / "phantomscan" / "fixtures"


# --------------------------------------------------------------------------
# a tiny two-pass assembler: items are mnemonics, (PUSHn, value) pairs,
# ("label", name) definitions and ("pushl", name) label pushes (PUSH2 wide)
# --------------------------------------------------------------------------

OPCODE_BY_NAME = MNEMONIC_TO_OPCODE


def assemble(items) -> bytes:
    def width(item) -> int:
        if isinstance(item, str):
            return 1
        kind = item[0]
        if kind == "label":
            return 0
        if kind == "pushl":
            return 3  # PUSH2 <hi> <lo>
        return 1 + int(kind[4:])  # PUSHn

    labels: dict[str, int] = {}
    offset = 0
    for item in items:
        if isinstance(item, tuple) and item[0] == "label":
            labels[item[1]] = offset
        offset += width(item)

    out = bytearray()
    for item in items:
        if isinstance(item, str):
            out.append(OPCODE_BY_NAME[item])
        elif item[0] == "label":
            continue
        elif item[0] == "pushl":
            out.append(OPCODE_BY_NAME["PUSH2"])
            out += labels[item[1]].to_bytes(2, "big")
        else:
            n = int(item[0][4:])
            out.append(OPCODE_BY_NAME[item[0]])
            out += int(item[1]).to_bytes(n, "big")
    return bytes(out)


def push(n: int, value: int):
    return (f"PUSH{n}", value)


def pushl(label: str):
    return ("pushl", label)


def label(name: str):
    return ("label", name)


# --------------------------------------------------------------------------
# event and function signatures shared by fixtures and the signature db
# --------------------------------------------------------------------------

SIG_DEPOSIT_FN = "deposit(address,uint256,uint256)"
SIG_DEPOSIT_ETH_FN = "depositETH(uint256)"
SIG_REQUEST_WITHDRAW2 = "requestWithdraw(uint256,uint256)"
SIG_REQUEST_WITHDRAW1 = "requestWithdraw(uint256)"
SIG_F = "touch(uint256)"
SIG_G = "poke(uint256)"

EV_DEPOSIT = "Deposit(address,uint256,address,uint256)"
EV_WITHDRAW3 = "WithdrawalRequested(address,uint256,uint256)"
EV_WITHDRAW2 = "WithdrawalRequested(address,uint256)"
EV_PINGED = "Pinged(uint256)"
EV_TRANSFER = "Transfer(address,address,uint256)"
EV_APPROVAL = "Approval(address,address,uint256)"
EV_APPROVAL_FOR_ALL = "ApprovalForAll(address,address,bool)"
EV_REDEEM = "Redeem(address,uint256,string,bytes)"
EV_BURNED = "Burned(address,address,uint256,bytes,bytes)"


def sel(signature: str) -> int:
    return int(function_selector(signature), 16)


def topic(signature: str) -> int:
    return int(event_topic(signature), 16)


def dispatcher(selector_to_label: list[tuple[int, str]]):
    """Standard preamble: size guard, then one compare block per selector."""
    items = [
        push(1, 0x80), push(1, 0x40), "MSTORE",
        push(1, 0x04), "CALLDATASIZE", "LT", pushl("revert"), "JUMPI",
        push(1, 0x00), "CALLDATALOAD", push(1, 0xE0), "SHR",
    ]
    for selector, target in selector_to_label:
        items += ["DUP1", push(4, selector), "EQ", pushl(target), "JUMPI"]
    items += [
        label("revert"), "JUMPDEST",
        push(1, 0x00), push(1, 0x00), "REVERT",
    ]
    return items


def mapping_slot_update(slot: int, add_op: list):
    """caller-keyed mapping: mem[0]=caller, mem[32]=slot, key=keccak, then
    sstore(key, sload(key) + <top of stack adjustments from add_op>)."""
    return [
        "CALLER", push(1, 0x00), "MSTORE",
        push(1, slot), push(1, 0x20), "MSTORE",
        push(1, 0x40), push(1, 0x00), "KECCAK256",
        "DUP1", "SLOAD",
        *add_op,
        "SWAP1", "SSTORE",
    ]


def counterfeit() -> bytes:
    """Two public entry points emitting the same event.

    depositETH guards on msg.value, deposit guards on an external call
    succeeding; both paths update caller-keyed storage and then emit
    Deposit(sender; amount, token, chainId) with topic1 = sender.
    """
    t_deposit = topic(EV_DEPOSIT)
    items = dispatcher([
        (sel(SIG_DEPOSIT_FN), "f_deposit"),
        (sel(SIG_DEPOSIT_ETH_FN), "f_deposit_eth"),
    ])
    items += [
        label("f_deposit_eth"), "JUMPDEST",
        # require(msg.value > 0)
        "CALLVALUE", "ISZERO", pushl("revert"), "JUMPI",
        # ethBalances[msg.sender] += msg.value   (slot 0)
        *mapping_slot_update(0, ["CALLVALUE", "ADD"]),
        # emit Deposit(msg.sender, msg.value, address(0), chainId)
        "CALLVALUE", push(1, 0x00), "MSTORE",
        push(1, 0x00), push(1, 0x20), "MSTORE",
        push(1, 0x04), "CALLDATALOAD", push(1, 0x40), "MSTORE",
        "CALLER", push(32, t_deposit),
        push(1, 0x60), push(1, 0x00), "LOG2",
        "STOP",

        label("f_deposit"), "JUMPDEST",
        push(1, 0x24), "CALLDATALOAD",              # amount
        # require(amount > 0)
        "DUP1", "ISZERO", pushl("revert"), "JUMPI",
        # success = token.call(...); require(success)
        push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00),
        push(1, 0x04), "CALLDATALOAD", "GAS", "CALL",
        "ISZERO", pushl("revert"), "JUMPI",
        # tokenBalances[msg.sender] += amount      (slot 1)
        "CALLER", push(1, 0x00), "MSTORE",
        push(1, 0x01), push(1, 0x20), "MSTORE",
        push(1, 0x40), push(1, 0x00), "KECCAK256",  # [key, amount]
        "DUP1", "SLOAD",                            # [bal, key, amount]
        "DUP3", "ADD",                              # [bal+amount, key, amount]
        "SWAP1", "SSTORE",                          # [amount]
        # emit Deposit(msg.sender, amount, token, chainId)
        push(1, 0x00), "MSTORE",
        push(1, 0x04), "CALLDATALOAD", push(1, 0x20), "MSTORE",
        push(1, 0x44), "CALLDATALOAD", push(1, 0x40), "MSTORE",
        "CALLER", push(32, t_deposit),
        push(1, 0x60), push(1, 0x00), "LOG2",
        "STOP",
    ]
    return assemble(items)


def metadata_trailer() -> bytes:
    """53-byte CBOR map (ipfs hash + solc version) plus 2 length bytes."""
    digest = keccak256(b"phantomscan fixture metadata")  # any stable 32 bytes
    blob = bytes([0xA2])
    blob += bytes([0x64]) + b"ipfs" + bytes([0x58, 0x24]) + b"\x12\x20" + digest + b"\x00\x00"
    blob += bytes([0x64]) + b"solc" + bytes([0x43]) + bytes([0, 8, 19])
    assert len(blob) == 53, len(blob)
    return blob + len(blob).to_bytes(2, "big")


def inconsistent() -> bytes:
    """Gate on a storage flag, then emit caller/calldata without any
    storage update: the logged values are never anchored in state."""
    t_withdraw = topic(EV_WITHDRAW3)
    items = dispatcher([(sel(SIG_REQUEST_WITHDRAW2), "f_rw")])
    items += [
        label("f_rw"), "JUMPDEST",
        # require(WITHDRAW_ALLOWED)    (slot 0)
        push(1, 0x00), "SLOAD", "ISZERO", pushl("revert"), "JUMPI",
        # emit WithdrawalRequested(msg.sender, _type, _amount)
        push(1, 0x04), "CALLDATALOAD", push(1, 0x00), "MSTORE",
        push(1, 0x24), "CALLDATALOAD", push(1, 0x20), "MSTORE",
        "CALLER", push(32, t_withdraw),
        push(1, 0x40), push(1, 0x00), "LOG2",
        "STOP",
    ]
    return assemble(items)


def inconsistent_safe() -> bytes:
    """Variant of the withdrawal contract that checks the balance and
    writes it down before emitting; nothing should be flagged."""
    t_withdraw = topic(EV_WITHDRAW2)
    items = dispatcher([(sel(SIG_REQUEST_WITHDRAW1), "f_rw")])
    items += [
        label("f_rw"), "JUMPDEST",
        push(1, 0x00), "SLOAD", "ISZERO", pushl("revert"), "JUMPI",
        # key = keccak(caller, slot 1); bal = sload(key)
        "CALLER", push(1, 0x00), "MSTORE",
        push(1, 0x01), push(1, 0x20), "MSTORE",
        push(1, 0x40), push(1, 0x00), "KECCAK256",  # [key]
        "DUP1", "SLOAD",                            # [bal, key]
        # require(_amount <= bal): revert if _amount > bal
        "DUP1", push(1, 0x04), "CALLDATALOAD", "GT", pushl("revert"), "JUMPI",
        # balances[msg.sender] = bal - _amount
        push(1, 0x04), "CALLDATALOAD", "SWAP1", "SUB",  # [bal-amount, key]
        "SWAP1", "SSTORE",
        # emit WithdrawalRequested(msg.sender, _amount)
        push(1, 0x04), "CALLDATALOAD", push(1, 0x00), "MSTORE",
        "CALLER", push(32, t_withdraw),
        push(1, 0x20), push(1, 0x00), "LOG2",
        "STOP",
    ]
    return assemble(items)


def emit_helper() -> bytes:
    """Two public functions funnel into one internal helper that does the
    LOG; exercises call-edge recovery and cross-function slicing."""
    t_pinged = topic(EV_PINGED)
    items = dispatcher([
        (sel(SIG_F), "f_touch"),
        (sel(SIG_G), "f_poke"),
    ])
    items += [
        label("f_touch"), "JUMPDEST",
        pushl("ret_touch"),
        push(1, 0x04), "CALLDATALOAD",
        pushl("helper"), "JUMP",
        label("ret_touch"), "JUMPDEST", "STOP",

        label("f_poke"), "JUMPDEST",
        pushl("ret_poke"),
        push(1, 0x04), "CALLDATALOAD",
        pushl("helper"), "JUMP",
        label("ret_poke"), "JUMPDEST", "STOP",

        # helper(value): emit Pinged(value); return to caller
        label("helper"), "JUMPDEST",
        push(1, 0x00), "MSTORE",
        push(32, t_pinged),
        push(1, 0x20), push(1, 0x00), "LOG1",
        "JUMP",
    ]
    return assemble(items)


def nocheck_call() -> bytes:
    """Fallback-only contract: makes an external call, ignores the result
    and emits a constant event; nothing constrains the emission."""
    t_pinged = topic(EV_PINGED)
    items = [
        push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00),
        push(1, 0xEE), "GAS", "CALL",
        "POP",
        push(1, 0x2A), push(1, 0x00), "MSTORE",
        push(32, t_pinged),
        push(1, 0x20), push(1, 0x00), "LOG1",
        "STOP",
    ]
    return assemble(items)


def checked_call() -> bytes:
    """Like nocheck_call, but the call result gates the emission."""
    t_pinged = topic(EV_PINGED)
    items = [
        push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00), push(1, 0x00),
        push(1, 0xEE), "GAS", "CALL",
        "ISZERO", pushl("fail"), "JUMPI",
        push(1, 0x2A), push(1, 0x00), "MSTORE",
        push(32, t_pinged),
        push(1, 0x20), push(1, 0x00), "LOG1",
        "STOP",
        label("fail"), "JUMPDEST",
        push(1, 0x00), push(1, 0x00), "REVERT",
    ]
    return assemble(items)


def write_sigdb() -> None:
    lines = ["# function selectors"]
    for sig in (SIG_DEPOSIT_FN, SIG_DEPOSIT_ETH_FN, SIG_REQUEST_WITHDRAW2,
                SIG_REQUEST_WITHDRAW1, SIG_F, SIG_G):
        lines.append(f"{function_selector(sig)[2:]} {sig}")
    lines.append("")
    lines.append("# event topics")
    for sig in (EV_DEPOSIT, EV_WITHDRAW3, EV_WITHDRAW2, EV_PINGED,
                EV_TRANSFER, EV_APPROVAL, EV_APPROVAL_FOR_ALL,
                EV_REDEEM, EV_BURNED):
        lines.append(f"{event_topic(sig)[2:]} {sig}")
    (FIXTURES / "sigdb.txt").write_text("\n".join(lines) + "\n")


def write_bytecode() -> None:
    outputs = {
        # the counterfeit fixture carries a metadata trailer on purpose
        "counterfeit.hex": counterfeit() + metadata_trailer(),
        "inconsistent.hex": inconsistent(),
        "inconsistent_safe.hex": inconsistent_safe(),
        "emit_helper.hex": emit_helper(),
        "nocheck_call.hex": nocheck_call(),
        "checked_call.hex": checked_call(),
    }
    for name, code in outputs.items():
        (FIXTURES / name).write_text("0x" + code.hex() + "\n")
        print(f"{name}: {len(code)} bytes")


MSOL_SOURCES = {
    # an unvalidated token path: the ETH entry stamps address(0) where
    # the token entry stamps caller-chosen data, same event either way
    "counterfeit.msol": """\
// Cross-chain deposit recorder.
contract BridgeDeposit {
    event Deposit(address indexed sender, uint256 amount, address token, uint256 destinationChainId);

    mapping(address => uint256) ethBalance;
    mapping(address => uint256) tokenBalance;

    function depositETH(uint256 destinationChainId) external {
        require(msg.value > 0);
        ethBalance[msg.sender] = ethBalance[msg.sender] + msg.value;
        emit Deposit(msg.sender, msg.value, address(0), destinationChainId);
    }

    function depositToken(address token, uint256 amount, uint256 destinationChainId) external {
        require(amount > 0);
        bool ok = false;
        ok = call(token);
        require(ok);
        tokenBalance[msg.sender] = tokenBalance[msg.sender] + amount;
        emit Deposit(msg.sender, amount, token, destinationChainId);
    }
}
""",
    # announces an amount it neither checks nor records
    "inconsistent.msol": """\
contract WithdrawQueue {
    event WithdrawalRequested(address indexed account, uint256 assetType, uint256 amount);

    uint256 paused;
    mapping(address => uint256) queued;

    function requestWithdraw(uint256 assetType, uint256 amount) external {
        require(paused == 0);
        emit WithdrawalRequested(msg.sender, assetType, amount);
    }
}
""",
    # the repaired variant: checks the amount and moves it into a queue
    "inconsistent_safe.msol": """\
contract WithdrawQueueSafe {
    event WithdrawalRequested(address indexed account, uint256 amount);

    mapping(address => uint256) balance;
    mapping(address => uint256) queued;

    function requestWithdraw(uint256 amount) external {
        require(balance[msg.sender] >= amount);
        balance[msg.sender] = balance[msg.sender] - amount;
        queued[msg.sender] = queued[msg.sender] + amount;
        emit WithdrawalRequested(msg.sender, amount);
    }
}
""",
    # same event from two entries whose guards cannot hold together
    "disjoint.msol": """\
contract DisjointGuard {
    event Flag(uint256 level);

    uint256 count;

    function zero(uint256 level) external {
        require(level == 0);
        count = count + 1;
        emit Flag(level);
    }

    function positive(uint256 level) external {
        require(level > 0);
        count = count + 1;
        emit Flag(level);
    }
}
""",
    # emission buried in an internal helper shared by two entries
    "relay.msol": """\
contract RelayPing {
    event Pinged(uint256 code);

    uint256 hits;

    function touch(uint256 code) external {
        record(code);
    }

    function poke(uint256 code) external {
        require(code > 0);
        record(code);
    }

    function record(uint256 code) internal {
        hits = hits + 1;
        emit Pinged(code);
    }
}
""",
}


def write_msol() -> None:
    for name, src in MSOL_SOURCES.items():
        (FIXTURES / name).write_text(src)
        print(f"{name}: {len(src)} chars")


# --------------------------------------------------------------------------
# log corpora and rulesets for the transaction scanner
# --------------------------------------------------------------------------

VAULT = "0x" + "11" * 20
PTOKEN = "0x" + "22" * 20
ATTACKER_CONTRACT = "0x" + "a7" * 20
ATTACKER = "0x" + "e0" * 20
USER = "0x" + "33" * 20
TOKEN_A = "0x" + "44" * 20
TOKEN_B = "0x" + "55" * 20
NFT = "0x" + "66" * 20
VICTIM = "0x" + "77" * 20
VICTIM2 = "0x" + "88" * 20
ALICE = "0x" + "aa" * 20
BOB = "0x" + "bb" * 20
CAROL = "0x" + "cc" * 20
DAVE = "0x" + "dd" * 20
EVE = "0x" + "ee" * 20
DEPLOYER = "0x" + "99" * 20
ZERO = "0x" + "00" * 20

SEL_REDEEM_FN = function_selector("redeem(uint256,string)")
SEL_TRANSFER_FN = function_selector("transfer(address,uint256)")
SEL_TRANSFER_FROM_FN = function_selector("transferFrom(address,address,uint256)")
SEL_APPROVE_FN = function_selector("approve(address,uint256)")
SEL_SET_APPROVAL_FN = function_selector("setApprovalForAll(address,bool)")
SEL_MINT_FN = function_selector("mint(address,uint256)")


def _abi_word(type_: str, value) -> str:
    if type_ == "uint256":
        return f"{value:064x}"
    if type_ == "address":
        return "0" * 24 + value[2:].lower()
    if type_ == "bool":
        return f"{int(value):064x}"
    raise ValueError(f"not a static type: {type_}")


def abi_encode(items: list[tuple[str, object]]) -> str:
    """Head/tail encoding of the non-indexed event payload, 0x-prefixed."""
    heads: list[str] = []
    tails: list[str] = []
    tail_at = 32 * len(items)
    for type_, value in items:
        if type_ in ("uint256", "address", "bool"):
            heads.append(_abi_word(type_, value))
            continue
        if type_ == "string":
            payload = value.encode("utf-8")
        elif type_ == "bytes":
            payload = value
        else:
            raise ValueError(f"unsupported type: {type_}")
        heads.append(f"{tail_at:064x}")
        padded = payload + b"\x00" * (-len(payload) % 32)
        tails.append(f"{len(payload):064x}" + padded.hex())
        tail_at += 32 + len(padded)
    return "0x" + "".join(heads) + "".join(tails)


def log_row(block: int, index: int, tx: str, address: str, topics: list[str],
            data: str, tx_from: str, tx_to: str, selector: str | None) -> dict:
    return {
        "txHash": tx,
        "logIndex": index,
        "blockNumber": block,
        "address": address,
        "topics": topics,
        "data": data,
        "txFrom": tx_from,
        "txTo": tx_to,
        "txSelector": selector,
    }


def txh(n: int) -> str:
    return f"0x{n:064x}"


def t_addr(addr: str) -> str:
    return "0x" + "0" * 24 + addr[2:].lower()


def t_uint(v: int) -> str:
    return f"0x{v:064x}"


def bridge_rows() -> list[dict]:
    t_transfer = event_topic(EV_TRANSFER)
    t_burned = event_topic(EV_BURNED)
    t_redeem = event_topic(EV_REDEEM)
    recipient = "dest-chain:qq9hollowx4vault"
    rows = []
    # forged redemption: the attacker burns a small real balance so the
    # transaction also carries authentic Transfer and Burned logs, then
    # appends a counterfeit Redeem from their own contract
    tx1 = txh(0xAAA1)
    rows.append(log_row(120, 0, tx1, PTOKEN,
                        [t_transfer, t_addr(ATTACKER), t_addr(VAULT)],
                        abi_encode([("uint256", 50_000)]),
                        ATTACKER, ATTACKER_CONTRACT, "0x1badface"))
    rows.append(log_row(120, 1, tx1, VAULT,
                        [t_burned, t_addr(ATTACKER), t_addr(ATTACKER)],
                        abi_encode([("uint256", 50_000), ("bytes", b""), ("bytes", b"")]),
                        ATTACKER, ATTACKER_CONTRACT, "0x1badface"))
    rows.append(log_row(120, 2, tx1, ATTACKER_CONTRACT,
                        [t_redeem, t_addr(ATTACKER)],
                        abi_encode([("uint256", 4_500_000), ("string", recipient),
                                    ("bytes", b"")]),
                        ATTACKER, ATTACKER_CONTRACT, "0x1badface"))
    rows.append(log_row(120, 3, tx1, PTOKEN,
                        [t_transfer, t_addr(VAULT), t_addr(ZERO)],
                        abi_encode([("uint256", 50_000)]),
                        ATTACKER, ATTACKER_CONTRACT, "0x1badface"))
    # honest redemption by an ordinary user: every log is authentic
    tx2 = txh(0xAAA2)
    rows.append(log_row(121, 0, tx2, PTOKEN,
                        [t_transfer, t_addr(USER), t_addr(ZERO)],
                        abi_encode([("uint256", 7_000)]),
                        USER, VAULT, SEL_REDEEM_FN))
    rows.append(log_row(121, 1, tx2, VAULT,
                        [t_burned, t_addr(USER), t_addr(USER)],
                        abi_encode([("uint256", 7_000), ("bytes", b""), ("bytes", b"")]),
                        USER, VAULT, SEL_REDEEM_FN))
    rows.append(log_row(121, 2, tx2, VAULT,
                        [t_redeem, t_addr(USER)],
                        abi_encode([("uint256", 7_000), ("string", recipient),
                                    ("bytes", b"\x01\x02")]),
                        USER, VAULT, SEL_REDEEM_FN))
    return rows


def edge_rows() -> list[dict]:
    t_redeem = event_topic(EV_REDEEM)
    recipient = "dest-chain:qq9hollowx4vault"
    rows = []
    # authentic Redeem reached through a selector outside the declared set
    rows.append(log_row(300, 0, txh(0xEE1), VAULT,
                        [t_redeem, t_addr(USER)],
                        abi_encode([("uint256", 777), ("string", recipient), ("bytes", b"")]),
                        USER, VAULT, "0x1badface"))
    # authentic Redeem for a zero value
    rows.append(log_row(301, 0, txh(0xEE2), VAULT,
                        [t_redeem, t_addr(USER)],
                        abi_encode([("uint256", 0), ("string", recipient), ("bytes", b"")]),
                        USER, VAULT, SEL_REDEEM_FN))
    # the vault logging a topic its ruleset never declared
    rows.append(log_row(302, 0, txh(0xEE3), VAULT,
                        [event_topic(EV_PINGED)],
                        abi_encode([("uint256", 3)]),
                        USER, VAULT, SEL_REDEEM_FN))
    # authentic Redeem whose payload does not decode: the string head
    # points far past the end of the data section
    bad = "0x" + f"{777:064x}" + f"{0x200:064x}" + f"{0x60:064x}"
    rows.append(log_row(303, 0, txh(0xEE4), VAULT,
                        [t_redeem, t_addr(USER)],
                        bad,
                        USER, VAULT, SEL_REDEEM_FN))
    return rows


def spoof_rows(injected_approval: bool = False) -> list[dict]:
    t_transfer = event_topic(EV_TRANSFER)
    t_approval = event_topic(EV_APPROVAL)
    t_approval_all = event_topic(EV_APPROVAL_FOR_ALL)
    rows = []
    if injected_approval:
        # same corpus but the victim really did grant the allowance first
        rows.append(log_row(199, 0, txh(0xDD0), TOKEN_A,
                            [t_approval, t_addr(VICTIM), t_addr(ATTACKER)],
                            abi_encode([("uint256", 999)]),
                            VICTIM, TOKEN_A, SEL_APPROVE_FN))
    # transfer pulled from an address that never signed nor approved
    rows.append(log_row(200, 0, txh(0xDD1), TOKEN_A,
                        [t_transfer, t_addr(VICTIM), t_addr(ATTACKER)],
                        abi_encode([("uint256", 999)]),
                        ATTACKER, TOKEN_A, SEL_TRANSFER_FROM_FN))
    # allowance granted, then spent by the spender: legitimate
    rows.append(log_row(201, 0, txh(0xDD2), TOKEN_B,
                        [t_approval, t_addr(ALICE), t_addr(BOB)],
                        abi_encode([("uint256", 500)]),
                        ALICE, TOKEN_B, SEL_APPROVE_FN))
    rows.append(log_row(202, 0, txh(0xDD3), TOKEN_B,
                        [t_transfer, t_addr(ALICE), t_addr(CAROL)],
                        abi_encode([("uint256", 100)]),
                        BOB, TOKEN_B, SEL_TRANSFER_FROM_FN))
    # operator flag granted, then used for an NFT move: legitimate
    rows.append(log_row(203, 0, txh(0xDD4), NFT,
                        [t_approval_all, t_addr(DAVE), t_addr(EVE)],
                        abi_encode([("bool", True)]),
                        DAVE, NFT, SEL_SET_APPROVAL_FN))
    rows.append(log_row(204, 0, txh(0xDD5), NFT,
                        [t_transfer, t_addr(DAVE), t_addr(CAROL), t_uint(7)],
                        "0x",
                        EVE, NFT, SEL_TRANSFER_FROM_FN))
    # NFT pulled with no operator grant anywhere in the stream
    rows.append(log_row(205, 0, txh(0xDD6), NFT,
                        [t_transfer, t_addr(VICTIM2), t_addr(ATTACKER), t_uint(9)],
                        "0x",
                        ATTACKER, NFT, SEL_TRANSFER_FROM_FN))
    # mint: no owner to impersonate
    rows.append(log_row(206, 0, txh(0xDD7), TOKEN_A,
                        [t_transfer, t_addr(ZERO), t_addr(USER)],
                        abi_encode([("uint256", 1_000)]),
                        DEPLOYER, TOKEN_A, SEL_MINT_FN))
    # allowance revoked, then spent anyway
    rows.append(log_row(207, 0, txh(0xDD8), TOKEN_B,
                        [t_approval, t_addr(ALICE), t_addr(BOB)],
                        abi_encode([("uint256", 0)]),
                        ALICE, TOKEN_B, SEL_APPROVE_FN))
    rows.append(log_row(208, 0, txh(0xDD9), TOKEN_B,
                        [t_transfer, t_addr(ALICE), t_addr(CAROL)],
                        abi_encode([("uint256", 60)]),
                        BOB, TOKEN_B, SEL_TRANSFER_FROM_FN))
    return rows


def spoof3_rows(approved: bool = False) -> list[dict]:
    """Three transfer transactions; only the middle one is pulled by a
    stranger.  The approved variant shows the same middle row preceded
    by a real allowance grant."""
    t_transfer = event_topic(EV_TRANSFER)
    t_approval = event_topic(EV_APPROVAL)
    rows = []
    if approved:
        rows.append(log_row(149, 0, txh(0xCC0), TOKEN_A,
                            [t_approval, t_addr(VICTIM), t_addr(ATTACKER)],
                            abi_encode([("uint256", 999)]),
                            VICTIM, TOKEN_A, SEL_APPROVE_FN))
    rows.append(log_row(150, 0, txh(0xCC1), TOKEN_A,
                        [t_transfer, t_addr(ALICE), t_addr(BOB)],
                        abi_encode([("uint256", 250)]),
                        ALICE, TOKEN_A, SEL_TRANSFER_FN))
    rows.append(log_row(151, 0, txh(0xCC2), TOKEN_A,
                        [t_transfer, t_addr(VICTIM), t_addr(ATTACKER)],
                        abi_encode([("uint256", 999)]),
                        ATTACKER, TOKEN_A, SEL_TRANSFER_FROM_FN))
    rows.append(log_row(152, 0, txh(0xCC3), TOKEN_A,
                        [t_transfer, t_addr(CAROL), t_addr(DAVE)],
                        abi_encode([("uint256", 40)]),
                        CAROL, TOKEN_A, SEL_TRANSFER_FN))
    return rows


BRIDGE_RULES = """\
# Event surface of the HarborBridge deployment.  Scope: the vault and
# its pegged token are the only contracts allowed to log these events.
version: 1
projects:
  - name: HarborBridge
    authentic_emitters:
      - "{vault}"
      - "{ptoken}"
    events:
      - name: Redeem
        params:
          - {{name: redeemer, type: address, indexed: true}}
          - {{name: value, type: uint256, indexed: false}}
          - {{name: underlyingAssetRecipient, type: string, indexed: false}}
          - {{name: userData, type: bytes, indexed: false}}
      - name: Burned
        params:
          - {{name: operator, type: address, indexed: true}}
          - {{name: from, type: address, indexed: true}}
          - {{name: amount, type: uint256, indexed: false}}
          - {{name: data, type: bytes, indexed: false}}
          - {{name: operatorData, type: bytes, indexed: false}}
      - name: Transfer
        params:
          - {{name: from, type: address, indexed: true}}
          - {{name: to, type: address, indexed: true}}
          - {{name: value, type: uint256, indexed: false}}
"""

BRIDGE_RULES_STRICT = BRIDGE_RULES.replace(
    """      - name: Burned""",
    """        expected_selectors: ["{sel_redeem}"]
        predicates:
          - {{param: value, op: ">", value: 0}}
      - name: Burned""",
)


def write_corpora() -> None:
    corpora = {
        "bridge_logs.jsonl": bridge_rows(),
        "bridge_edge_logs.jsonl": edge_rows(),
        "spoof_logs.jsonl": spoof_rows(),
        "spoof_approved_logs.jsonl": spoof_rows(injected_approval=True),
        "spoof3_logs.jsonl": spoof3_rows(),
        "spoof3_approved_logs.jsonl": spoof3_rows(approved=True),
    }
    for name, rows in corpora.items():
        text = "\n".join(json.dumps(r) for r in rows) + "\n"
        (FIXTURES / name).write_text(text)
        print(f"{name}: {len(rows)} records")
    rules = BRIDGE_RULES.format(vault=VAULT, ptoken=PTOKEN)
    (FIXTURES / "bridge_rules.yaml").write_text(rules)
    strict = BRIDGE_RULES_STRICT.format(vault=VAULT, ptoken=PTOKEN,
                                        sel_redeem=SEL_REDEEM_FN)
    (FIXTURES / "bridge_rules_strict.yaml").write_text(strict)
    print("bridge_rules.yaml, bridge_rules_strict.yaml written")


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_bytecode()
    write_sigdb()
    print("sigdb.txt written")
    write_msol()
    write_corpora()


if __name__ == "__main__":
    main()
