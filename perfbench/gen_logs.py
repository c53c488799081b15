"""Seeded event-log corpora for the log-scan workloads.

`forensics_corpus` re-states the attack-dense generator of the
acceptance suite's c10 test (same record distribution, same random
draws: seed 424242 reproduces that corpus record for record).

`monitor_corpus` is an operator's everyday stream: bridge redemptions,
mints and transfers of the project's token, and unrelated DEX traffic.
One transaction in a hundred carries a planted forgery, and the
generator records the findings each plant must produce.
"""

from __future__ import annotations

import json
import random

from common import use_program
from reference import finding_key

use_program()

from phantomscan._keccak import event_topic  # noqa: E402

VAULT = "0x" + "11" * 20
PTOKEN = "0x" + "22" * 20
ZERO = "0x" + "00" * 20
PROJECT = "HarborBridge"

T_TRANSFER = event_topic("Transfer(address,address,uint256)")
T_APPROVAL = event_topic("Approval(address,address,uint256)")
T_REDEEM = event_topic("Redeem(address,uint256,string,bytes)")
T_BURNED = event_topic("Burned(address,address,uint256,bytes,bytes)")
T_NOISE = event_topic("Noise(uint256)")
T_SWAP = event_topic("Swap(address,uint256,uint256,uint256,uint256,address)")
T_SYNC = event_topic("Sync(uint112,uint112)")
T_PAUSED = event_topic("Paused(address)")


def t_addr(addr: str) -> str:
    return "0x" + "0" * 24 + addr[2:]


def enc(*items) -> str:
    """Head/tail ABI encoding of non-indexed event parameters."""
    heads, tails = [], []
    tail_at = 32 * len(items)
    for type_, value in items:
        if type_ == "uint256":
            heads.append(f"{value:064x}")
        elif type_ == "address":
            heads.append("0" * 24 + value[2:])
        else:
            payload = value.encode("utf-8") if type_ == "string" else value
            heads.append(f"{tail_at:064x}")
            padded = payload + b"\x00" * (-len(payload) % 32)
            tails.append(f"{len(payload):064x}" + padded.hex())
            tail_at += 32 + len(padded)
    return "0x" + "".join(heads) + "".join(tails)


def row(block, index, tx, address, topics, data, tx_from, tx_to=None,
        selector="0xaabbccdd") -> dict:
    return {
        "txHash": f"0x{tx:064x}" if isinstance(tx, int) else tx,
        "logIndex": index,
        "blockNumber": block,
        "address": address,
        "topics": topics,
        "data": data,
        "txFrom": tx_from,
        "txTo": address if tx_to is None else tx_to,
        "txSelector": selector,
    }


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r))
            fh.write("\n")


# --------------------------------------------------------------------------
# the acceptance suite's attack-dense distribution
# --------------------------------------------------------------------------

def forensics_corpus(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    people = [f"0x{i:040x}" for i in range(0xA1, 0xA9)]
    tokens = ["0x" + "44" * 20, "0x" + "55" * 20]
    emitters = [VAULT, PTOKEN, "0x" + "a7" * 20, "0x" + "cd" * 20]
    records: list[dict] = []
    txn = 0
    block = 0
    while len(records) < count:
        block += 1
        log_index = 0
        for _ in range(rng.randint(1, 2)):
            txn += 1
            sender = rng.choice(people)
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.40:
                    a, b = rng.sample(people, 2)
                    r = row(block, log_index, txn, rng.choice(tokens),
                            [T_TRANSFER, t_addr(a), t_addr(b)],
                            enc(("uint256", rng.randint(0, 10_000))), sender)
                elif roll < 0.55:
                    a, b = rng.sample(people, 2)
                    r = row(block, log_index, txn, rng.choice(tokens),
                            [T_APPROVAL, t_addr(a), t_addr(b)],
                            enc(("uint256", rng.randint(0, 5))), sender)
                elif roll < 0.75:
                    r = row(block, log_index, txn, rng.choice(emitters),
                            [T_REDEEM, t_addr(rng.choice(people))],
                            enc(("uint256", rng.randint(1, 9)), ("string", "r"),
                                ("bytes", b"")), sender)
                elif roll < 0.90:
                    a, b = rng.sample(people, 2)
                    r = row(block, log_index, txn, rng.choice(emitters),
                            [T_BURNED, t_addr(a), t_addr(b)],
                            enc(("uint256", 1), ("bytes", b""), ("bytes", b"")), sender)
                else:
                    r = row(block, log_index, txn, rng.choice(emitters),
                            [T_NOISE], enc(("uint256", 0)), sender)
                records.append(r)
                log_index += 1
    return records


# --------------------------------------------------------------------------
# everyday traffic with planted forgeries
# --------------------------------------------------------------------------

FORGERY_KINDS = ("foreign-copy", "blend", "spoof", "undeclared")
FORGERY_EVERY = 100  # one planted transaction per this many


def monitor_corpus(seed: int, count: int) -> tuple[list[dict], list[tuple]]:
    """Returns (records, planted findings)."""
    rng = random.Random(seed)
    addr = lambda: f"0x{rng.getrandbits(160):040x}"  # noqa: E731
    users = [addr() for _ in range(200)]
    relayer = addr()
    router = addr()
    pairs = [addr() for _ in range(6)]
    tokens = [addr() for _ in range(6)]
    attackers = [addr() for _ in range(4)]
    foreign = [addr() for _ in range(4)]
    recipient = "dest-chain:" + "".join(rng.choice("0123456789abcdef") for _ in range(24))
    sel = {name: f"0x{rng.getrandbits(32):08x}"
           for name in ("redeem", "transfer", "mint", "swap", "approve", "exploit")}

    records: list[dict] = []
    planted: list[tuple] = []
    block = -1  # the stream starts at block 0, so no approval can predate it
    txn = 0
    plant_at = rng.randrange(FORGERY_EVERY)
    kinds = list(FORGERY_KINDS)
    rng.shuffle(kinds)

    while len(records) < count:
        block += 1
        log_index = 0
        for _ in range(rng.randint(1, 4)):
            txn += 1
            tx = f"0x{rng.getrandbits(256):064x}"
            rows: list[dict] = []

            def log(address, topics, data, tx_from, tx_to, selector):
                nonlocal log_index
                r = row(block, log_index, tx, address, topics, data, tx_from, tx_to, selector)
                log_index += 1
                rows.append(r)
                return r

            slot = txn % FORGERY_EVERY
            if slot == plant_at:
                kind = kinds[(txn // FORGERY_EVERY) % len(kinds)]
                attacker = rng.choice(attackers)
                fake = rng.choice(foreign)
                if kind == "foreign-copy":
                    event = rng.choice(["Redeem", "Burned"])
                    if event == "Redeem":
                        data = enc(("uint256", rng.randrange(1, 10**24)), ("string", recipient),
                                   ("bytes", b""))
                        topics = [T_REDEEM, t_addr(attacker)]
                    else:
                        data = enc(("uint256", rng.randrange(1, 10**24)), ("bytes", b""), ("bytes", b""))
                        topics = [T_BURNED, t_addr(attacker), t_addr(attacker)]
                    r = log(fake, topics, data, attacker, fake, sel["exploit"])
                    planted.append(finding_key("RULE_VIOLATION", "emitter-authenticity", r,
                                               PROJECT, event, "CONFIRMED"))
                elif kind == "blend":
                    amount = rng.randrange(1, 10**20)
                    log(PTOKEN, [T_TRANSFER, t_addr(attacker), t_addr(VAULT)],
                        enc(("uint256", amount)), attacker, fake, sel["exploit"])
                    log(VAULT, [T_BURNED, t_addr(attacker), t_addr(attacker)],
                        enc(("uint256", amount), ("bytes", b""), ("bytes", b"")),
                        attacker, fake, sel["exploit"])
                    r = log(fake, [T_REDEEM, t_addr(attacker)],
                            enc(("uint256", amount * 90), ("string", recipient), ("bytes", b"")),
                            attacker, fake, sel["exploit"])
                    planted.append(finding_key("RULE_VIOLATION", "emitter-authenticity", r,
                                               PROJECT, "Redeem", "CONFIRMED"))
                    planted.append(finding_key("BLENDED_EVENT", None, r, PROJECT, "Redeem", "POTENTIAL"))
                elif kind == "spoof":
                    victim = rng.choice(users)
                    r = log(PTOKEN, [T_TRANSFER, t_addr(victim), t_addr(attacker)],
                            enc(("uint256", rng.randrange(1, 10**20))),
                            attacker, PTOKEN, sel["transfer"])
                    planted.append(finding_key("TRANSFER_SPOOFING", None, r, None, "Transfer", "POTENTIAL"))
                else:  # an authentic emitter logging outside its declared surface
                    user = rng.choice(users)
                    r = log(VAULT, [T_PAUSED], enc(("address", user)), user, VAULT, sel["redeem"])
                    planted.append(finding_key("RULE_VIOLATION", "undeclared-signature", r,
                                               PROJECT, None, "CONFIRMED"))
            else:  # an assumed everyday mix, not a measured one (see README.md)
                roll = rng.random()
                user = rng.choice(users)
                if roll < 0.35:  # holder moves their own pegged tokens
                    other = rng.choice(users)
                    log(PTOKEN, [T_TRANSFER, t_addr(user), t_addr(other)],
                        enc(("uint256", rng.randrange(1, 10**20))), user, PTOKEN, sel["transfer"])
                elif roll < 0.50:  # redemption: burn, Burned, Redeem
                    amount = rng.randrange(1, 10**20)
                    log(PTOKEN, [T_TRANSFER, t_addr(user), t_addr(ZERO)],
                        enc(("uint256", amount)), user, VAULT, sel["redeem"])
                    log(VAULT, [T_BURNED, t_addr(user), t_addr(user)],
                        enc(("uint256", amount), ("bytes", b""), ("bytes", b"")),
                        user, VAULT, sel["redeem"])
                    log(VAULT, [T_REDEEM, t_addr(user)],
                        enc(("uint256", amount), ("string", recipient), ("bytes", b"")),
                        user, VAULT, sel["redeem"])
                elif roll < 0.60:  # relayer mints a bridged deposit
                    log(PTOKEN, [T_TRANSFER, t_addr(ZERO), t_addr(user)],
                        enc(("uint256", rng.randrange(1, 10**20))), relayer, PTOKEN, sel["mint"])
                elif roll < 0.85:  # DEX swap of unrelated tokens
                    pair = rng.choice(pairs)
                    log(rng.choice(tokens), [T_APPROVAL, t_addr(user), t_addr(router)],
                        enc(("uint256", rng.randrange(10**18))), user, router, sel["swap"])
                    log(pair, [T_SWAP, t_addr(router), t_addr(user)],
                        enc(*[("uint256", rng.randrange(10**18)) for _ in range(4)]),
                        user, router, sel["swap"])
                    log(pair, [T_SYNC], enc(("uint256", rng.randrange(10**18)),
                                            ("uint256", rng.randrange(10**18))),
                        user, router, sel["swap"])
                else:  # allowance grant on an unrelated token
                    token = rng.choice(tokens)
                    log(token, [T_APPROVAL, t_addr(user), t_addr(rng.choice(users))],
                        enc(("uint256", rng.randrange(10**18))), user, token, sel["approve"])
            records.extend(rows)
    return records, planted
