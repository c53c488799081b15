"""Print a digest of every CLI output on the bundled fixtures.

    python tools/output_digests.py [SRC]

Runs each phantomscan subcommand, as a child process, on the bundled
fixtures, on the acceptance suite's c10 log corpus (50,000 records,
seed 424242), on a few malformed sources, which pin the syntax
errors' text and exit code, and on a few small log corpora (one valid in
mixed case, the others each malformed in one way), which pin the record
parser's errors the same way.  Then come four c10 corpora a few times
`MIN_RANGE_BYTES` long, which `scan-logs` cuts into byte ranges on any
machine with two CPUs or more: three with one defect past the middle
(invalid JSON, a byte that is not UTF-8, a record out of order) and one
whose transfers after the middle are authorized, or not, by approvals
before it.  Where the cuts fall depends on the CPU count; the output
must not.  Last come the bytecode and source
analyses, `--json`, of every generated contract in the benchmark's
seed-7 draws (`perfbench/gen_contracts.py`, fixtures left out), each
written under its own generated file name.  It prints one line per
invocation:

    <sha256 of stdout, NUL, stderr> <exit code> <invocation>

For an invocation that writes a file (`report ... --out FILE`), the
digest also covers a NUL and that file's bytes.

SRC is the source directory of the checkout to run (default: this
checkout's `src`).  Two checkouts produce byte-identical output on
these inputs exactly when their runs print the same lines:

    python tools/output_digests.py > after.txt
    python tools/output_digests.py ../parent/src > before.txt
    diff before.txt after.txt

Every child runs in one temporary directory holding a copy of the
fixtures and the corpus, on relative paths, so the output does not
depend on where a checkout lives.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
C10_SEED = 424242
C10_RECORDS = 50_000
DRAW_SEED = 7

HEX = ("checked_call", "counterfeit", "emit_helper", "inconsistent",
       "inconsistent_safe", "nocheck_call")
MSOL = ("counterfeit", "disjoint", "inconsistent", "inconsistent_safe", "relay")
CORPORA = ("bridge_edge_logs", "bridge_logs", "spoof3_approved_logs", "spoof3_logs",
           "spoof_approved_logs", "spoof_logs", "c10")
RULES = ("bridge_rules.yaml", "bridge_rules_strict.yaml")
# sources the lexer rejects, and one with non-ASCII text in a comment, which it takes
LEXER_CASES = {
    "stray_at.msol": "contract C {\n  uint256 a;\n  @\n}\n",
    "bare_hex.msol": "contract C { uint256 a;\n  function f() external { a = 0x; } }\n",
    "unclosed.msol": "contract C {\n  uint256 a;\n  function f() external { a = 1; }\n",
    "comment_utf8.msol": ("// d\u00e9p\u00f4t \u00b2 \u2014 any character is fine here\n"
                          "contract C { uint256 a;\n  function f() external { a = 1; } }\n"),
}

# log corpora that pin the record parser's paths: one valid corpus in mixed case,
# with null fields and 0 to 3 topics, then a valid first line and a malformed
# second one per check the parser makes
_TRANSFER = "0xDDF252AD1BE2C89B69C2B068FC378DAA952BA7F163C4A11628F55A4DF523B3EF"
_RECORD = {
    "txHash": "0x" + "0" * 60 + "aAa1",
    "logIndex": 0,
    "blockNumber": 120,
    "address": "0x" + "2" * 40,
    "topics": [_TRANSFER, "0x" + "0" * 24 + "E0" * 20, "0x" + "0" * 24 + "1" * 40],
    "data": "0x" + "0" * 60 + "C350",
    "txFrom": "0xe0E0" + "e0" * 18,
    "txTo": "0x" + "A7" * 20,
    "txSelector": "0xAABBccdd",
}
_DROP = object()


def _line(**changes) -> str:
    """`_RECORD` as a JSON line, with `changes` (the value `_DROP` removes its key)."""
    record = {**_RECORD, **changes}
    return json.dumps({k: v for k, v in record.items() if v is not _DROP})


LOG_CASES = {
    "mixed_case.jsonl": "\n".join([
        _line(),
        "",
        _line(logIndex=1, address="0x" + "aB" * 20, txTo=None, txSelector=None,
              topics=[_TRANSFER, "0x" + "0" * 24 + "C3" * 20, "0x" + "0" * 24 + "d4" * 20]),
        _line(logIndex=2, address="0x" + "1" * 40, topics=[], data="0x"),
        _line(logIndex=3, address="0x" + "Cd" * 20, topics=[_TRANSFER[:-1] + "f"] * 2,
              txSelector=None),
    ]) + "\n",
    "invalid_json.jsonl": _line() + "\n" + '{"txHash": "0x12",\n',
    "extra_data.jsonl": _line() + "\n" + _line(logIndex=1) + " {}\n",
    "bom.jsonl": _line() + "\n\ufeff" + _line(logIndex=1) + "\n",
    "not_an_object.jsonl": _line() + "\n[1, 2]\n",
    "missing_txhash.jsonl": _line() + "\n" + _line(logIndex=1, txHash=_DROP) + "\n",
    "short_txhash.jsonl": _line() + "\n" + _line(logIndex=1, txHash="0x" + "1" * 63) + "\n",
    # joined by "\n" and matched by one pattern for every layout, this record would parse
    "address_newline.jsonl": _line() + "\n" + _line(
        logIndex=1, address="0x" + "1" * 40 + "\n0x" + "2" * 40, topics=[],
        data="0x" + "ab" * 32, txTo=None) + "\n",
    "upper_x_txfrom.jsonl": _line() + "\n" + _line(logIndex=1, txFrom="0X" + "e0" * 20) + "\n",
    "empty_txto.jsonl": _line() + "\n" + _line(logIndex=1, txTo="") + "\n",
    "missing_txto.jsonl": _line() + "\n" + _line(logIndex=1, txTo=_DROP) + "\n",
    "long_selector.jsonl": _line() + "\n" + _line(logIndex=1, txSelector="0xaabbccdd00") + "\n",
    "missing_logindex.jsonl": _line() + "\n" + _line(logIndex=_DROP) + "\n",
    "bool_blocknumber.jsonl": _line() + "\n" + _line(logIndex=1, blockNumber=True) + "\n",
    "negative_logindex.jsonl": _line() + "\n" + _line(logIndex=-1) + "\n",
    "five_topics.jsonl": _line() + "\n" + _line(logIndex=1, topics=[_TRANSFER] * 5) + "\n",
    "short_topic.jsonl": _line() + "\n" + _line(logIndex=1, topics=[_TRANSFER[:-1]]) + "\n",
    "odd_data.jsonl": _line() + "\n" + _line(logIndex=1, data="0xabc") + "\n",
    "missing_data.jsonl": _line() + "\n" + _line(logIndex=1, data=_DROP) + "\n",
}


def _topic(signature: str, keccak256) -> str:
    return "0x" + keccak256(signature.encode("ascii")).hex()


def _t_addr(addr: str) -> str:
    return "0x" + "0" * 24 + addr[2:]


def _enc(*items) -> str:
    """Head/tail ABI encoding of (type, value) pairs."""
    heads, tails = [], []
    tail_at = 32 * len(items)
    for type_, value in items:
        if type_ == "uint256":
            heads.append(f"{value:064x}")
        else:
            payload = value.encode("utf-8") if type_ == "string" else value
            heads.append(f"{tail_at:064x}")
            padded = payload + b"\x00" * (-len(payload) % 32)
            tails.append(f"{len(payload):064x}" + padded.hex())
            tail_at += 32 + len(padded)
    return "0x" + "".join(heads) + "".join(tails)


def c10_rows(count: int, keccak256) -> list[dict]:
    """The acceptance suite's c10 corpus (`_synthetic_corpus`), as JSONL rows."""
    rng = random.Random(C10_SEED)
    t_transfer = _topic("Transfer(address,address,uint256)", keccak256)
    t_approval = _topic("Approval(address,address,uint256)", keccak256)
    t_redeem = _topic("Redeem(address,uint256,string,bytes)", keccak256)
    t_burned = _topic("Burned(address,address,uint256,bytes,bytes)", keccak256)
    t_noise = _topic("Noise(uint256)", keccak256)
    people = [f"0x{i:040x}" for i in range(0xA1, 0xA9)]
    tokens = ["0x" + "44" * 20, "0x" + "55" * 20]
    emitters = ["0x" + "11" * 20, "0x" + "22" * 20, "0x" + "a7" * 20, "0x" + "cd" * 20]
    rows: list[dict] = []
    txn = 0
    block = 0
    while len(rows) < count:
        block += 1
        log_index = 0
        for _ in range(rng.randint(1, 2)):
            txn += 1
            sender = rng.choice(people)
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.40:
                    a, b = rng.sample(people, 2)
                    address = rng.choice(tokens)
                    topics = [t_transfer, _t_addr(a), _t_addr(b)]
                    data = _enc(("uint256", rng.randint(0, 10_000)))
                elif roll < 0.55:
                    a, b = rng.sample(people, 2)
                    address = rng.choice(tokens)
                    topics = [t_approval, _t_addr(a), _t_addr(b)]
                    data = _enc(("uint256", rng.randint(0, 5)))
                elif roll < 0.75:
                    address = rng.choice(emitters)
                    topics = [t_redeem, _t_addr(rng.choice(people))]
                    data = _enc(("uint256", rng.randint(1, 9)), ("string", "r"), ("bytes", b""))
                elif roll < 0.90:
                    a, b = rng.sample(people, 2)
                    address = rng.choice(emitters)
                    topics = [t_burned, _t_addr(a), _t_addr(b)]
                    data = _enc(("uint256", 1), ("bytes", b""), ("bytes", b""))
                else:
                    address = rng.choice(emitters)
                    topics = [t_noise]
                    data = _enc(("uint256", 0))
                rows.append({
                    "txHash": f"0x{txn:064x}",
                    "logIndex": log_index,
                    "blockNumber": block,
                    "address": address,
                    "topics": topics,
                    "data": data,
                    "txFrom": sender,
                    "txTo": address,
                    "txSelector": "0xaabbccdd",
                })
                log_index += 1
    return rows


SPLIT_ROWS = 6_000  # about 4 MiB of c10 rows, four times MIN_RANGE_BYTES
_OWNER, _SPENDER, _STRANGER = (f"0x{i:040x}" for i in (0xB1, 0xB2, 0xB3))


def split_corpora(rows: list[dict], keccak256) -> dict[str, bytes]:
    """The split-size corpora, from the first SPLIT_ROWS of the c10 `rows`,
    by file name."""
    rows = rows[:SPLIT_ROWS]
    past_middle = SPLIT_ROWS * 3 // 5

    def text(rows: list) -> bytes:
        return "".join(row if isinstance(row, str) else json.dumps(row) + "\n"
                       for row in rows).encode("utf-8")

    invalid_json = list(rows)
    invalid_json[past_middle] = '{"txHash": "0x12",\n'
    lines = text(rows).split(b"\n")
    lines[past_middle] = lines[past_middle][:40] + b"\xff" + lines[past_middle][40:]
    out_of_order = list(rows)
    at = next(i for i in range(past_middle, SPLIT_ROWS)
              if rows[i]["blockNumber"] != rows[i + 1]["blockNumber"])
    out_of_order[at], out_of_order[at + 1] = rows[at + 1], rows[at]
    # a grant and a revocation before the middle; transfers they rule on after it
    approvals = list(rows)
    token = "0x" + "44" * 20
    t_approval = _topic("Approval(address,address,uint256)", keccak256)
    t_transfer = _topic("Transfer(address,address,uint256)", keccak256)
    for at, spender, value in ((SPLIT_ROWS // 4, _SPENDER, 7), (SPLIT_ROWS // 3, _STRANGER, 0)):
        approvals[at] = {**rows[at], "address": token, "txTo": token, "txFrom": _OWNER,
                         "topics": [t_approval, _t_addr(_OWNER), _t_addr(spender)],
                         "data": _enc(("uint256", value))}
    for at, spender in ((SPLIT_ROWS * 2 // 3, _SPENDER), (SPLIT_ROWS * 3 // 4, _STRANGER)):
        approvals[at] = {**rows[at], "address": token, "txTo": token, "txFrom": spender,
                         "topics": [t_transfer, _t_addr(_OWNER), _t_addr(rows[at]["txFrom"])],
                         "data": _enc(("uint256", 1))}
    return {
        "split_invalid_json.jsonl": text(invalid_json),
        "split_not_utf8.jsonl": b"\n".join(lines),
        "split_out_of_order.jsonl": text(out_of_order),
        "split_approvals.jsonl": text(approvals),
    }


def drawn_contracts() -> dict[str, str]:
    """The generated contracts of the benchmark's bytecode and source draws, by file name."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from gen_contracts import bytecode_draw, source_draw

    drawn = bytecode_draw(DRAW_SEED) + source_draw(DRAW_SEED)
    return {c.name: c.text for c in sorted(drawn, key=lambda c: c.name) if c.family != "fixture"}


def invocations(drawn=()) -> list[list[str]]:
    """Every subcommand over the fixtures, then the analyses of the `drawn` contract
    files, as argument lists relative to the work directory."""
    runs: list[list[str]] = []
    for name in HEX:
        hex_file = f"{name}.hex"
        runs += [
            ["disasm", hex_file],
            ["disasm", hex_file, "--json"],
            ["disasm", hex_file, "--keep-metadata", "--json"],
            ["icfg", hex_file],
            ["icfg", hex_file, "--sigdb", "sigdb.txt"],
            ["icfg", hex_file, "--sigdb", "sigdb.txt", "--dot"],
            ["analyze-bytecode", hex_file],
            ["analyze-bytecode", hex_file, "--json"],
            ["analyze-bytecode", hex_file, "--sigdb", "sigdb.txt", "--json"],
            ["analyze-bytecode", hex_file, "--sigdb", "sigdb.txt", "--strict-eq2", "--json"],
            ["report", "--bytecode", hex_file, "--sigdb", "sigdb.txt"],
        ]
    for name in MSOL:
        msol = f"{name}.msol"
        runs += [
            ["parse", msol],
            ["parse", msol, "--summary"],
            ["analyze-source", msol],
            ["analyze-source", msol, "--json"],
            ["report", "--source", msol],
        ]
    for name in CORPORA:
        corpus = f"{name}.jsonl"
        runs += [["scan-logs", corpus], ["scan-logs", corpus, "--json"],
                 ["scan-logs", corpus, "--no-spoofing", "--json"]]
        for rules in RULES:
            runs += [["scan-logs", corpus, "--rules", rules],
                     ["scan-logs", corpus, "--rules", rules, "--json"]]
    everything = ["report", "--sigdb", "sigdb.txt", "--rules", "bridge_rules.yaml"]
    for name in HEX:
        everything += ["--bytecode", f"{name}.hex"]
    for name in MSOL:
        everything += ["--source", f"{name}.msol"]
    for name in CORPORA[:-1]:
        everything += ["--logs", f"{name}.jsonl"]
    runs += [everything, everything + ["--out", "report.json"]]
    for name in LEXER_CASES:
        runs += [["parse", name], ["analyze-source", name]]
    runs += [["scan-logs", "mixed_case.jsonl", "--json"],
             ["scan-logs", "mixed_case.jsonl", "--rules", "bridge_rules.yaml", "--json"]]
    for name in LOG_CASES:
        runs.append(["scan-logs", name])
    for name in ("split_invalid_json", "split_not_utf8", "split_out_of_order"):
        runs.append(["scan-logs", f"{name}.jsonl"])
    runs += [["scan-logs", "split_approvals.jsonl", "--json"],
             ["scan-logs", "split_approvals.jsonl", "--rules", "bridge_rules.yaml", "--json"],
             ["report", "--logs", "split_approvals.jsonl", "--logs", "split_approvals.jsonl"]]
    for name in drawn:
        if name.endswith(".hex"):
            runs += [["analyze-bytecode", name, "--sigdb", "sigdb.txt", "--json"],
                     ["analyze-bytecode", name, "--sigdb", "sigdb.txt", "--strict-eq2", "--json"]]
        else:
            runs.append(["analyze-source", name, "--json"])
    return runs


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve() if argv else HERE.parent / "src"
    fixtures = src / "phantomscan" / "fixtures"
    if not (src / "phantomscan" / "cli.py").is_file():
        print(f"error: no phantomscan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from phantomscan._keccak import keccak256
    drawn = drawn_contracts()

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="phantomscan-digests-") as work:
        for item in fixtures.iterdir():
            shutil.copy(item, work)
        rows = c10_rows(C10_RECORDS, keccak256)
        with open(Path(work) / "c10.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        for name, data in split_corpora(rows, keccak256).items():
            (Path(work) / name).write_bytes(data)
        for name, text in {**LEXER_CASES, **LOG_CASES, **drawn}.items():
            (Path(work) / name).write_text(text, encoding="utf-8")
        for args in invocations(drawn):
            proc = subprocess.run([sys.executable, "-m", "phantomscan.cli", *args],
                                  cwd=work, env=env, capture_output=True, check=False)
            output = proc.stdout + b"\0" + proc.stderr
            if "--out" in args:
                written = Path(work) / args[args.index("--out") + 1]
                output += b"\0" + (written.read_bytes() if written.is_file() else b"")
                written.unlink(missing_ok=True)
            digest = hashlib.sha256(output).hexdigest()
            print(f"{digest} {proc.returncode} {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
