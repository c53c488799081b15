"""Acceptance suite: one test per shipped guarantee.

Each test pins an end-to-end behavior of the toolkit on the bundled
fixtures, with exact counts and explicit runtime bounds where the
guarantee includes one.  Run with -v to get one pass/fail line per
criterion.
"""

import json
import random
import time

from click.testing import CliRunner

from reference_scan import ReferenceScanner
from test_solver import TestAgainstBruteForce as _BruteForceSuite
from test_taint import FIXTURES as HEX_FIXTURES
from test_taint import icfg_for, oracle_traces
from test_txscan import detailed, enc, rec, t_addr

from phantomscan._keccak import event_topic
from phantomscan.cli import main as cli_main
from phantomscan.evm.disasm import Bytecode, disassemble, encode_instructions
from phantomscan.lifter import SigDb, build_icfg
from phantomscan.minisol import load
from phantomscan.resources import fixture_path
from phantomscan.symexec import analyze_source
from phantomscan.taint import backward_slice, detect, extract_log_ops
from phantomscan.txscan import Scanner, load_rules_file, read_records_file, scan_records

DEPOSIT_SIG = "Deposit(address,uint256,address,uint256)"


def _source_findings(name: str):
    return analyze_source(load(fixture_path(name).read_text()))


def _bytecode_findings(name: str):
    icfg, sigdb = icfg_for(name)
    return detect(icfg, sigdb)


def test_c01_counterfeiting_poc_confirmed_at_source_and_flagged_in_bytecode():
    t0 = time.monotonic()
    src = _source_findings("counterfeit.msol")
    src_elapsed = time.monotonic() - t0
    ec = [f for f in src if f.kind == "EVENT_COUNTERFEITING"]
    assert len(ec) == 1
    finding = ec[0]
    assert finding.confidence == "CONFIRMED"
    assert finding.event == DEPOSIT_SIG
    witness = finding.detail["witness"]
    assert witness["token"] == 0  # address(0): the ETH path forging a token deposit

    t0 = time.monotonic()
    byt = _bytecode_findings("counterfeit")
    byt_elapsed = time.monotonic() - t0
    hits = [
        f for f in byt
        if f.kind == "EVENT_COUNTERFEITING"
        and f.condition == "MULTI_TAINTED_PATHS"
        and f.topic0 == int(event_topic(DEPOSIT_SIG), 16)
    ]
    assert len(hits) >= 1
    assert all(f.confidence == "POTENTIAL" for f in hits)
    assert src_elapsed < 5.0 and byt_elapsed < 5.0


def test_c02_disjoint_constraint_paths_produce_no_counterfeiting_finding():
    findings = _source_findings("disjoint.msol")
    assert [f for f in findings if f.kind == "EVENT_COUNTERFEITING"] == []


def test_c03_inconsistent_logging_found_at_both_layers_and_safe_variant_clean():
    src = [f for f in _source_findings("inconsistent.msol")
           if f.kind == "INCONSISTENT_LOGGING"]
    assert len(src) == 1
    byt = [f for f in _bytecode_findings("inconsistent")
           if f.kind == "INCONSISTENT_LOGGING"]
    assert len(byt) == 1
    assert [f for f in _source_findings("inconsistent_safe.msol")
            if f.kind == "INCONSISTENT_LOGGING"] == []
    assert [f for f in _bytecode_findings("inconsistent_safe")
            if f.kind == "INCONSISTENT_LOGGING"] == []


def test_c04_blended_event_in_attack_tx_and_benign_sibling_clean():
    rules = load_rules_file(fixture_path("bridge_rules.yaml"))
    records = list(read_records_file(fixture_path("bridge_logs.jsonl")))
    attack_tx = records[0].tx_hash
    assert len([r for r in records if r.tx_hash == attack_tx]) == 4

    findings, _ = scan_records(records, rules)
    # the violation comes as its log arrives, the blend once the transaction ends
    assert [(f.kind, f.check) for f in findings] == [
        ("RULE_VIOLATION", "emitter-authenticity"),
        ("BLENDED_EVENT", None),
    ]
    violation, blend = findings
    # the blend cites the Redeem log emitted by the outside contract
    assert blend.event == "Redeem"
    assert blend.tx_hash == attack_tx and blend.log_index == 2
    assert blend.address == "0x" + "a7" * 20
    assert violation.log_index == 2 and violation.address == blend.address

    benign = [r for r in records if r.tx_hash != attack_tx]
    assert benign
    benign_findings, _ = scan_records(benign, rules)
    assert benign_findings == []


def test_c05_spoofing_middle_row_only_and_injected_approval_clears_it():
    findings, _ = scan_records(read_records_file(fixture_path("spoof3_logs.jsonl")))
    assert [f.kind for f in findings] == ["TRANSFER_SPOOFING"]
    spoof = findings[0]
    rows = list(read_records_file(fixture_path("spoof3_logs.jsonl")))
    assert len(rows) == 3
    assert (spoof.block_number, spoof.tx_hash) == (rows[1].block_number, rows[1].tx_hash)
    assert {rows[0].block_number, rows[2].block_number}.isdisjoint(
        {f.block_number for f in findings}
    )
    approved, _ = scan_records(read_records_file(fixture_path("spoof3_approved_logs.jsonl")))
    assert [f for f in approved if f.kind == "TRANSFER_SPOOFING"] == []


def test_c06_solver_verdicts_match_brute_force_on_1000_conjunctions():
    # 1000 seeded conjunctions, <=3 variables bounded to 0..7: the
    # decision procedure must agree with exhaustive enumeration on every
    # one, and every SAT model must re-evaluate all conjuncts to true.
    _BruteForceSuite().test_thousand_random_conjunctions_match_enumeration()


def test_c07_backward_slices_equal_exhaustive_reverse_walk_on_all_fixtures():
    for name in HEX_FIXTURES:
        icfg, _ = icfg_for(name)
        assert len(icfg.blocks) <= 64, name  # oracle scope guard
        for op in extract_log_ops(icfg):
            slices, exceeded = backward_slice(icfg, op)
            assert not exceeded, (name, op.pc)
            assert {s.block_trace for s in slices} == oracle_traces(icfg, op), (name, op.pc)


def test_c08_every_subcommand_is_byte_identical_across_runs():
    runner = CliRunner()
    sigdb = str(fixture_path("sigdb.txt"))
    invocations = []
    for name in HEX_FIXTURES:
        path = str(fixture_path(name + ".hex"))
        invocations.append(["disasm", path, "--json"])
        invocations.append(["icfg", path, "--sigdb", sigdb])
        invocations.append(["analyze-bytecode", path, "--sigdb", sigdb, "--json"])
    for name in ("counterfeit", "inconsistent", "inconsistent_safe", "disjoint", "relay"):
        path = str(fixture_path(name + ".msol"))
        invocations.append(["parse", path])
        invocations.append(["parse", path, "--summary"])
        invocations.append(["analyze-source", path, "--json"])
    rules = str(fixture_path("bridge_rules.yaml"))
    strict = str(fixture_path("bridge_rules_strict.yaml"))
    for corpus, ruleset in [
        ("bridge_logs.jsonl", rules),
        ("bridge_edge_logs.jsonl", strict),
        ("spoof_logs.jsonl", None),
        ("spoof_approved_logs.jsonl", None),
        ("spoof3_logs.jsonl", None),
        ("spoof3_approved_logs.jsonl", None),
    ]:
        args = ["scan-logs", str(fixture_path(corpus)), "--json"]
        if ruleset:
            args += ["--rules", ruleset]
        invocations.append(args)
    invocations.append([
        "report",
        "--bytecode", str(fixture_path("counterfeit.hex")),
        "--source", str(fixture_path("counterfeit.msol")),
        "--sigdb", sigdb,
    ])
    for args in invocations:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.exit_code == second.exit_code, args
        assert first.exit_code in (0, 1), (args, first.output)
        assert first.output == second.output, args


def test_c09_disassembler_round_trips_10000_random_byte_strings():
    rng = random.Random(20260819)
    for _ in range(10_000):
        code = rng.randbytes(rng.randint(0, 512))
        instructions = disassemble(code)
        assert encode_instructions(instructions) == code
        # instruction sizes partition the input with no gap or overlap
        cursor = 0
        for ins in instructions:
            assert ins.offset == cursor
            cursor += ins.size
        assert cursor == len(code)


def _synthetic_corpus(count: int = 1000):
    rng = random.Random(424242)
    t_transfer = event_topic("Transfer(address,address,uint256)")
    t_approval = event_topic("Approval(address,address,uint256)")
    t_redeem = event_topic("Redeem(address,uint256,string,bytes)")
    t_burned = event_topic("Burned(address,address,uint256,bytes,bytes)")
    t_noise = event_topic("Noise(uint256)")
    people = [f"0x{i:040x}" for i in range(0xA1, 0xA9)]
    tokens = ["0x" + "44" * 20, "0x" + "55" * 20]
    emitters = ["0x" + "11" * 20, "0x" + "22" * 20, "0x" + "a7" * 20, "0x" + "cd" * 20]
    records = []
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
                    row = rec(block, log_index, txn, rng.choice(tokens),
                              [t_transfer, t_addr(a), t_addr(b)],
                              enc(("uint256", rng.randint(0, 10_000))), sender)
                elif roll < 0.55:
                    a, b = rng.sample(people, 2)
                    row = rec(block, log_index, txn, rng.choice(tokens),
                              [t_approval, t_addr(a), t_addr(b)],
                              enc(("uint256", rng.randint(0, 5))), sender)
                elif roll < 0.75:
                    row = rec(block, log_index, txn, rng.choice(emitters),
                              [t_redeem, t_addr(rng.choice(people))],
                              enc(("uint256", rng.randint(1, 9)), ("string", "r"),
                                  ("bytes", b"")), sender)
                elif roll < 0.90:
                    a, b = rng.sample(people, 2)
                    row = rec(block, log_index, txn, rng.choice(emitters),
                              [t_burned, t_addr(a), t_addr(b)],
                              enc(("uint256", 1), ("bytes", b""), ("bytes", b"")), sender)
                else:
                    row = rec(block, log_index, txn, rng.choice(emitters),
                              [t_noise], enc(("uint256", 0)), sender)
                records.append(row)
                log_index += 1
    return records


def test_c10_chunked_scan_equals_one_pass_on_1000_log_corpus():
    records = _synthetic_corpus(1000)
    assert len(records) >= 1000
    rules = load_rules_file(fixture_path("bridge_rules.yaml"))

    t0 = time.monotonic()
    batch, batch_caveats = scan_records(records, rules)
    scanner = Scanner(rules)
    chunked = []
    for start in range(0, len(records), 97):
        for record in records[start:start + 97]:
            chunked.append(scanner.feed(record))
    chunked.append(scanner.finish())
    elapsed = time.monotonic() - t0

    # the former one-pass scanner: each finding returned by the call that settles it
    oracle = ReferenceScanner(rules)
    expected = [oracle.feed(record) for record in records] + [oracle.finish()]
    assert chunked == expected
    assert detailed(sum(chunked, [])) == detailed(batch) == detailed(sum(expected, []))
    assert scanner.caveats == batch_caveats == oracle.caveats
    # non-vacuous: the corpus must actually trigger every detector family
    kinds = {f.kind for f in batch}
    assert {"BLENDED_EVENT", "RULE_VIOLATION", "TRANSFER_SPOOFING"} <= kinds
    assert elapsed < 2.0
