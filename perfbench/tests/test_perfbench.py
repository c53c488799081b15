"""The benchmark's own tests: deterministic inputs, non-vacuous checks,
and a minimal pass of every workload.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import gen_contracts
import gen_logs
import run
from common import FIXTURES, ROOT
from reference import check_audit_report, check_scan_report, scan_reference

from phantomscan.findings import from_bytecode, from_source, from_txlog
from phantomscan.evm import Bytecode
from phantomscan.lifter import SigDb, build_icfg
from phantomscan.minisol import load
from phantomscan.report import merge
from phantomscan.symexec import analyze_source
from phantomscan.taint import detect
from phantomscan.txscan import load_rules_file, parse_record, read_records, scan_records

APPROVAL_FOR_ALL = gen_logs.event_topic("ApprovalForAll(address,address,bool)")


def reference(records):
    return scan_reference(records, run.bridge_projects(), gen_logs.T_TRANSFER,
                          gen_logs.T_APPROVAL, APPROVAL_FOR_ALL)


def program_scan(records, rules=True) -> tuple[str, int]:
    lines = [json.dumps(r) for r in records]
    ruleset = load_rules_file(FIXTURES / "bridge_rules.yaml") if rules else None
    raw, caveats = scan_records(read_records(lines), ruleset)
    report = merge((from_txlog(f) for f in raw), caveats)
    return report.to_json(), 1 if report.findings else 0


def fixture_rows(name):
    return [json.loads(line) for line in (FIXTURES / name).read_text().splitlines() if line]


def drop_first_finding(text: str) -> str:
    doc = json.loads(text)
    doc["findings"] = doc["findings"][1:]
    doc["summary"]["total"] -= 1  # keep the report self-consistent
    return json.dumps(doc)


# -- generators --------------------------------------------------------------

def test_log_generators_are_deterministic_per_seed():
    assert gen_logs.monitor_corpus(7, 3000) == gen_logs.monitor_corpus(7, 3000)
    assert gen_logs.monitor_corpus(7, 3000) != gen_logs.monitor_corpus(8, 3000)
    assert gen_logs.forensics_corpus(7, 3000) == gen_logs.forensics_corpus(7, 3000)
    assert gen_logs.forensics_corpus(7, 3000) != gen_logs.forensics_corpus(8, 3000)


def test_contract_draws_are_deterministic_per_seed():
    for draw in (gen_contracts.bytecode_draw, gen_contracts.source_draw):
        a, b, c = draw(7), draw(7), draw(8)
        assert [(x.name, x.text, x.expected) for x in a] == [(x.name, x.text, x.expected) for x in b]
        assert [x.text for x in a] != [x.text for x in c]
        # the cost profile and the fault contracts do not depend on the seed
        assert sorted(x.family for x in a) == sorted(x.family for x in c)
        assert sorted(x.text for x in a if x.fault) == sorted(x.text for x in c if x.fault)


def test_forensics_seed_424242_is_the_acceptance_corpus():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import _synthetic_corpus

    ours = [parse_record(r) for r in gen_logs.forensics_corpus(424242, 1000)]
    assert ours == _synthetic_corpus(1000)


def test_monitor_plants_one_forgery_per_hundred_transactions():
    records, planted = gen_logs.monitor_corpus(3, 20_000)
    txs = len({r["txHash"] for r in records})
    plants = len({p[2] for p in planted})
    assert plants == txs // gen_logs.FORGERY_EVERY or plants == txs // gen_logs.FORGERY_EVERY + 1
    assert {p[0] for p in planted} == {"RULE_VIOLATION", "BLENDED_EVENT", "TRANSFER_SPOOFING"}


# -- reference checkers against the pinned fixture answers -------------------

def test_reference_matches_c04_blend_answer():
    rows = fixture_rows("bridge_logs.jsonl")
    got, caveats = reference(rows)
    attack = rows[0]["txHash"]
    assert sorted((k[0], k[1], k[2], k[4], k[5]) for k in got) == [
        ("BLENDED_EVENT", None, attack, 2, "0x" + "a7" * 20),
        ("RULE_VIOLATION", "emitter-authenticity", attack, 2, "0x" + "a7" * 20),
    ]
    assert reference([r for r in rows if r["txHash"] != attack])[0] == []


def test_reference_matches_c05_spoofing_answer():
    rows = fixture_rows("spoof3_logs.jsonl")
    got, _ = scan_reference(rows, [], gen_logs.T_TRANSFER, gen_logs.T_APPROVAL, APPROVAL_FOR_ALL)
    assert [(k[0], k[2]) for k in got] == [("TRANSFER_SPOOFING", rows[1]["txHash"])]
    approved = fixture_rows("spoof3_approved_logs.jsonl")
    got, _ = scan_reference(approved, [], gen_logs.T_TRANSFER, gen_logs.T_APPROVAL, APPROVAL_FOR_ALL)
    assert got == []


def test_reference_agrees_with_the_planted_truth():
    records, planted = gen_logs.monitor_corpus(5, 20_000)
    got, caveats = reference(records)
    assert sorted(got, key=repr) == sorted(planted, key=repr)
    assert caveats == 0


# -- checks are not vacuous ----------------------------------------------------

def test_scan_check_accepts_the_program_and_rejects_corruption():
    records = gen_logs.forensics_corpus(11, 2000)
    expected, caveats = reference(records)
    text, code = program_scan(records)
    assert check_scan_report(text, code, expected, caveats) == []

    assert check_scan_report(drop_first_finding(text), code, expected, caveats)
    doc = json.loads(text)
    doc["findings"][0]["subject"]["address"] = "0x" + "99" * 20
    assert check_scan_report(json.dumps(doc), code, expected, caveats)
    doc = json.loads(text)
    doc["summary"]["total"] += 1
    assert check_scan_report(json.dumps(doc), code, expected, caveats)
    assert check_scan_report(text, 0, expected, caveats)  # exit 0 with findings


def test_monitor_check_accepts_the_program_and_rejects_corruption():
    records, planted = gen_logs.monitor_corpus(12, 5000)
    text, code = program_scan(records)
    assert check_scan_report(text, code, planted, 0) == []
    assert check_scan_report(drop_first_finding(text), code, planted, 0)


def bytecode_report(c: gen_contracts.Contract) -> str:
    db = SigDb.from_text(gen_contracts.sigdb_text([c]))
    raw = detect(build_icfg(Bytecode.from_hex(c.text, origin=c.name), db), db)
    return merge(from_bytecode(f, origin=c.name) for f in raw).to_json()


def source_report(c: gen_contracts.Contract) -> str:
    raw = analyze_source(load(c.text))
    return merge(from_source(f, origin=c.name) for f in raw).to_json()


def test_audit_check_accepts_every_fixture_answer():
    for c in gen_contracts.bytecode_fixtures():
        assert check_audit_report(bytecode_report(c), "bytecode", c.expected) == [], c.name
    for c in gen_contracts.source_fixtures():
        assert check_audit_report(source_report(c), "source", c.expected) == [], c.name


def test_audit_check_rejects_a_dropped_finding_and_a_wrong_entry_set():
    helper = next(c for c in gen_contracts.bytecode_fixtures() if c.name == "emit_helper.hex")
    text = bytecode_report(helper)
    assert check_audit_report(drop_first_finding(text), "bytecode", helper.expected)
    doc = json.loads(text)
    doc["findings"][0]["subject"]["functions"] = ["touch"]
    assert check_audit_report(json.dumps(doc), "bytecode", helper.expected)
    doc = json.loads(text)
    doc["findings"][0]["confidence"] = "INCOMPLETE"
    assert check_audit_report(json.dumps(doc), "bytecode", helper.expected)

    relay = next(c for c in gen_contracts.source_fixtures() if c.name == "relay.msol")
    text = source_report(relay)
    assert check_audit_report(drop_first_finding(text), "source", relay.expected)
    doc = json.loads(text)
    ec = next(f for f in doc["findings"] if f["kind"] == "EVENT_COUNTERFEITING")
    ec["evidence"]["witness"]["code"] = 0  # poke requires code > 0
    assert check_audit_report(json.dumps(doc), "source", relay.expected)


def test_generated_families_meet_their_answers():
    rng = gen_contracts.random.Random(99)
    for c in (gen_contracts.diamond(4, False, rng), gen_contracts.diamond(4, True, rng),
              gen_contracts.callers(5, rng)):
        assert check_audit_report(bytecode_report(c), "bytecode", c.expected) == [], c.name
    for c in (gen_contracts.pair(4, rng), gen_contracts.branchy(4, True, rng),
              gen_contracts.branchy(4, False, rng), gen_contracts.relay(3, rng),
              gen_contracts.chain(2, rng)):
        assert check_audit_report(source_report(c), "source", c.expected) == [], c.name


# -- a minimal pass of every workload -----------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_pass(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "MONITOR_RECORDS", 800)
    monkeypatch.setattr(run, "FORENSICS_RECORDS", 800)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    # --seconds 0 makes one pass: one scan, or one round of the contract draw
    known_faults = {"bytecode-audit": 3, "source-audit": 2}.get(workload, 0)
    assert result["failed"] == known_faults


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    import common

    monkeypatch.setattr(common, "SRC", tmp_path / "src")
    with pytest.raises(common.MissingProgram):
        common.use_program()
