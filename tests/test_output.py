"""Byte-identical output: the indented JSON writer, and pinned ids and digests."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import random
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _synthetic_corpus

from phantomscan import SCHEMA, jsonout, minisol
from phantomscan._keccak import keccak256
from phantomscan.cli import main
from phantomscan.evm import Bytecode
from phantomscan.findings import (CONFIDENCE_RANK, from_bytecode, from_source, from_txlog,
                                  make_finding)
from phantomscan.lifter import SigDb, build_icfg
from phantomscan.report import merge
from phantomscan.resources import fixture_path, fixture_root
from phantomscan.symexec import analyze_source
from phantomscan.taint import detect
from phantomscan.txscan import load_rules_file, parse_record, read_records_file, scan_records


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# -- the writer against json.dumps -------------------------------------

_TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "\ud800",
                           "\U0001f600", "/", "<"])
_TEXT = st.text(alphabet=_TRICKY | st.characters(), max_size=12)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2**300, max_value=2**300) | _FLOATS | _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=5)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=40,
)


@settings(max_examples=250, deadline=None)
@given(_VALUES)
def test_writer_equals_json_dumps(value):
    assert jsonout.dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}], "", 0, -0.0, math.nan, None,
    {1.5: "x"}, {True: 1}, {False: 1}, {None: 1}, {-7: 1},
    OrderedDict([("b", 1), ("a", 2)]),
    {"a": {"b": {"c": {"d": [1, [2, [3, {"e": None}]]]}}}},
])
def test_writer_edge_values(value):
    assert jsonout.dumps(value) == reference(value)


@pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, {(1, 2): 1}, [b"x"]])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        jsonout.dumps(value)


# -- finding ids and order against their json.dumps definitions ---------

_PAYLOADS = st.dictionaries(_TEXT, _SCALARS | st.lists(_SCALARS, max_size=3)
                            | st.dictionaries(_TEXT, _SCALARS, max_size=3), max_size=4)



@settings(max_examples=100, deadline=None)
@given(kind=_TEXT, subject=_PAYLOADS, evidence=_PAYLOADS)
def test_finding_id_is_the_hash_of_its_compact_json(kind, subject, evidence):
    f = make_finding("logs", kind, "CONFIRMED", subject, evidence)
    blob = json.dumps({"layer": "logs", "kind": kind, "subject": f.subject,
                       "evidence": f.evidence}, sort_keys=True, separators=(",", ":"))
    assert f.id == hashlib.sha256(blob.encode("ascii")).digest()[:16].hex()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(CONFIDENCE_RANK)), _PAYLOADS), max_size=8))
def test_findings_sort_as_by_their_spaced_subject_json(drawn):
    findings = [make_finding("logs", "K", confidence, subject, {}) for confidence, subject in drawn]

    def spaced_key(f):
        return (CONFIDENCE_RANK[f.confidence], f.layer, f.kind,
                json.dumps(f.subject, sort_keys=True), f.id)

    assert sorted(findings, key=lambda f: f.sort_key) == sorted(findings, key=spaced_key)


def test_a_replaced_subject_orders_by_its_own_json():
    f = make_finding("logs", "K", "CONFIRMED", {"a": 2}, {})
    g = dataclasses.replace(f, subject={"a": 1})
    assert f.sort_key[3] == '{"a":2}' and g.sort_key[3] == '{"a":1}'


def test_a_pickled_finding_keeps_its_fields_and_subject_json():
    import pickle
    f = make_finding("logs", "K", "CONFIRMED", {"a": [1, "x"]}, {"b": None})
    g = pickle.loads(pickle.dumps(f, pickle.HIGHEST_PROTOCOL))
    assert g == f and g.subject == f.subject and g.evidence == f.evidence
    assert g.subject_json == f.subject_json == '{"a":[1,"x"]}'


def _report_document(report):
    """The document a report stands for, built here from its parts (not by the
    code under test), and the text `report.to_json()` writes."""
    findings = []
    for f in report.findings:
        item = {"id": f.id, "layer": f.layer, "kind": f.kind, "confidence": f.confidence,
                "subject": f.subject, "evidence": f.evidence}
        if f.id in report.superseded:
            item["superseded_by"] = report.superseded[f.id]
        findings.append(item)
    doc = {"schema": SCHEMA, "summary": report.summary, "caveats": list(report.caveats),
           "findings": findings}
    return doc, report.to_json()


CORPORA = ["bridge_edge_logs.jsonl", "bridge_logs.jsonl", "spoof3_approved_logs.jsonl",
           "spoof3_logs.jsonl", "spoof_approved_logs.jsonl", "spoof_logs.jsonl"]


@pytest.mark.parametrize("rules", ["bridge_rules.yaml", "bridge_rules_strict.yaml"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_scan_report_equals_json_dumps_on_bundled_corpora(corpus, rules):
    raw, caveats = scan_records(read_records_file(fixture_path(corpus)),
                                load_rules_file(fixture_path(rules)))
    doc, text = _report_document(merge(map(from_txlog, raw), caveats))
    assert text == reference(doc)


def test_scan_report_equals_json_dumps_on_c10_corpus():
    raw, caveats = scan_records(_synthetic_corpus(2000),
                                load_rules_file(fixture_path("bridge_rules.yaml")))
    assert len(raw) > 1000
    doc, text = _report_document(merge(map(from_txlog, raw), caveats))
    assert text == reference(doc)


# -- merge alone orders a report ---------------------------------------

RULES = ["bridge_rules.yaml", "bridge_rules_strict.yaml"]
ARTIFACTS = sorted(p.name for p in fixture_root().iterdir()
                   if p.suffix in (".hex", ".msol") or p.name in CORPORA)


def _layer_findings(name: str) -> tuple[list, list]:
    """(findings, caveats) of one layer on one input, in the order the layer
    finds them: a bundled .hex file under both bytecode modes, a bundled
    .msol file, a bundled corpus under each bundled ruleset, or "c10", the
    acceptance suite's corpus of 2,000 records."""
    if name.endswith(".hex"):
        sigdb = SigDb.from_file(fixture_path("sigdb.txt"))
        icfg = build_icfg(Bytecode.from_hex_file(fixture_path(name)), sigdb)
        return [from_bytecode(f, origin=name) for strict in (False, True)
                for f in detect(icfg, sigdb, strict_eq2=strict)], []
    if name.endswith(".msol"):
        contract = minisol.load(fixture_path(name).read_text())
        return [from_source(f, origin=name) for f in analyze_source(contract)], []
    findings, caveats = [], []
    for rules in RULES:
        records = (_synthetic_corpus(2000) if name == "c10"
                   else read_records_file(fixture_path(name)))
        raw, cavs = scan_records(records, load_rules_file(fixture_path(rules)))
        findings += map(from_txlog, raw)
        caveats += cavs
    return findings, caveats


@pytest.mark.parametrize("names", [[n] for n in ARTIFACTS] + [["c10"], ARTIFACTS],
                         ids=[*ARTIFACTS, "c10", "every-fixture"])
def test_the_order_findings_reach_merge_in_moves_no_byte(names):
    # merge's key ends with the unique id, so it alone orders a report
    findings, caveats = [], []
    for name in names:
        fs, cavs = _layer_findings(name)
        findings += fs
        caveats += cavs
    if len(names) > 1:
        assert {f.layer for f in findings} == {"bytecode", "source", "logs"}
    text = merge(findings, caveats).to_json()
    rng = random.Random(24)
    for _ in range(5):
        rng.shuffle(findings)
        assert merge(findings, caveats).to_json() == text


# -- the report written in pieces --------------------------------------

def _supersession_findings():
    """A confirmed source finding, the potential bytecode finding it supersedes,
    and a bytecode finding of another kind that it leaves alone."""
    subject = {"origin": "token.msol", "contract": "Token", "event": "Mint",
               "topic0": "0x" + "ab" * 32, "functions": ["mint"]}
    return [make_finding("source", "EVENT_COUNTERFEITING", "CONFIRMED", subject, {"witness": 1}),
            make_finding("bytecode", "EVENT_COUNTERFEITING", "POTENTIAL",
                         dict(subject, origin="token.hex"), {"paths": []}),
            make_finding("bytecode", "INCONSISTENT_LOGGING", "POTENTIAL",
                         dict(subject, origin="token.hex"), {"condition": "c"})]


@pytest.mark.parametrize("findings, caveats", [
    ([], []),
    ([], ["the corpus ends mid-transaction", "a \"quoted\" caveat"]),
    (_supersession_findings(), []),
    (_supersession_findings(), ["one caveat"]),
], ids=["empty", "caveats", "superseded", "superseded-caveats"])
def test_report_pieces_join_to_json_dumps(findings, caveats):
    report = merge(findings, caveats)
    assert len(report.superseded) == (1 if findings else 0)
    doc, text = _report_document(report)
    pieces = list(report.json_pieces())
    assert len(pieces) == len(findings) + 5
    assert "".join(pieces) == text == reference(doc)


def test_report_pieces_take_memory_per_finding_not_per_report():
    findings = [make_finding("logs", "PHANTOM_EMITTER", "CONFIRMED",
                             {"txHash": f"0x{i:064x}", "logIndex": i % 7, "blockNumber": i},
                             {"check": "emitter", "detail": ["x" * 40, i]})
                for i in range(5000)]
    report = merge(findings, ["a caveat"])
    tracemalloc.start()
    try:
        length = sum(map(len, report.json_pieces()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert length > 2_000_000
    assert peak <= length // 4


# -- pinned ids and bytes ----------------------------------------------
# Computed before the writer replaced json.dumps; a change to finding ids
# or to the report format must show up here.

PINNED = {
    ("scan-logs", "spoof3_logs.jsonl", "--rules", "bridge_rules.yaml", "--json"): (
        "49a167093195aeaaea84ea9a2191ca8250fd46a6e258d8ba8e6ae37ec01af709",
        ["e4c4882bfb33c8810f7716acc6759897", "ad53a4d9ec449aaee4d4ae711fda7de9",
         "6b4f6503fed0ec85e84c717895c2aaa0", "87ae0f467e9645431183c72a19ab8198"],
    ),
    ("scan-logs", "bridge_logs.jsonl", "--rules", "bridge_rules.yaml", "--json"): (
        "bbf9b85bcefd9e3c2cb75ae26781c949b9952541f12068658603a3e1be163f0e",
        ["c040a644d674505399d89a5b4955947c", "f83a55ec73e1be5d402cf8f08ac00e82"],
    ),
    ("analyze-bytecode", "counterfeit.hex", "--json"): (
        "0b6b1fdd9f18336a26919ea6c16f412819e1df6d1a8080b0ee99fa84db4d42a8",
        ["0d71f6a1155e8a2e59338c1bcf10c97b"],
    ),
    ("analyze-source", "counterfeit.msol", "--json"): (
        "93d7070a2b157ef0e099ecc2bd5c87cb0b95f2f50f177c954c21c994f7c916c9",
        ["c596299d664f40d546f51aa61c779756", "548e2137b6f3c6fc4ff5a12e7439409f",
         "2c5218b9923f1c1508315e5eff2267af"],
    ),
}


@pytest.mark.parametrize("invocation", sorted(PINNED), ids=" ".join)
def test_pinned_ids_and_output_digest(invocation):
    digest, ids = PINNED[invocation]
    args = [str(fixture_path(a)) if "." in a and not a.startswith("-") else a
            for a in invocation]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1
    assert [f["id"] for f in json.loads(res.stdout_bytes)["findings"]] == ids
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


# -- tools/output_digests.py -------------------------------------------


def test_digest_tool_corpus_is_the_c10_corpus():
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = tool.c10_rows(3000, keccak256)
    assert [parse_record(row) for row in rows] == _synthetic_corpus(3000)
