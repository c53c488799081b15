"""Log-corpus scanning: records, ABI decode, rulesets, scanner checks."""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_records import reference_parse_record
from reference_scan import ReferenceScanner, reference_scan_records

from phantomscan._keccak import event_topic
from phantomscan.findings import from_txlog
from phantomscan.report import merge
from phantomscan.resources import fixture_path
from phantomscan.txscan import (
    DecodeError,
    LogRecord,
    RecordError,
    RulesError,
    Scanner,
    decode_data,
    decode_event,
    decode_topic,
    event_topic0,
    join_ranges,
    line_ranges,
    load_rules,
    load_rules_file,
    parse_record,
    read_records,
    read_records_file,
    scan_range,
    scan_records,
)

VAULT = "0x" + "11" * 20
PTOKEN = "0x" + "22" * 20
ATTACKER_CONTRACT = "0x" + "a7" * 20
ATTACKER = "0x" + "e0" * 20


def t_addr(addr: str) -> str:
    return "0x" + "0" * 24 + addr[2:]


def t_uint(v: int) -> str:
    return f"0x{v:064x}"


def enc(*items) -> str:
    """Head/tail event-data encoder, kept separate from the package decoder."""
    heads, tails = [], []
    tail_at = 32 * len(items)
    for type_, value in items:
        if type_ == "uint256":
            heads.append(f"{value:064x}")
        elif type_ == "address":
            heads.append("0" * 24 + value[2:])
        elif type_ == "bool":
            heads.append(f"{int(value):064x}")
        else:
            payload = value.encode("utf-8") if type_ == "string" else value
            heads.append(f"{tail_at:064x}")
            padded = payload + b"\x00" * (-len(payload) % 32)
            tails.append(f"{len(payload):064x}" + padded.hex())
            tail_at += 32 + len(padded)
    return "0x" + "".join(heads) + "".join(tails)


def rec(block, index, tx_hash, address, topics, data, tx_from, selector="0xaabbccdd"):
    return parse_record(
        {
            "txHash": f"0x{tx_hash:064x}" if isinstance(tx_hash, int) else tx_hash,
            "logIndex": index,
            "blockNumber": block,
            "address": address,
            "topics": topics,
            "data": data,
            "txFrom": tx_from,
            "txTo": address,
            "txSelector": selector,
        }
    )


# -- records ----------------------------------------------------------


def test_parse_record_normalizes_case():
    r = rec(5, 0, 1, VAULT.upper().replace("0X", "0x"), [t_uint(3)], "0xAB", ATTACKER)
    assert r.address == VAULT
    assert r.data == "0xab"
    assert r.topic0 == 3


def test_parse_record_rejects_bad_shapes():
    base = {
        "txHash": f"0x{1:064x}",
        "logIndex": 0,
        "blockNumber": 1,
        "address": VAULT,
        "topics": [],
        "data": "0x",
        "txFrom": ATTACKER,
        "txTo": None,
        "txSelector": None,
    }
    for field, value, fragment in [
        ("txHash", "0x1234", "32-byte"),
        ("address", "0x12", "20-byte"),
        ("logIndex", -1, "non-negative"),
        ("logIndex", True, "non-negative"),
        ("topics", [t_uint(1)] * 5, "0 to 4"),
        ("topics", ["0xzz"], "32-byte"),
        ("data", "0xabc", "even-length"),
        ("txSelector", "0x123456", "4-byte"),
        # a trailing newline, which `$` in a pattern would let through
        ("txHash", f"0x{1:064x}\n", "32-byte"),
        ("address", VAULT + "\n", "20-byte"),
        ("txFrom", ATTACKER + "\n", "20-byte"),
        ("txTo", PTOKEN + "\n", "20-byte"),
        ("txSelector", "0xaabbccdd\n", "4-byte"),
        ("topics", [t_uint(1) + "\n"], "32-byte"),
        ("data", "0xab\n", "even-length"),
    ]:
        bad = dict(base)
        bad[field] = value
        with pytest.raises(RecordError, match=fragment):
            parse_record(bad, lineno=7)
    with pytest.raises(RecordError, match="missing field"):
        parse_record({k: v for k, v in base.items() if k != "data"})


def test_read_records_reports_line_numbers():
    lines = ["", "not json"]
    with pytest.raises(RecordError, match="line 2"):
        list(read_records(lines))
    with pytest.raises(RecordError, match="JSON object"):
        list(read_records(['["a"]']))


def test_read_records_decodes_bytes_line_by_line():
    # a bad byte names its line and its offset in that line; a BOM is not
    # taken for an encoding mark, and a line may end in CR LF
    good = fixture_path("bridge_logs.jsonl").read_bytes().splitlines(keepends=True)[0]
    assert list(read_records([good.replace(b"\n", b"\r\n")])) == list(read_records([good]))
    with pytest.raises(RecordError, match="^line 3: invalid UTF-8: byte 0xc3 at offset 3: "):
        list(read_records([good, b"\n", b' ["\xc3"]\n']))
    with pytest.raises(RecordError, match="^line 1: invalid JSON: "):
        list(read_records([b"\xef\xbb\xbf" + good]))


def _hex(digits: int):
    """Mixed-case hex strings of exactly ``digits`` digits after "0x"."""
    return st.text("0123456789abcdefABCDEF", min_size=digits, max_size=digits).map(
        lambda body: "0x" + body)


_VALID_RECORDS = st.fixed_dictionaries({
    "txHash": _hex(64),
    "logIndex": st.integers(min_value=0, max_value=2**70),
    "blockNumber": st.integers(min_value=0, max_value=2**70),
    "address": _hex(40),
    "topics": st.lists(_hex(64), max_size=4),
    "data": st.integers(min_value=0, max_value=80).flatmap(lambda n: _hex(2 * n)),
    "txFrom": _hex(40),
    "txTo": st.none() | _hex(40),
    "txSelector": st.none() | _hex(8),
})
_FIELDS = ["txHash", "logIndex", "blockNumber", "address", "topics", "data", "txFrom", "txTo",
           "txSelector"]
_JUNK = (st.none() | st.booleans() | st.integers(min_value=-3, max_value=3) | st.floats()
         | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
         | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_FAULTS = ["newline", "empty", "bool", "extra", "missing", "junk", "longer", "shorter",
           "upper-x", "topics"]


def _fault(draw, record: dict, name: str, fault: str) -> None:
    """Put a drawn ``fault`` in field ``name`` of ``record``: an embedded
    newline, "" (in place of null, say), a bool, an extra key, a missing key,
    a value of another type, one digit too many or too few, "0X", or topics
    that are too many or not a list."""
    value = record.get(name)
    if fault == "newline" and isinstance(value, str):
        at = draw(st.integers(min_value=0, max_value=len(value)))
        record[name] = value[:at] + "\n" + draw(st.sampled_from(["", value[at:]]))
    elif fault == "empty":
        record[name] = ""
    elif fault == "bool":
        record[name] = draw(st.booleans())
    elif fault == "extra":
        record[draw(st.text(max_size=8))] = draw(_JUNK)
    elif fault == "missing":
        record.pop(name, None)
    elif fault == "junk":
        record[name] = draw(_JUNK)
    elif fault == "longer" and isinstance(value, str):
        record[name] = value + draw(st.sampled_from("0aF\n"))
    elif fault == "shorter" and isinstance(value, str):
        record[name] = value[:-1]
    elif fault == "upper-x" and isinstance(value, str):
        record[name] = value.replace("0x", "0X", 1)
    elif fault == "topics":
        topics = draw(st.lists(_hex(64) | _JUNK, max_size=6))
        record["topics"] = draw(st.sampled_from(
            [topics, tuple(topics), "".join(t for t in topics if isinstance(t, str))]))


def _outcome(parse, obj: dict):
    try:
        record = parse(obj, 7)
    except RecordError as exc:
        return "error", str(exc)
    return "record", record, record.lineno, record.topic0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_record_equals_its_reference_on_each_fault(data):
    record = data.draw(_VALID_RECORDS)
    assert _outcome(parse_record, record) == _outcome(reference_parse_record, record)
    for name in _FIELDS:
        for fault in _FAULTS:
            bad = dict(record)
            _fault(data.draw, bad, name, fault)
            assert _outcome(parse_record, bad) == _outcome(reference_parse_record, bad)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_record_equals_its_reference_on_several_faults(data):
    record = dict(data.draw(_VALID_RECORDS))
    faults = st.tuples(st.sampled_from(_FIELDS), st.sampled_from(_FAULTS))
    for name, fault in data.draw(st.lists(faults, min_size=2, max_size=4)):
        _fault(data.draw, record, name, fault)
    assert _outcome(parse_record, record) == _outcome(reference_parse_record, record)


def test_a_field_holding_a_newline_does_not_shift_the_others():
    # joined by "\n" and matched by one pattern for every layout, the address
    # would read as two fields and every field after it one slot later
    forged = {
        "txHash": "0x" + "ab" * 32,
        "logIndex": 0,
        "blockNumber": 1,
        "address": "0x" + "11" * 20 + "\n" + "0x" + "22" * 20,
        "topics": [],
        "data": "0x" + "cd" * 32,
        "txFrom": "0x" + "33" * 20,
        "txTo": None,
        "txSelector": "0xaabbccdd",
    }
    message = "line 3: address must be a 20-byte hex string"
    for parse in (parse_record, reference_parse_record):
        with pytest.raises(RecordError) as exc:
            parse(forged, 3)
        assert str(exc.value) == message
    with pytest.raises(RecordError) as exc:
        list(read_records(["", "", json.dumps(forged)]))
    assert str(exc.value) == message


class _Str(str):
    pass


class _List(list):
    pass


class _Int(int):
    pass


def test_subclasses_of_the_json_types_parse_as_before():
    record = {
        "txHash": _Str("0x" + "AB" * 32),
        "logIndex": _Int(2),
        "blockNumber": 9,
        "address": _Str(VAULT),
        "topics": _List([t_uint(7), _Str(t_uint(8))]),
        "data": "0x",
        "txFrom": ATTACKER,
        "txTo": _Str(PTOKEN),
        "txSelector": None,
    }
    assert _outcome(parse_record, record) == _outcome(reference_parse_record, record)
    assert parse_record(record).tx_hash == "0x" + "ab" * 32


def test_a_record_built_without_its_signature_topic_is_refused():
    # the scanner matches every check on topic0, so a record lacking it would match none
    with pytest.raises(TypeError, match="topic0"):
        LogRecord("0x" + "ab" * 32, 0, 1, VAULT, (), "0x", ATTACKER, None, None)


# -- abi decoding ------------------------------------------------------


def test_decode_static_trio():
    data = bytes.fromhex(enc(("uint256", 42), ("address", VAULT), ("bool", True))[2:])
    assert decode_data(["uint256", "address", "bool"], data) == [42, VAULT, True]


def test_decode_dynamic_tail():
    data = bytes.fromhex(enc(("uint256", 7), ("string", "hi"), ("bytes", b"\x01\x02"))[2:])
    assert decode_data(["uint256", "string", "bytes"], data) == [7, "hi", b"\x01\x02"]


def test_decode_errors():
    with pytest.raises(DecodeError, match="runs past end"):
        decode_data(["uint256"], b"\x00" * 16)
    with pytest.raises(DecodeError, match="not word aligned"):
        decode_data(["bytes"], (7).to_bytes(32, "big") + b"\x00" * 32)
    oob = (32).to_bytes(32, "big") + (100).to_bytes(32, "big")
    with pytest.raises(DecodeError, match="out of bounds"):
        decode_data(["bytes"], oob)
    with pytest.raises(DecodeError, match="bool word"):
        decode_data(["bool"], (2).to_bytes(32, "big"))
    with pytest.raises(DecodeError, match="nonzero padding"):
        decode_data(["address"], b"\xff" * 32)


def test_decode_topic_values():
    assert decode_topic("address", t_addr(VAULT)) == VAULT
    assert decode_topic("uint256", t_uint(99)) == 99
    assert decode_topic("bool", t_uint(1)) is True
    # indexed dynamic params log only a hash; it comes back verbatim
    assert decode_topic("bytes", t_uint(0xABC)) == t_uint(0xABC)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("uint256"), st.integers(0, 2**256 - 1)),
            st.tuples(st.just("address"), st.integers(0, 2**160 - 1).map(lambda v: f"0x{v:040x}")),
            st.tuples(st.just("bool"), st.booleans()),
            st.tuples(st.just("bytes"), st.binary(max_size=80)),
            st.tuples(st.just("string"), st.text(alphabet=st.characters(codec="utf-8"), max_size=40)),
        ),
        max_size=6,
    )
)
def test_decode_inverts_encode(items):
    data = bytes.fromhex(enc(*items)[2:])
    assert decode_data([t for t, _ in items], data) == [v for _, v in items]


# -- rulesets ----------------------------------------------------------


def bridge_rules():
    return load_rules_file(fixture_path("bridge_rules.yaml"))


def strict_rules():
    return load_rules_file(fixture_path("bridge_rules_strict.yaml"))


def test_ruleset_derives_topics():
    rs = bridge_rules()
    assert [p.name for p in rs.projects] == ["HarborBridge"]
    proj = rs.projects[0]
    assert proj.authentic_emitters == frozenset({VAULT, PTOKEN})
    assert {e.signature for e in proj.events} == {
        "Redeem(address,uint256,string,bytes)",
        "Burned(address,address,uint256,bytes,bytes)",
        "Transfer(address,address,uint256)",
    }
    for e in proj.events:
        assert e.topic0 == int(event_topic(e.signature), 16)
    assert set(rs.watched) == {e.topic0 for e in proj.events}
    assert rs.emitters == {VAULT: [proj], PTOKEN: [proj]}


def test_strict_ruleset_adds_behavior_rules():
    redeem = next(e for e in strict_rules().projects[0].events if e.name == "Redeem")
    assert redeem.expected_selectors == frozenset({"0x24b76fd5"})
    assert [(p.param, p.op, p.value) for p in redeem.predicates] == [("value", ">", 0)]


def _rules_doc(**event_extra):
    event = {
        "name": "Ping",
        "params": [{"name": "x", "type": "uint256", "indexed": False}],
        **event_extra,
    }
    return {
        "version": 1,
        "projects": [
            {"name": "P", "authentic_emitters": [VAULT], "events": [event]}
        ],
    }


def test_ruleset_validation_errors():
    import yaml as _yaml

    def check(doc, fragment):
        with pytest.raises(RulesError, match=fragment):
            load_rules(_yaml.safe_dump(doc))

    check({"version": 2, "projects": []}, "version must be 1")
    check({"version": True, "projects": []}, "version must be 1")  # == 1 in Python
    check({"version": 1.0, "projects": []}, "version must be 1")
    check({"version": 1, "projects": []}, "non-empty list")
    check(_rules_doc(params=[{"name": "x", "type": "uint128", "indexed": False}]),
          "unsupported param type")
    check(_rules_doc(params=[{"name": "x", "type": "uint256", "indexed": False}] * 2),
          "duplicate param")
    check(_rules_doc(params=[{"name": "x", "type": "address", "indexed": True}] * 0 or
                     [{"name": f"p{i}", "type": "address", "indexed": True} for i in range(4)]),
          "at most 3")
    check(_rules_doc(predicates=[{"param": "y", "op": ">", "value": 0}]), "unknown param")
    check(_rules_doc(predicates=[{"param": "x", "op": "~", "value": 0}]), "op must be")
    check(_rules_doc(predicates=[{"param": "x", "op": ">", "value": -1}]),
          "non-negative integer")
    check(_rules_doc(predicates=[{"param": "x", "op": "<", "value": 1 << 256}]),
          r"non-negative integer below 2\*\*256")
    check(_rules_doc(expected_selectors=["0x123"]), "4-byte")
    check(_rules_doc(bogus=1), "unknown keys")
    doc = _rules_doc()
    doc["projects"].append(doc["projects"][0])
    check(doc, "share a name")
    addr_event = _rules_doc(
        params=[{"name": "who", "type": "address", "indexed": False}],
        predicates=[{"param": "who", "op": "<", "value": VAULT}],
    )
    check(addr_event, "only == and !=")
    # a trailing newline, which `$` in a pattern would let through
    doc = _rules_doc()
    doc["projects"][0]["authentic_emitters"] = [VAULT + "\n"]
    check(doc, "20-byte hex address")
    check(_rules_doc(expected_selectors=["0xaabbccdd\n"]), "4-byte hex string")
    check(_rules_doc(name="Ping\n"), "is not an identifier")
    check(_rules_doc(params=[{"name": "x\n", "type": "uint256", "indexed": False}]),
          "is not an identifier")
    check(_rules_doc(params=[{"name": "who", "type": "address", "indexed": False}],
                     predicates=[{"param": "who", "op": "==", "value": VAULT + "\n"}]),
          "20-byte hex address")


def test_event_topic0_matches_keccak_oracle():
    assert event_topic0("Transfer", ["address", "address", "uint256"]) == int(
        event_topic("Transfer(address,address,uint256)"), 16
    )


# -- scanner unit behavior ---------------------------------------------

T_TRANSFER = event_topic("Transfer(address,address,uint256)")
T_REDEEM = event_topic("Redeem(address,uint256,string,bytes)")
T_APPROVAL = event_topic("Approval(address,address,uint256)")


def redeem_log(block, index, tx, emitter, value=10):
    return rec(
        block, index, tx, emitter,
        [T_REDEEM, t_addr(ATTACKER)],
        enc(("uint256", value), ("string", "r"), ("bytes", b"")),
        ATTACKER,
    )


def test_blend_needs_both_sides():
    rs = bridge_rules()
    # all-foreign transaction: emitter violations only, nothing to blend with
    findings, _ = scan_records(
        [redeem_log(1, 0, 1, ATTACKER_CONTRACT), redeem_log(1, 1, 1, ATTACKER_CONTRACT)], rs
    )
    assert [f.kind for f in findings] == ["RULE_VIOLATION", "RULE_VIOLATION"]
    # all-authentic transaction: clean
    findings, _ = scan_records([redeem_log(1, 0, 1, VAULT)], rs)
    assert findings == []
    # a mixed one blends
    findings, _ = scan_records([redeem_log(1, 0, 1, VAULT), redeem_log(1, 1, 1, ATTACKER_CONTRACT)], rs)
    assert [f.kind for f in findings] == ["RULE_VIOLATION", "BLENDED_EVENT"]
    blend = findings[1]
    assert blend.log_index == 1 and blend.address == ATTACKER_CONTRACT
    assert blend.detail == {
        "authentic_logs": [0],
        "foreign_logs": [1],
        "foreign_emitters": [ATTACKER_CONTRACT],
    }


def test_blend_not_reported_across_transactions():
    rs = bridge_rules()
    findings, _ = scan_records(
        [redeem_log(1, 0, 1, VAULT), redeem_log(2, 0, 2, ATTACKER_CONTRACT)], rs
    )
    assert [f.kind for f in findings] == ["RULE_VIOLATION"]


def test_two_projects_watching_one_topic_both_flag():
    doc = {
        "version": 1,
        "projects": [
            {"name": "A", "authentic_emitters": [VAULT],
             "events": [{"name": "Redeem", "params": [
                 {"name": "redeemer", "type": "address", "indexed": True},
                 {"name": "value", "type": "uint256", "indexed": False},
                 {"name": "underlyingAssetRecipient", "type": "string", "indexed": False},
                 {"name": "userData", "type": "bytes", "indexed": False}]}]},
            {"name": "B", "authentic_emitters": [PTOKEN],
             "events": [{"name": "Redeem", "params": [
                 {"name": "redeemer", "type": "address", "indexed": True},
                 {"name": "value", "type": "uint256", "indexed": False},
                 {"name": "underlyingAssetRecipient", "type": "string", "indexed": False},
                 {"name": "userData", "type": "bytes", "indexed": False}]}]},
        ],
    }
    import yaml as _yaml

    rs = load_rules(_yaml.safe_dump(doc))
    findings, _ = scan_records([redeem_log(1, 0, 1, ATTACKER_CONTRACT)], rs)
    assert [(f.check, f.project) for f in findings] == [
        ("emitter-authenticity", "A"),
        ("emitter-authenticity", "B"),
    ]


def test_anonymous_log_from_authentic_emitter_is_undeclared():
    rs = bridge_rules()
    findings, _ = scan_records([rec(1, 0, 1, VAULT, [], "0x", ATTACKER)], rs)
    assert [(f.check, f.detail) for f in findings] == [
        ("undeclared-signature", {"topic0": None})
    ]


def test_out_of_order_records_rejected():
    scanner = Scanner(bridge_rules())
    scanner.feed(redeem_log(5, 1, 1, VAULT))
    with pytest.raises(RecordError, match="out of order"):
        scanner.feed(redeem_log(5, 1, 1, VAULT))
    with pytest.raises(RecordError, match="out of order"):
        scanner.feed(redeem_log(4, 0, 2, VAULT))


def test_finish_is_terminal():
    scanner = Scanner()
    scanner.finish()
    with pytest.raises(RuntimeError):
        scanner.finish()
    with pytest.raises(RuntimeError):
        scanner.feed(redeem_log(1, 0, 1, VAULT))


def test_no_caveat_from_block_zero():
    scanner = Scanner()
    scanner.feed(rec(0, 0, 1, PTOKEN,
                     [T_TRANSFER, t_addr(VAULT), t_addr(ATTACKER)],
                     enc(("uint256", 5)), ATTACKER))
    out = scanner.finish()
    assert scanner.caveats == []
    assert out == []  # findings came from feed(); none pending


def test_spoof_detail_omits_caveat_flag_when_complete():
    scanner = Scanner()
    found = scanner.feed(rec(0, 0, 1, PTOKEN,
                             [T_TRANSFER, t_addr(VAULT), t_addr(ATTACKER)],
                             enc(("uint256", 5)), ATTACKER))
    assert [f.kind for f in found] == ["TRANSFER_SPOOFING"]
    assert "approval_window_incomplete" not in found[0].detail


def test_spoofing_can_be_disabled():
    findings, caveats = scan_records(
        read_records_file(fixture_path("spoof_logs.jsonl")), spoofing=False
    )
    assert findings == []
    # the approval-window caveat only qualifies spoofing findings
    assert caveats == []


def detailed(findings) -> list:
    """The findings with their details, which `==` on a finding skips."""
    return [(f, f.detail) for f in findings]


def fed_one_by_one(scanner, records) -> list[list]:
    """What each `feed` of `records`, then `finish`, returns."""
    return [scanner.feed(r) for r in records] + [scanner.finish()]


def test_streaming_equals_batch():
    for corpus, rules in [
        ("bridge_logs.jsonl", bridge_rules()),
        ("bridge_edge_logs.jsonl", strict_rules()),
        ("spoof_logs.jsonl", None),
    ]:
        records = list(read_records_file(fixture_path(corpus)))
        batch, caveats = scan_records(records, rules)
        scanner, oracle = Scanner(rules), ReferenceScanner(rules)
        streamed = fed_one_by_one(scanner, records)
        expected = fed_one_by_one(oracle, records)
        assert streamed == expected  # each finding returned by the call that settles it
        assert detailed(sum(streamed, [])) == detailed(sum(expected, []))
        assert detailed(batch) == detailed(sum(expected, []))
        assert scanner.caveats == caveats == oracle.caveats


# -- frozen corpus outcomes --------------------------------------------


def test_bridge_corpus_findings():
    findings, caveats = scan_records(
        read_records_file(fixture_path("bridge_logs.jsonl")), bridge_rules()
    )
    assert [(f.kind, f.check) for f in findings] == [
        ("RULE_VIOLATION", "emitter-authenticity"),
        ("BLENDED_EVENT", None),
    ]
    violation, blend = findings
    assert blend.project == "HarborBridge"
    assert blend.block_number == 120 and blend.log_index == 2
    assert blend.address == ATTACKER_CONTRACT
    assert blend.event == "Redeem"
    assert blend.confidence == "POTENTIAL"
    assert blend.detail == {
        "authentic_logs": [0, 1, 3],
        "foreign_logs": [2],
        "foreign_emitters": [ATTACKER_CONTRACT],
    }
    assert violation.confidence == "CONFIRMED"
    assert violation.block_number == 120 and violation.log_index == 2
    assert violation.detail["signature"] == "Redeem(address,uint256,string,bytes)"
    assert sorted(violation.detail["authentic_emitters"]) == [VAULT, PTOKEN]
    assert len(caveats) == 1 and "block 120" in caveats[0]


def test_edge_corpus_under_plain_rules():
    findings, _ = scan_records(
        read_records_file(fixture_path("bridge_edge_logs.jsonl")), bridge_rules()
    )
    assert [(f.check, f.block_number) for f in findings] == [("undeclared-signature", 302)]
    assert findings[0].detail["topic0"] == event_topic("Pinged(uint256)")


def test_edge_corpus_under_strict_rules():
    findings, _ = scan_records(
        read_records_file(fixture_path("bridge_edge_logs.jsonl")), strict_rules()
    )
    assert [(f.check, f.block_number) for f in findings] == [
        ("unexpected-selector", 300),
        ("predicate", 301),
        ("undeclared-signature", 302),
        ("malformed-data", 303),
    ]
    selector, predicate, _, malformed = findings
    assert selector.detail == {"selector": "0x1badface", "expected": ["0x24b76fd5"]}
    assert predicate.detail == {"param": "value", "op": ">", "bound": 0, "got": 0}
    assert "runs past end" in malformed.detail["error"]
    assert all(f.confidence == "CONFIRMED" for f in findings)


def test_spoof_corpus_findings():
    findings, caveats = scan_records(read_records_file(fixture_path("spoof_logs.jsonl")))
    assert [(f.kind, f.block_number) for f in findings] == [
        ("TRANSFER_SPOOFING", 200),
        ("TRANSFER_SPOOFING", 205),
        ("TRANSFER_SPOOFING", 208),
    ]
    erc20, erc721, revoked = findings
    assert erc20.detail["standard"] == "erc20" and erc20.detail["value"] == 999
    assert erc721.detail["standard"] == "erc721" and erc721.detail["tokenId"] == 9
    assert revoked.detail["from"] == "0x" + "aa" * 20
    assert all(f.confidence == "POTENTIAL" for f in findings)
    assert all(f.detail["approval_window_incomplete"] for f in findings)
    assert len(caveats) == 1


def test_injected_approval_suppresses_spoof():
    findings, _ = scan_records(read_records_file(fixture_path("spoof_approved_logs.jsonl")))
    assert [f.block_number for f in findings] == [205, 208]


def test_findings_serialize_to_json():
    findings, _ = scan_records(
        read_records_file(fixture_path("bridge_logs.jsonl")), bridge_rules()
    )
    blob = json.dumps([from_txlog(f).to_json() for f in findings], sort_keys=True)
    again = json.dumps([from_txlog(f).to_json() for f in findings], sort_keys=True)
    assert blob == again
    parsed = json.loads(blob)
    assert parsed[0]["evidence"]["check"] == "emitter-authenticity"
    assert parsed[1]["kind"] == "BLENDED_EVENT"


def test_decode_event_against_rule_params():
    redeem = next(e for e in bridge_rules().projects[0].events if e.name == "Redeem")
    record = redeem_log(1, 0, 1, VAULT, value=55)
    decoded = decode_event(redeem.params, record.topics, record.data)
    assert decoded == {
        "redeemer": ATTACKER,
        "value": 55,
        "underlyingAssetRecipient": "r",
        "userData": b"",
    }
    with pytest.raises(DecodeError, match="topics"):
        decode_event(redeem.params, record.topics + (t_uint(1),), record.data)


def test_project_rule_lookup_keeps_the_first_rule_of_a_topic():
    from phantomscan.txscan.rules import EventRule, Project
    first, second, other = EventRule("A", (), 7), EventRule("B", (), 7), EventRule("C", (), 9)
    proj = Project("p", frozenset(), (first, second, other))
    assert proj.rules_by_topic == {7: first, 9: other}


# -- byte ranges joined ------------------------------------------------

T_APPROVAL_FOR_ALL = event_topic("ApprovalForAll(address,address,bool)")
T_BURNED = event_topic("Burned(address,address,uint256,bytes,bytes)")
PEOPLE = [f"0x{i:040x}" for i in range(0xA1, 0xA6)]
TOKENS = ["0x" + "44" * 20, PTOKEN]
EMITTERS = [VAULT, PTOKEN, ATTACKER_CONTRACT, "0x" + "cd" * 20]
ZERO = "0x" + "00" * 20


def ranged_corpus(seed: int, count: int) -> tuple[list[dict | None], bool]:
    """c10-style rows in transactions of 1 to 4 logs, `Approval` and
    `ApprovalForAll` grants and revocations among few owners and spenders
    (so that they authorize later transfers), mints, burns, ERC-721
    transfers, blended redemptions and anonymous logs; None is a blank
    line.  An odd seed starts at block 0, an even one at block 7.  Also
    whether the file ends without a final newline."""
    rng = random.Random(seed)
    rows: list[dict | None] = []
    block = -1 if seed % 2 else 6
    txn = 0
    while len(rows) < count:
        block += 1
        log_index = 0
        for _ in range(rng.randint(1, 2)):
            txn += 1
            sender = rng.choice(PEOPLE)
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                owner, other = rng.sample(PEOPLE, 2)
                if rng.random() < 0.3:
                    owner = sender
                address = rng.choice(TOKENS)
                if roll < 0.30:
                    topics = [T_TRANSFER, t_addr(owner), t_addr(other)]
                    data = enc(("uint256", rng.randint(0, 100)))
                elif roll < 0.36:
                    topics = [T_TRANSFER, t_addr(owner), t_addr(other), t_uint(rng.randint(0, 9))]
                    data = "0x"
                elif roll < 0.40:
                    pair = [t_addr(ZERO), t_addr(other)]
                    topics = [T_TRANSFER, *(pair if rng.random() < 0.5 else pair[::-1])]
                    data = enc(("uint256", 1))
                elif roll < 0.52:
                    topics = [T_APPROVAL, t_addr(other), t_addr(rng.choice(PEOPLE))]
                    data = enc(("uint256", rng.choice([0, 0, 1, 7])))
                elif roll < 0.60:
                    topics = [T_APPROVAL_FOR_ALL, t_addr(other), t_addr(rng.choice(PEOPLE))]
                    data = enc(("bool", rng.random() < 0.6))
                elif roll < 0.80:
                    address = rng.choice(EMITTERS)
                    topics = [T_REDEEM, t_addr(owner)]
                    data = enc(("uint256", rng.randint(1, 9)), ("string", "r"), ("bytes", b""))
                elif roll < 0.92:
                    address = rng.choice(EMITTERS)
                    topics = [T_BURNED, t_addr(owner), t_addr(other)]
                    data = enc(("uint256", 1), ("bytes", b""), ("bytes", b""))
                else:
                    address = rng.choice(EMITTERS)
                    topics = []
                    data = "0x"
                rows.append({
                    "txHash": f"0x{txn:064x}", "logIndex": log_index, "blockNumber": block,
                    "address": address, "topics": topics, "data": data, "txFrom": sender,
                    "txTo": address, "txSelector": "0xaabbccdd",
                })
                log_index += 1
                if rng.random() < 0.05:
                    rows.append(None)
    return rows, rng.random() < 0.5


def write_rows(path, rows: list, final_newline: bool = True) -> list[dict | None]:
    """Write `rows` as JSONL (a str row as is, None as a blank line) and
    return, per line, the row written there."""
    text = "\n".join("  " if row is None else row if isinstance(row, str) else json.dumps(row)
                     for row in rows)
    path.write_text(text + "\n" if final_newline else text, encoding="utf-8")
    return list(rows)


def line_starts(path) -> list[int]:
    data = path.read_bytes()
    return [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A and i + 1 < len(data)]


def ranges_at(path, cuts) -> list[tuple[int, int | None]]:
    """The byte ranges of `path` cut before each line index in `cuts`."""
    starts = line_starts(path)
    offsets = sorted({starts[i] for i in cuts if i > 0})
    return list(zip([0, *offsets], [*offsets, None]))


def joined(path, ranges, rules, spoofing=True, wrap=None):
    scans = [scan_range(path, start, end, rules, spoofing) for start, end in ranges]
    # the first range starts the stream, so none of its findings waits on an earlier one
    assert scans[0].head == [] and scans[0].candidates == []
    return join_ranges(scans, rules, **({"wrap": wrap} if wrap else {}))


def report_bytes(findings, caveats) -> str:
    return merge(map(from_txlog, findings), caveats).to_json()


def cut_sets(rows: list, rng: random.Random) -> list[list[int]]:
    """Line indices to cut before: 0 to 5 random ones, and cuts inside a
    transaction, right after an approval and before the last line."""
    n = len(rows)
    inside = [i for i in range(1, n) if rows[i] and rows[i - 1]
              and rows[i]["txHash"] == rows[i - 1]["txHash"]]
    after_approval = [i for i in range(1, n) if rows[i - 1] and rows[i - 1]["topics"][:1]
                      in ([T_APPROVAL], [T_APPROVAL_FOR_ALL])]
    sets = [sorted(rng.sample(range(1, n), k)) for k in range(6) for _ in range(3)]
    sets += [rng.sample(inside, 3), rng.sample(after_approval, 3), [n - 1],
             [rng.choice(inside), rng.choice(after_approval), n - 1],
             sorted(rng.sample(inside, 5))]
    return sets


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("spoofing", [True, False])
def test_joined_ranges_equal_one_pass(tmp_path, seed, spoofing):
    rows, no_final_newline = ranged_corpus(seed, 400)
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows, final_newline=not no_final_newline)
    rules = bridge_rules()
    records = list(read_records_file(path))
    reference, caveats = reference_scan_records(records, rules, spoofing=spoofing)
    expected = detailed(reference)
    assert bool(caveats) == (spoofing and seed % 2 == 0)
    assert any(f.kind == "TRANSFER_SPOOFING" for f in reference) == spoofing
    assert any(f.kind == "BLENDED_EVENT" for f in reference)
    one, one_caveats = scan_records(records, rules, spoofing=spoofing)
    assert detailed(one) == expected and one_caveats == caveats
    scanner = Scanner(rules, spoofing=spoofing)
    streamed = fed_one_by_one(scanner, records)
    assert streamed == fed_one_by_one(ReferenceScanner(rules, spoofing=spoofing), records)
    assert detailed(sum(streamed, [])) == expected and scanner.caveats == caveats
    for cuts in cut_sets(rows, random.Random(seed)):
        ranges = ranges_at(path, cuts)
        findings, got_caveats = joined(path, ranges, rules, spoofing)
        assert detailed(findings) == expected, cuts
        assert got_caveats == caveats
        assert report_bytes(findings, got_caveats) == report_bytes(reference, caveats)


def test_a_cut_decides_what_an_approval_before_it_authorizes(tmp_path):
    """A grant, a revocation and an operator flag in one range; transfers
    they rule on in the next."""
    def approval(i, topic, owner, spender, data):
        return {"txHash": f"0x{i:064x}", "logIndex": 0, "blockNumber": i, "address": PTOKEN,
                "topics": [topic, t_addr(owner), t_addr(spender)], "data": data,
                "txFrom": owner, "txTo": PTOKEN, "txSelector": None}

    def transfer(i, owner, spender):
        row = approval(i, T_TRANSFER, owner, PEOPLE[4], enc(("uint256", 5)))
        return {**row, "txFrom": spender}

    a, b, c, d = PEOPLE[:4]
    rows = [approval(1, T_APPROVAL, a, b, enc(("uint256", 9))),
            approval(2, T_APPROVAL, a, c, enc(("uint256", 9))),
            approval(3, T_APPROVAL, a, c, enc(("uint256", 0))),
            approval(4, T_APPROVAL_FOR_ALL, d, b, enc(("bool", True))),
            transfer(5, a, b), transfer(6, a, c), transfer(7, d, b), transfer(8, d, c)]
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    one, _ = scan_records(read_records_file(path))
    assert [f.block_number for f in one] == [6, 8]
    for cut in range(1, len(rows)):
        findings, _ = joined(path, ranges_at(path, [cut]), None)
        assert [(f, f.detail) for f in findings] == [(f, f.detail) for f in one], cut


def test_the_caveat_comes_from_the_stream_s_first_record(tmp_path):
    rows, _ = ranged_corpus(3, 60)
    rows = [None, None, *[{**r, "blockNumber": r["blockNumber"] + 7} if r else r for r in rows]]
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    one, caveats = scan_records(read_records_file(path))
    assert len(caveats) == 1
    assert any(f.detail.get("approval_window_incomplete") for f in one)
    for cuts in ([1], [2], [2, 30], [45]):
        findings, got = joined(path, ranges_at(path, cuts), None)
        assert got == caveats
        assert [(f, f.detail) for f in findings] == [(f, f.detail) for f in one]


def test_an_empty_or_blank_corpus_joins_to_nothing(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("")
    assert joined(path, [(0, None)], None) == ([], [])
    path.write_text("\n  \n\n")
    assert joined(path, ranges_at(path, [1, 2]), None) == ([], [])


def one_pass_error(path) -> str:
    with pytest.raises(RecordError) as exc:
        scan_records(read_records_file(path), bridge_rules())
    return str(exc.value)


def joined_error(path, ranges) -> str:
    with pytest.raises(RecordError) as exc:
        joined(path, ranges, bridge_rules())
    return str(exc.value)


def test_the_earlier_of_two_defects_is_reported(tmp_path):
    rows, _ = ranged_corpus(5, 120)
    rows[70] = '{"txHash": "0x12",'
    rows[100] = "[1, 2]"
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    assert one_pass_error(path).startswith("line 71: invalid JSON")
    for cuts in ([40], [40, 90], [71], [101], [40, 71, 90, 101, 110]):
        assert joined_error(path, ranges_at(path, cuts)) == one_pass_error(path), cuts


def test_an_out_of_order_record_right_after_a_cut_names_its_line(tmp_path):
    rows, _ = ranged_corpus(6, 120)
    rows = [r for r in rows if r]
    rows[80], rows[81] = rows[81], rows[80]
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    message = one_pass_error(path)
    assert message.startswith("line 82: records out of order")
    for cuts in ([81], [40, 81], [81, 82], [30, 60, 81, 100]):
        assert joined_error(path, ranges_at(path, cuts)) == message, cuts


def test_a_byte_that_is_not_utf8_in_a_later_range_keeps_its_line_and_offset(tmp_path):
    rows, _ = ranged_corpus(7, 120)
    rows = [r for r in rows if r]
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    lines = path.read_bytes().split(b"\n")
    lines[90] = lines[90][:30] + b"\xff" + lines[90][30:]
    path.write_bytes(b"\n".join(lines))
    message = one_pass_error(path)
    assert message.startswith("line 91: invalid UTF-8: byte 0xff at offset 30")
    for cuts in ([50], [50, 90], [91], [20, 60, 100]):
        assert joined_error(path, ranges_at(path, cuts)) == message, cuts


def test_line_ranges_cut_at_line_boundaries(tmp_path, monkeypatch):
    from phantomscan.txscan import records
    monkeypatch.setattr(records, "MIN_RANGE_BYTES", 100)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"x" * 99 + b"\n" + b"y" * 99 + b"\n")
    assert line_ranges(path, 2) == [(0, 100), (100, None)]  # the half is a line start
    path.write_bytes(b"x" * 50 + b"\n" + b"y" * 300 + b"\n" + b"z" * 20)
    # thirds fall at 124 and 248, inside the second line, whose end is the one cut
    assert line_ranges(path, 3) == [(0, 352), (352, None)]
    assert line_ranges(path, 9) == [(0, 352), (352, None)]
    assert line_ranges(path, 1) == [(0, None)]
    path.write_bytes(b"".join(b"%d\n" % i for i in range(2000)))
    starts = set(line_starts(path))
    for parts in range(1, 8):
        ranges = line_ranges(path, parts)
        assert len(ranges) == min(parts, path.stat().st_size // 100)
        assert all(start in starts for start, _ in ranges)
        assert [end for _, end in ranges[:-1]] == [start for start, _ in ranges[1:]]
    monkeypatch.setattr(records, "MIN_RANGE_BYTES", 1 << 20)
    assert line_ranges(path, 4) == [(0, None)]  # a small file is one range


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_line_ranges_keep_a_pipe_whole(tmp_path):
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    assert line_ranges(fifo, 4) == [(0, None)]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="workers are forked, one per CPU this process may use")
@pytest.mark.parametrize("spoofing", [True, False])
def test_forked_ranges_equal_one_pass(tmp_path, spoofing):
    from phantomscan import cli

    rows, no_final_newline = ranged_corpus(8, 400)
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows, final_newline=not no_final_newline)
    rules = bridge_rules()
    one, caveats = scan_records(read_records_file(path), rules, spoofing=spoofing)
    for cuts in ([100], [50, 150, 250], cut_sets(rows, random.Random(8))[-1]):
        findings, got = cli._scan_ranges(str(path), ranges_at(path, cuts), rules, spoofing)
        assert findings == [from_txlog(f) for f in one]
        assert got == caveats
