"""Unified findings, report merging, and the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import phantomscan
from phantomscan import SCHEMA
from phantomscan.cli import main
from phantomscan.findings import (Finding, from_bytecode, from_source, from_txlog,
                                  make_finding)
from phantomscan.report import merge
from phantomscan.resources import fixture_path
from test_acceptance import _synthetic_corpus
from test_taint import FIXTURES as HEX_FIXTURES
from test_taint import callers, icfg_for, padded_chain

from phantomscan.minisol import load
from phantomscan.symexec import analyze_source
from phantomscan.taint import detect
from phantomscan.txscan import load_rules_file, read_records_file, scan_records

FIX = {name: str(fixture_path(name)) for name in (
    "counterfeit.hex", "checked_call.hex", "counterfeit.msol",
    "inconsistent_safe.msol", "bridge_logs.jsonl", "spoof_logs.jsonl",
    "bridge_rules.yaml", "sigdb.txt", "relay.msol",
)}


def runner():
    return CliRunner()


def _bridge_lines() -> list[str]:
    """The lines of the bundled bridge corpus, each with its newline."""
    return Path(FIX["bridge_logs.jsonl"]).read_text(encoding="utf-8").splitlines(keepends=True)


# -- findings ----------------------------------------------------------


def test_finding_id_depends_on_content_only():
    a = make_finding("logs", "K", "POTENTIAL", {"s": 1}, {"e": [1, 2]})
    b = make_finding("logs", "K", "POTENTIAL", {"s": 1}, {"e": [1, 2]})
    c = make_finding("logs", "K", "POTENTIAL", {"s": 1}, {"e": [1, 3]})
    assert a.id == b.id and a.id != c.id
    assert len(a.id) == 32 and int(a.id, 16) >= 0
    # confidence is presentation, not identity
    d = make_finding("logs", "K", "CONFIRMED", {"s": 1}, {"e": [1, 2]})
    assert d.id == a.id


def _findings_of_every_layer():
    """Every finding of every layer on the bundled fixtures and a 1k-record c10 corpus."""
    for name in HEX_FIXTURES:
        icfg, sigdb = icfg_for(name)
        for strict in (False, True):
            yield from (from_bytecode(f, origin=name) for f in detect(icfg, sigdb, strict))
    for name in ("counterfeit", "disjoint", "inconsistent", "inconsistent_safe", "relay"):
        contract = load(fixture_path(name + ".msol").read_text())
        yield from (from_source(f, origin=name) for f in analyze_source(contract))
    bridge = load_rules_file(fixture_path("bridge_rules.yaml"))
    rulesets = (None, bridge, load_rules_file(fixture_path("bridge_rules_strict.yaml")))
    corpora = [(read_records_file(fixture_path(corpus)), rules)
               for corpus in ("bridge_edge_logs.jsonl", "bridge_logs.jsonl",
                              "spoof3_approved_logs.jsonl", "spoof3_logs.jsonl",
                              "spoof_approved_logs.jsonl", "spoof_logs.jsonl")
               for rules in rulesets]
    corpora.append((_synthetic_corpus(1000), bridge))
    for records, rules in corpora:
        yield from map(from_txlog, scan_records(records, rules)[0])


def test_every_layer_hands_over_plain_json():
    layers = set()
    for f in _findings_of_every_layer():
        layers.add(f.layer)
        assert f.subject == json.loads(json.dumps(f.subject)), f
        assert f.evidence == json.loads(json.dumps(f.evidence)), f
    assert layers == {"bytecode", "source", "logs"}


def test_make_finding_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        make_finding("logs", "K", "POTENTIAL", {"s": 1}, {"e": {1, 2}})


def _src(topic, origin="counterfeit.msol", confidence="CONFIRMED", kind="EVENT_COUNTERFEITING"):
    return make_finding("source", kind, confidence,
                        {"origin": origin, "topic0": topic, "event": "E"}, {"w": 1})


def _byt(topic, origin="counterfeit.hex", confidence="POTENTIAL", kind="EVENT_COUNTERFEITING"):
    return make_finding("bytecode", kind, confidence,
                        {"origin": origin, "topic0": topic, "event": "E"}, {"c": 1})


def test_merge_dedupes_and_orders_by_confidence():
    pot = _byt("0xaa")
    con = _src("0xbb")
    inc = make_finding("source", "X", "INCOMPLETE", {"origin": "z", "topic0": None}, {})
    rep = merge([pot, con, pot, inc])
    assert [f.id for f in rep.findings] == [con.id, pot.id, inc.id]


def test_source_confirmed_supersedes_bytecode_potential():
    rep = merge([_byt("0xaa"), _src("0xaa")])
    assert rep.superseded == {_byt("0xaa").id: _src("0xaa").id}
    # and the marking survives serialization
    doc = json.loads(rep.to_json())
    marked = [f for f in doc["findings"] if "superseded_by" in f]
    assert [f["id"] for f in marked] == [_byt("0xaa").id]
    assert doc["summary"]["superseded"] == 1


def test_dominance_requires_matching_stem_topic_kind_and_confidence():
    assert merge([_byt("0xaa"), _src("0xbb")]).superseded == {}
    assert merge([_byt("0xaa"), _src("0xaa", origin="other.msol")]).superseded == {}
    assert merge([_byt("0xaa"), _src("0xaa", kind="INCONSISTENT_LOGGING")]).superseded == {}
    assert merge([_byt("0xaa"), _src("0xaa", confidence="INCOMPLETE")]).superseded == {}
    assert merge([_byt("0xaa", confidence="INCOMPLETE"), _src("0xaa")]).superseded == {}
    # paths may differ as long as the stem matches
    assert merge([_byt("0xaa", origin="a/b/counterfeit.hex"), _src("0xaa")]).superseded != {}


def test_caveats_deduplicated_in_order():
    rep = merge([], ["one", "two", "one"])
    assert rep.caveats == ["one", "two"]


def test_from_txlog_shape():
    from phantomscan.txscan import load_rules_file, read_records_file, scan_records

    raw, _ = scan_records(read_records_file(FIX["bridge_logs.jsonl"]),
                          load_rules_file(FIX["bridge_rules.yaml"]))
    f = from_txlog(raw[0])
    assert f.layer == "logs" and f.kind == "RULE_VIOLATION"
    assert f.subject["logIndex"] == 2 and f.subject["project"] == "HarborBridge"
    assert f.evidence["check"] == "emitter-authenticity"


# -- cli ---------------------------------------------------------------


def test_cli_version():
    res = runner().invoke(main, ["--version"])
    assert res.exit_code == 0 and "phantomscan" in res.output


def test_cli_disasm_json(tmp_path):
    code = tmp_path / "tiny.hex"
    code.write_text("0x600100\n")
    res = runner().invoke(main, ["disasm", str(code), "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema"] == SCHEMA
    assert [(i["op"], i["arg"]) for i in doc["instructions"]] == [
        ("PUSH1", "0x01"),
        ("STOP", None),
    ]


def test_cli_disasm_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.hex"
    bad.write_text("zz")
    res = runner().invoke(main, ["disasm", str(bad)])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_cli_icfg_dot():
    res = runner().invoke(main, ["icfg", FIX["counterfeit.hex"], "--dot"])
    assert res.exit_code == 0 and res.output.startswith("digraph")


def test_cli_parse_is_idempotent(tmp_path):
    first = runner().invoke(main, ["parse", FIX["relay.msol"]])
    assert first.exit_code == 0
    again_file = tmp_path / "again.msol"
    again_file.write_text(first.output)
    second = runner().invoke(main, ["parse", str(again_file)])
    assert second.output == first.output


def test_cli_parse_summary():
    res = runner().invoke(main, ["parse", FIX["relay.msol"], "--summary"])
    doc = json.loads(res.output)
    assert doc["contract"] == "RelayPing"


def test_cli_analyze_bytecode_exit_codes():
    hit = runner().invoke(main, ["analyze-bytecode", FIX["counterfeit.hex"],
                                 "--sigdb", FIX["sigdb.txt"]])
    assert hit.exit_code == 1
    assert "EVENT_COUNTERFEITING" in hit.output
    clean = runner().invoke(main, ["analyze-bytecode", FIX["checked_call.hex"]])
    assert clean.exit_code == 0
    assert "0 findings" in clean.output


def test_cli_analyze_bytecode_reports_a_log_65_blocks_down(tmp_path):
    # a LOG 65 blocks below the read of the word it logs
    path = tmp_path / "padded65.hex"
    path.write_text(padded_chain(65, store_near_log=True).code.hex())
    res = runner().invoke(main, ["analyze-bytecode", str(path)])
    assert res.exit_code == 1
    assert "INCONSISTENT_LOGGING" in res.output


def test_cli_analyze_source_json():
    res = runner().invoke(main, ["analyze-source", FIX["counterfeit.msol"], "--json"])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["schema"] == SCHEMA
    kinds = [f["kind"] for f in doc["findings"]]
    assert "EVENT_COUNTERFEITING" in kinds
    clean = runner().invoke(main, ["analyze-source", FIX["inconsistent_safe.msol"]])
    assert clean.exit_code == 0


def test_cli_scan_logs():
    res = runner().invoke(main, ["scan-logs", FIX["bridge_logs.jsonl"],
                                 "--rules", FIX["bridge_rules.yaml"], "--json"])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["summary"]["by_kind"] == {"BLENDED_EVENT": 1, "RULE_VIOLATION": 1}
    assert len(doc["caveats"]) == 1
    off = runner().invoke(main, ["scan-logs", FIX["spoof_logs.jsonl"], "--no-spoofing"])
    assert off.exit_code == 0


def test_cli_report_merges_and_supersedes(tmp_path):
    out = tmp_path / "report.json"
    args = ["report",
            "--bytecode", FIX["counterfeit.hex"],
            "--source", FIX["counterfeit.msol"],
            "--sigdb", FIX["sigdb.txt"],
            "-o", str(out)]
    res = runner().invoke(main, args)
    assert res.exit_code == 1
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["summary"]["superseded"] == 1
    marked = [f for f in doc["findings"] if "superseded_by" in f]
    assert len(marked) == 1
    assert marked[0]["layer"] == "bytecode"
    assert marked[0]["kind"] == "EVENT_COUNTERFEITING"
    dominator = next(f for f in doc["findings"] if f["id"] == marked[0]["superseded_by"])
    assert dominator["layer"] == "source" and dominator["confidence"] == "CONFIRMED"
    # byte-identical on a second run
    res2 = runner().invoke(main, args[:-2])
    assert res2.output.strip() == out.read_text().strip()


def test_cli_report_requires_input():
    res = runner().invoke(main, ["report"])
    assert res.exit_code == 2
    assert "nothing to analyze" in res.output


def test_cli_out_of_order_record_names_its_line(tmp_path):
    first, second = (json.loads(line) for line in
                     _bridge_lines()[:2])
    second["blockNumber"] = first["blockNumber"]
    first["logIndex"], second["logIndex"] = 1, 0
    corpus = tmp_path / "swapped.jsonl"
    corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    res = runner().invoke(main, ["scan-logs", str(corpus)])
    assert res.exit_code == 2
    assert f"error: {corpus}: line 2: records out of order" in res.stderr


def test_cli_non_ascii_identifier_is_a_syntax_error_with_its_position(tmp_path):
    # the lexer used to take it and event_topic's ascii encoding then
    # failed, so the CLI reported an internal error and exited 3
    src = tmp_path / "accent.msol"
    src.write_text("contract C {\n  event P\u00e9(uint256 amount);\n"
                   "  function f(uint256 amount) external { emit P\u00e9(amount); }\n}\n",
                   encoding="utf-8")
    for command in (["analyze-source"], ["parse"], ["report", "--source"]):
        res = runner().invoke(main, [*command, str(src)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {src}: 2:10: expected a token, found '\u00e9'\n"
        assert res.stdout == ""

@pytest.mark.parametrize("statement,position,bits", [
    # 5,000 hex digits: printing the value used to exit 3 with an internal error
    ("a = 0x" + "f" * 5000 + ";", "2:29", 20000),
    # 2**256 used to load, outside the range the solver assumes
    ("a = 0x1" + "0" * 64 + ";", "2:29", 257),
    ("o = address(0x1" + "0" * 40 + ");", "2:37", 161),
], ids=["5000-digits", "2**256", "address-2**160"])
def test_cli_rejects_a_literal_out_of_its_range_with_its_position(tmp_path, statement,
                                                                  position, bits):
    src = tmp_path / "big.msol"
    src.write_text("contract C { uint256 a; address o;\nfunction f() external { "
                   + statement + " } }\n")
    for command in (["analyze-source"], ["parse"], ["report", "--source"]):
        res = runner().invoke(main, [*command, str(src)])
        assert res.exit_code == 2
        most = 160 if "address" in statement else 256
        assert res.stderr == (f"error: {src}: {position}: expected a number below "
                              f"2**{most}, found a {bits}-bit number\n")
        assert res.stdout == ""


def test_cli_rejects_an_address_with_a_trailing_newline(tmp_path):
    first = json.loads(_bridge_lines()[0])
    first["address"] = "0x" + "11" * 20 + "\n"
    corpus = tmp_path / "newline.jsonl"
    corpus.write_text(json.dumps(first) + "\n")
    res = runner().invoke(main, ["scan-logs", str(corpus), "--rules", FIX["bridge_rules.yaml"],
                                 "--json"])
    assert res.exit_code == 2
    assert res.stderr == f"error: {corpus}: line 1: address must be a 20-byte hex string\n"
    assert res.stdout == ""

def _corpus_with(tmp_path, line: str) -> Path:
    """A two-line corpus: a valid record, then ``line``."""
    first = _bridge_lines()[0]
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(first + line + "\n", encoding="utf-8")
    return corpus


def test_cli_rejects_a_deeply_nested_line_naming_it(tmp_path):
    # the decoder's RecursionError used to exit 3 as an internal error
    record = json.loads(_bridge_lines()[0])
    depth = 100_000  # past the recursion limit of any interpreter
    line = json.dumps(record)[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"
    corpus = _corpus_with(tmp_path, line)
    for command in (["scan-logs"], ["report", "--logs"]):
        res = runner().invoke(main, [*command, str(corpus)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {corpus}: line 2: invalid JSON: nested too deeply\n"
        assert res.stdout == ""


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on the digits int() converts")
def test_cli_rejects_a_number_of_too_many_digits_naming_its_line(tmp_path):
    # json.loads raises a plain ValueError here, which used to lose the line number
    record = json.loads(_bridge_lines()[0])
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    line = json.dumps(record).replace('"logIndex": ', f'"logIndex": {digits}, "was": ', 1)
    corpus = _corpus_with(tmp_path, line)
    for command in (["scan-logs"], ["report", "--logs"]):
        res = runner().invoke(main, [*command, str(corpus)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {corpus}: line 2: invalid JSON: ")
        assert res.stdout == ""


def test_cli_rejects_a_byte_that_is_not_utf8_naming_its_line(tmp_path):
    # the text-mode file raised UnicodeDecodeError while it read ahead, with
    # no line number and a position counted from the decoder's chunk
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(Path(FIX["bridge_logs.jsonl"]).read_bytes() + b'{"txHash": "\xff"}\n')
    for command in (["scan-logs"], ["report", "--logs"]):
        res = runner().invoke(main, [*command, str(corpus)])
        assert res.exit_code == 2
        assert res.stderr == (f"error: {corpus}: line 8: invalid UTF-8: byte 0xff at offset 12:"
                              " invalid start byte\n")
        assert res.stdout == ""


def test_cli_rejects_a_deeply_nested_rules_file_naming_it(tmp_path):
    # the YAML loader's RecursionError used to exit 3, naming the corpus
    rules = tmp_path / "deep.yaml"
    rules.write_text("version: 1\nprojects: " + "[" * 3000 + "]" * 3000 + "\n")
    for command in (["scan-logs", FIX["bridge_logs.jsonl"], "--rules", str(rules)],
                    ["report", "--logs", FIX["bridge_logs.jsonl"], "--rules", str(rules)]):
        res = runner().invoke(main, command)
        assert res.exit_code == 2
        assert res.stderr == f"error: {rules}: invalid YAML: nested too deeply\n"
        assert res.stdout == ""


def test_cli_internal_error_exits_3_naming_the_file(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr("phantomscan.cli.detect", broken)
    res = runner().invoke(main, ["report", "--bytecode", FIX["counterfeit.hex"],
                                 "--source", FIX["counterfeit.msol"]])
    assert res.exit_code == 3
    assert res.stderr == f"error: {FIX['counterfeit.hex']}: internal error: KeyError: 'boom'\n"


def test_cli_internal_error_mid_report_exits_3(monkeypatch):
    # the report goes out one finding at a time, so an error while writing
    # the second finding comes after the first is written
    real = Finding.to_json
    written = []

    def flaky(finding):
        if written:
            raise RuntimeError("boom")
        written.append(finding.id)
        return real(finding)

    monkeypatch.setattr(Finding, "to_json", flaky)
    res = runner().invoke(main, ["scan-logs", FIX["bridge_logs.jsonl"],
                                 "--rules", FIX["bridge_rules.yaml"], "--json"])
    assert res.exit_code == 3
    assert res.stderr == f"error: {FIX['bridge_logs.jsonl']}: internal error: RuntimeError: boom\n"
    assert res.stdout.startswith('{\n  "caveats": ')
    assert f'"id": "{written[0]}"' in res.stdout


def test_cli_report_out_file_equals_stdout(tmp_path):
    args = ["report", "--bytecode", FIX["counterfeit.hex"], "--source", FIX["counterfeit.msol"],
            "--logs", FIX["bridge_logs.jsonl"], "--rules", FIX["bridge_rules.yaml"],
            "--sigdb", FIX["sigdb.txt"]]
    out = tmp_path / "report.json"
    to_file = runner().invoke(main, [*args, "--out", str(out)])
    to_stdout = runner().invoke(main, args)
    assert to_file.exit_code == to_stdout.exit_code == 1
    assert to_file.stdout == f"wrote {out}\n"
    assert out.read_bytes() == to_stdout.stdout_bytes
    assert json.loads(out.read_bytes())["summary"]["superseded"] == 1


def test_cli_report_out_that_cannot_be_written_exits_2(tmp_path):
    # it used to exit 3, an internal error, after every analysis had run
    out = tmp_path / "missing" / "report.json"
    res = runner().invoke(main, ["report", "--logs", FIX["spoof_logs.jsonl"], "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {out}: No such file or directory\n"
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ["scan-logs", "--json", FIX["bridge_logs.jsonl"]],
    ["scan-logs", FIX["bridge_logs.jsonl"]],
    ["report", "--logs", FIX["bridge_logs.jsonl"]],
], ids=["scan-logs-json", "scan-logs-text", "report"])
def test_cli_closed_stdout_exits_2(args):
    # a reader that went away (`| head -c 10`) used to give exit 3, an internal error
    src = str(Path(phantomscan.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "phantomscan.cli", *args], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert run.returncode == 2
    # one line: no traceback, and no "Exception ignored" from the flush at exit
    assert run.stderr == "error: <stdout>: Broken pipe\n"


_LOADED_MODULES = """
import sys
from phantomscan.cli import main
try:
    main(sys.argv[1:], prog_name="phantomscan")
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("command, name, text, runs, skipped", [
    ("scan-logs", "empty.jsonl", "", ["txscan"],
     ["evm", "lifter", "taint", "minisol", "symexec"]),
    ("analyze-bytecode", "empty.hex", "0x00\n", ["evm", "lifter", "taint"],
     ["minisol", "symexec", "txscan"]),
    ("analyze-source", "empty.msol", "contract Empty {\n}\n", ["minisol", "symexec"],
     ["evm", "lifter", "taint", "txscan"]),
], ids=["scan-logs", "analyze-bytecode", "analyze-source"])
def test_cli_subcommand_loads_only_its_layers(tmp_path, command, name, text, runs, skipped):
    src = str(Path(phantomscan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / name).write_text(text)
    run = subprocess.run([sys.executable, "-c", _LOADED_MODULES, command, name, "--json"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = {m.split(".")[1] for m in run.stderr.split() if m.startswith("phantomscan.")}
    assert set(runs) <= loaded
    assert not loaded & set(skipped)


# a local reassigned once per statement: declaration, step, guard
CHAINS = {
    "sum": ("uint256 t = x;", "t = t + 1;", "require(t > 5);"),
    "and": ("bool b = x > 1;", "b = b && x > 2;", "require(b);"),
    "not": ("bool b = x > 1;", "b = !b;", "require(b);"),
    "or-and": ("bool b = x > 1;", "b = (b || x > 3) && x > 2;", "require(b);"),
    # each step uses the value twice: a tree of 2^steps leaves
    "shared-or": ("bool b = x > 1;", "b = b || b;", "require(b);"),
    "shared-and": ("bool b = x > 1;", "b = b && b;", "require(b);"),
    "shared-or-negated": ("bool b = x > 1;", "b = b || b;", "require(!b);"),
    "shared-key": ("bool b = x > 1;", "b = b || b;", "require(m[b] > 3);"),
    "double": ("uint256 t = x;", "t = t + t;", "require(t > 5);"),
}


def _chain_source(shape: str, steps: int, emitted: str = "x") -> str:
    decl, step, guard = CHAINS[shape]
    return "\n".join([
        "contract Deep {",
        "    event E(uint256 v);",
        "    mapping(bool => uint256) m;",
        "    function f(uint256 x) external {",
        f"        {decl}",
        *[f"        {step}"] * steps,
        f"        {guard}",
        f"        emit E({emitted});",
        "    }",
        "    function g(uint256 x) external {",
        "        emit E(x);",
        "    }",
        "}",
    ]) + "\n"


def _cli_json(workdir: Path, command: str, name: str, text: str) -> subprocess.CompletedProcess:
    """`phantomscan <command> --json <name>` in a child process, on a
    file of that name holding `text`."""
    src = str(Path(phantomscan.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    workdir.mkdir()
    (workdir / name).write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "phantomscan.cli", command, "--json", name],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=120)


def _analyze_source_cli(workdir: Path, text: str) -> subprocess.CompletedProcess:
    return _cli_json(workdir, "analyze-source", "deep.msol", text)


def test_cli_helper_returning_from_a_later_block_flags_every_caller(tmp_path):
    # three callers of a helper whose return JUMP sits one block below its
    # entry, as any require in a compiled helper puts it
    code = callers(3, "jumpdest-before-return").code
    run = _cli_json(tmp_path / "run", "analyze-bytecode", "callers3.hex", code.hex())
    assert run.returncode == 1 and run.stderr == ""
    found = [(f["kind"], f["evidence"]["condition"], len(f["subject"]["functions"]))
             for f in json.loads(run.stdout)["findings"]]
    assert found == [("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS", 3),
                     ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", 3)]


@pytest.mark.parametrize("shape,steps", [(s, 1000) for s in CHAINS] + [("sum", 10_000)])
def test_cli_long_reassignment_chain_reports_like_a_short_one(tmp_path, shape, steps):
    # the local's value is built over every statement, which once made
    # the walks over symbolic values exhaust the stack; a value used
    # twice per step is a tree of 2^steps leaves unless shared parts
    # are walked once
    short, long = (_analyze_source_cli(tmp_path / str(n), _chain_source(shape, n))
                   for n in (50, steps))
    assert short.returncode == 1 and json.loads(short.stdout)["findings"], short.stderr
    assert "Traceback" not in long.stderr
    assert (long.returncode, long.stdout, long.stderr) == \
        (short.returncode, short.stdout, short.stderr)


@pytest.mark.parametrize("shape,steps,kinds", [
    ("sum", 1000, ["EVENT_COUNTERFEITING", "INCONSISTENT_LOGGING"]),
    ("sum", 10_000, ["EVENT_COUNTERFEITING", "INCONSISTENT_LOGGING"]),
    # 2^1000 * x > 5 forces x > 0, so f's payload exceeds every uint256
    # that g can emit: no counterfeit pair
    ("double", 1000, ["INCONSISTENT_LOGGING"]),
])
def test_cli_long_chain_value_is_emitted(tmp_path, shape, steps, kinds):
    # the chained value itself is the payload: it is coupled with g's and
    # evaluated for the witness
    run = _analyze_source_cli(tmp_path / "run", _chain_source(shape, steps, emitted="t"))
    assert "Traceback" not in run.stderr and run.stderr == ""
    assert run.returncode == 1
    assert sorted(f["kind"] for f in json.loads(run.stdout)["findings"]) == kinds
