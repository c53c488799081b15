"""Answers computed apart from the program, and the checks that use them.

`scan_reference` is a short re-statement of the log rules documented in
`txscan/scan.py` for a ruleset without selector or predicate rules:
emitter authenticity, undeclared signatures, the per-transaction blend,
and transfer spoofing with approval folding.  It shares no code with
the scanner.

`check_scan_report` and `check_audit_report` compare a serialized
report with an answer and return a list of problems (empty when the
report is right).
"""

from __future__ import annotations

import json

ZERO = "0x" + "00" * 20


class Project:
    """One project of a ruleset: its emitters and declared events."""

    def __init__(self, name: str, emitters, events: dict[str, str]):
        self.name = name
        self.emitters = {a.lower() for a in emitters}
        self.events = {t.lower(): n for t, n in events.items()}  # topic0 hex -> name


def _address_of(topic: str) -> str:
    return "0x" + topic[-40:]


def _first_word(data: str) -> int | None:
    word = data[2:66]
    return int(word, 16) if len(word) == 64 else None


def finding_key(kind, check, r, project, event, confidence) -> tuple:
    """A finding's identity as the benchmark compares it; `r` is the cited record."""
    return (kind, check, r["txHash"], r["blockNumber"], r["logIndex"], r["address"],
            project, event, confidence)


def scan_reference(records: list[dict], projects: list[Project],
                   transfer: str, approval: str, approval_for_all: str) -> tuple[list[tuple], int]:
    """Expected (findings, caveat count) for a record stream."""
    out: list[tuple] = []
    allowance: dict[tuple, bool] = {}
    operator: dict[tuple, bool] = {}
    tx_rows: list[dict] = []

    def blend(rows: list[dict]) -> None:
        for p in projects:
            mine = [r for r in rows if r["topics"] and r["topics"][0] in p.events]
            foreign = [r for r in mine if r["address"] not in p.emitters]
            if foreign and len(foreign) < len(mine):
                first = foreign[0]
                out.append(finding_key("BLENDED_EVENT", None, first, p.name,
                                p.events[first["topics"][0]], "POTENTIAL"))

    for r in records:
        if tx_rows and tx_rows[0]["txHash"] != r["txHash"]:
            blend(tx_rows)
            tx_rows = []
        tx_rows.append(r)
        topic0 = r["topics"][0] if r["topics"] else None
        for p in projects:
            declared = topic0 in p.events
            authentic = r["address"] in p.emitters
            if declared and not authentic:
                out.append(finding_key("RULE_VIOLATION", "emitter-authenticity", r, p.name,
                                p.events[topic0], "CONFIRMED"))
            if authentic and not declared:
                out.append(finding_key("RULE_VIOLATION", "undeclared-signature", r, p.name,
                                None, "CONFIRMED"))
        topics = r["topics"]
        if topic0 == transfer and len(topics) in (3, 4):
            src, dst = _address_of(topics[1]), _address_of(topics[2])
            grant = (r["address"], src, r["txFrom"])
            if (ZERO not in (src, dst) and r["txFrom"] != src
                    and not allowance.get(grant) and not operator.get(grant)):
                out.append(finding_key("TRANSFER_SPOOFING", None, r, None, "Transfer", "POTENTIAL"))
        elif topic0 in (approval, approval_for_all) and len(topics) == 3:
            value = _first_word(r["data"])
            if value is not None:
                table = allowance if topic0 == approval else operator
                table[(r["address"], _address_of(topics[1]), _address_of(topics[2]))] = value != 0
    if tx_rows:
        blend(tx_rows)
    caveats = 1 if records and records[0]["blockNumber"] > 0 else 0
    return out, caveats


# --------------------------------------------------------------------------
# report checks
# --------------------------------------------------------------------------

def report_properties(doc: dict) -> list[str]:
    """Invariants every report must hold, whatever it found."""
    problems = []
    findings = doc.get("findings")
    if not isinstance(findings, list):
        return ["report has no findings list"]
    if doc.get("summary", {}).get("total") != len(findings):
        problems.append(f"summary.total {doc.get('summary', {}).get('total')} "
                        f"!= {len(findings)} findings")
    ids = [f.get("id") for f in findings]
    if len(set(ids)) != len(ids):
        problems.append("finding ids are not unique")
    return problems


def scan_keys(doc: dict) -> list[tuple]:
    out = []
    for f in doc["findings"]:
        s = f["subject"]
        out.append((f["kind"], f["evidence"].get("check"), s["txHash"], s["blockNumber"],
                    s["logIndex"], s["address"], s["project"], s["event"], f["confidence"]))
    return out


def check_scan_report(text: str, exit_code: int, expected: list[tuple],
                      caveats: int) -> list[str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    problems = report_properties(doc)
    if problems:
        return problems
    if exit_code != (1 if doc["findings"] else 0):
        problems.append(f"exit code {exit_code} with {len(doc['findings'])} findings")
    got = sorted(scan_keys(doc), key=repr)
    want = sorted(expected, key=repr)
    if got != want:
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        problems.append(f"findings differ from the answer: {missing} missing, {extra} "
                        f"unexpected ({len(got)} reported, {len(want)} expected)")
    if len(doc.get("caveats", [])) != caveats:
        problems.append(f"{len(doc.get('caveats', []))} caveats, expected {caveats}")
    return problems


def _witness_holds(witness: dict, constraints) -> bool:
    for c in constraints:
        if c[0] == "range":
            _, name, lo, hi = c
            v = witness.get(name)
            if not isinstance(v, int) or not lo <= v <= hi:
                return False
        else:
            _, first, last, least = c
            a, b = witness.get(first), witness.get(last)
            if not isinstance(a, int) or not isinstance(b, int) or b - a < least:
                return False
    return True


def check_audit_report(text: str, layer: str, expected) -> list[str]:
    """Compare one contract's report with its known answer.

    `expected` is a list of gen_contracts.Expected.  Each finding must
    carry the decided confidence of its layer.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    problems = report_properties(doc)
    if problems:
        return problems
    decided = "POTENTIAL" if layer == "bytecode" else "CONFIRMED"
    got = sorted((f["kind"], f["evidence"].get("condition") if layer == "bytecode" else None,
                  tuple(f["subject"]["functions"])) for f in doc["findings"])
    want = sorted((e.kind, e.condition, e.functions) for e in expected)
    if got != want:
        return [f"findings {got} differ from the answer {want}"]
    by_key = {(e.kind, e.functions): e for e in expected}
    for f in doc["findings"]:
        e = by_key[(f["kind"], tuple(f["subject"]["functions"]))]
        if f["confidence"] != decided:
            problems.append(f"{f['kind']} {e.functions} is {f['confidence']}, not {decided}")
        if f["layer"] != layer:
            problems.append(f"finding on layer {f['layer']}, expected {layer}")
        named = sorted(f["evidence"].get("unvalidated", {}))
        if e.unvalidated is not None and named != sorted(e.unvalidated):
            problems.append(f"unvalidated {named} != {sorted(e.unvalidated)}")
        if e.witness and not _witness_holds(f["evidence"].get("witness", {}), e.witness):
            problems.append(f"witness {f['evidence'].get('witness')} breaks the guards of {e.functions}")
    return problems
