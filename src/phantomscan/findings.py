"""One findings vocabulary across the three analysis layers.

Every detector result converts into a Finding with a content-derived
id, so merged reports stay stable across runs and duplicate inputs
collapse.  Confidence means: CONFIRMED carries a concrete witness or a
broken operator-declared rule, POTENTIAL is a static or heuristic
signal, INCOMPLETE means a search budget ran out before the question
was settled.

Each layer hands `make_finding` plain JSON: dicts with str keys, lists,
and str, int, bool or None values, which it keeps as given, uncopied.
Anything else is an internal error (exit 3), never quietly coerced: a
set, bytes or any other object the JSON encoder rejects raises
TypeError here, and the tests check that every layer's subjects and
evidence survive a JSON round trip unchanged (a tuple would not).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

LAYER_BYTECODE = "bytecode"
LAYER_SOURCE = "source"
LAYER_LOGS = "logs"

CONFIDENCE_RANK = {"CONFIRMED": 0, "POTENTIAL": 1, "INCOMPLETE": 2}


# compact and key-sorted; built once, as json.dumps with options builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# the C encoder that `_ENCODER.encode` builds anew on every call, built once
_compact_parts = c_make_encoder(None, _ENCODER.default, encode_basestring_ascii, None,
                                ":", ",", True, False, True)


def _compact(value) -> str:
    """`_ENCODER.encode(value)`, for a value holding no reference cycle."""
    return "".join(_compact_parts(value, 0))


def _topic_hex(topic0) -> str | None:
    if topic0 is None:
        return None
    if isinstance(topic0, int):
        return f"{topic0:#066x}"
    return topic0


@dataclass(slots=True, unsafe_hash=True)
class Finding:
    id: str
    layer: str
    kind: str
    confidence: str
    subject: dict
    evidence: dict
    # `subject` as compact, key-sorted JSON, which orders findings of one layer and
    # kind; make_finding fills it in, and sort_key encodes the subject when it is empty
    subject_json: str = field(default="", init=False, compare=False, repr=False)

    def __reduce__(self):
        # pickled as one call, with no state dict per finding: a log scan's
        # workers send back tens of thousands
        return _build, (self.id, self.layer, self.kind, self.confidence, self.subject,
                           self.evidence, self.subject_json)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "layer": self.layer,
            "kind": self.kind,
            "confidence": self.confidence,
            "subject": self.subject,
            "evidence": self.evidence,
        }

    @property
    def sort_key(self):
        return (
            CONFIDENCE_RANK.get(self.confidence, 9),
            self.layer,
            self.kind,
            self.subject_json or _ENCODER.encode(self.subject),
            self.id,
        )


def _build(id: str, layer: str, kind: str, confidence: str, subject: dict, evidence: dict,
              subject_json: str) -> Finding:
    """A Finding, its `subject_json` filled in."""
    finding = Finding(id, layer, kind, confidence, subject, evidence)
    finding.subject_json = subject_json
    return finding


def make_finding(layer: str, kind: str, confidence: str, subject: dict, evidence: dict) -> Finding:
    subject_json = _compact(subject)
    # the id hashes {"layer", "kind", "subject", "evidence"} as compact, key-sorted JSON
    blob = (f'{{"evidence":{_compact(evidence)},"kind":{encode_basestring_ascii(kind)},'
            f'"layer":{encode_basestring_ascii(layer)},"subject":{subject_json}}}')
    return _build(hashlib.sha256(blob.encode("ascii")).digest()[:16].hex(), layer, kind,
                     confidence, subject, evidence, subject_json)


def _artifact_subject(finding, origin: str, functions) -> dict:
    """The subject of a bytecode or source finding; origin names the analyzed artifact."""
    return {"origin": origin, "contract": finding.contract, "event": finding.event,
            "topic0": _topic_hex(finding.topic0), "functions": list(functions)}


def from_bytecode(finding, origin: str) -> Finding:
    return make_finding(LAYER_BYTECODE, finding.kind, finding.confidence,
                        _artifact_subject(finding, origin, finding.entries),
                        {"condition": finding.condition, "paths": list(finding.paths)})


def from_source(finding, origin: str) -> Finding:
    return make_finding(LAYER_SOURCE, finding.kind, finding.confidence,
                        _artifact_subject(finding, origin, finding.functions), finding.detail)


def from_txlog(finding) -> Finding:
    evidence = finding.detail
    if finding.check is not None:
        evidence = {"check": finding.check, **evidence}
    return make_finding(
        LAYER_LOGS,
        finding.kind,
        finding.confidence,
        subject={
            "txHash": finding.tx_hash,
            "blockNumber": finding.block_number,
            "logIndex": finding.log_index,
            "address": finding.address,
            "project": finding.project,
            "event": finding.event,
        },
        evidence=evidence,
    )
