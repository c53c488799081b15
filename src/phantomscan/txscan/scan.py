"""Rule and heuristic checks over an ordered stream of event logs.

The scanner consumes records sorted by (blockNumber, logIndex) and
produces findings of three kinds:

RULE_VIOLATION, against a project ruleset:
  emitter-authenticity   a declared event came from an address outside
                         the project's authentic emitter set
  undeclared-signature   an authentic emitter logged a topic that is
                         not in its declared event surface (rulesets
                         must therefore enumerate that surface in full)
  unexpected-selector    a declared event was emitted by a transaction
                         whose entry selector is outside the rule's
                         expected set (only when the rule declares one)
  predicate              a decoded parameter broke a declared bound
                         (only when the rule declares predicates)
  malformed-data         the log payload does not decode against the
                         declared parameter layout

BLENDED_EVENT: within one transaction, a project's declared events were
emitted both by authentic contracts and by an outside address.  The
mixture is what makes the foreign copy credible to an indexer that
filters on signature topics alone, so it is reported per transaction
and project on top of the per-log emitter violation.

TRANSFER_SPOOFING: a token Transfer whose `from` address neither signed
the transaction nor granted the sender an allowance or operator flag
seen earlier in the stream.  Mints and burns are exempt.  Approval
state folds over the stream from its first record, so a scan that does
not start at block 0 carries a caveat that earlier approvals are
invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .abi import DecodeError, decode_event
from .records import LogRecord, RecordError
from .rules import Ruleset, event_topic0

TRANSFER_TOPIC = event_topic0("Transfer", ["address", "address", "uint256"])
APPROVAL_TOPIC = event_topic0("Approval", ["address", "address", "uint256"])
APPROVAL_FOR_ALL_TOPIC = event_topic0("ApprovalForAll", ["address", "address", "bool"])

ZERO_ADDRESS = "0x" + "00" * 20

CONFIRMED = "CONFIRMED"
POTENTIAL = "POTENTIAL"


@dataclass(slots=True, unsafe_hash=True)
class TxFinding:
    kind: str
    check: str | None
    project: str | None
    tx_hash: str
    block_number: int
    log_index: int
    address: str
    event: str | None
    confidence: str
    detail: dict = field(default_factory=dict, compare=False)


def _finding(record: LogRecord, *, kind: str, check: str | None, project: str | None,
             event: str | None, confidence: str, detail: dict) -> TxFinding:
    """A finding located at ``record``."""
    return TxFinding(kind, check, project, record.tx_hash, record.block_number,
                     record.log_index, record.address, event, confidence, detail)


def _topic_address(topic_hex: str) -> str:
    return "0x" + topic_hex[-40:]


def _data_word(data_hex: str, index: int) -> int | None:
    raw = data_hex[2:] if data_hex.startswith("0x") else data_hex
    chunk = raw[index * 64 : (index + 1) * 64]
    if len(chunk) != 64:
        return None
    return int(chunk, 16)


class Scanner:
    """Streaming log scanner.  feed() each record in order, then finish().

    Per-log rule checks and the spoofing heuristic emit as soon as the
    offending record arrives; blended-event findings need the whole
    transaction and flush when the stream moves past it.  Records must
    arrive sorted by (blockNumber, logIndex); logs of one transaction
    must be contiguous.
    """

    def __init__(self, ruleset: Ruleset | None = None, spoofing: bool = True):
        self.ruleset = ruleset or Ruleset()
        self.spoofing = spoofing
        self.caveats: list[str] = []
        self._allowance: dict[tuple[str, str, str], bool] = {}
        self._operator: dict[tuple[str, str, str], bool] = {}
        self._tx_logs: list[LogRecord] = []
        self._cursor: tuple[int, int] | None = None
        self._started = False
        self._finished = False

    # -- streaming interface ------------------------------------------

    def feed(self, record: LogRecord) -> list[TxFinding]:
        if self._finished:
            raise RuntimeError("scanner already finished")
        pos = (record.block_number, record.log_index)
        if self._cursor is not None and pos <= self._cursor:
            raise RecordError(
                record.lineno,
                f"records out of order: block {record.block_number} log {record.log_index} "
                f"after block {self._cursor[0]} log {self._cursor[1]}",
            )
        self._cursor = pos
        if not self._started:
            self._started = True
            if self.spoofing and record.block_number > 0:
                self.caveats.append(
                    f"scan starts at block {record.block_number}; approvals granted "
                    "earlier are invisible, so spoofing findings may include "
                    "transfers that were in fact authorized"
                )
        out: list[TxFinding] = []
        if self._tx_logs and self._tx_logs[0].tx_hash != record.tx_hash:
            out.extend(self._flush_tx())
        self._tx_logs.append(record)

        out.extend(self._rule_checks(record))
        if self.spoofing:
            out.extend(self._spoof_check(record))
            self._fold_approval(record)
        return out

    def finish(self) -> list[TxFinding]:
        if self._finished:
            raise RuntimeError("scanner already finished")
        self._finished = True
        return self._flush_tx()

    # -- per-log rule checks ------------------------------------------

    def _rule_checks(self, record: LogRecord) -> list[TxFinding]:
        topic0 = record.topic0
        out: list[TxFinding] = []
        watched = self.ruleset.watched.get(topic0, ()) if topic0 is not None else ()

        for proj, rule in watched:
            if record.address not in proj.authentic_emitters:
                out.append(
                    _finding(
                        record,
                        kind="RULE_VIOLATION",
                        check="emitter-authenticity",
                        project=proj.name,
                        event=rule.name,
                        confidence=CONFIRMED,
                        detail={
                            "signature": rule.signature,
                            "authentic_emitters": proj.emitters_sorted,
                        },
                    )
                )
                # behavior rules describe the real contract only
                continue
            out.extend(self._behavior_checks(record, proj, rule))

        # an authentic emitter logging outside its declared surface
        for proj in self.ruleset.emitters.get(record.address, ()):
            if topic0 not in proj.rules_by_topic:
                out.append(
                    _finding(
                        record,
                        kind="RULE_VIOLATION",
                        check="undeclared-signature",
                        project=proj.name,
                        event=None,
                        confidence=CONFIRMED,
                        detail={"topic0": f"{topic0:#066x}" if topic0 is not None else None},
                    )
                )
        return out

    def _behavior_checks(self, record: LogRecord, proj, rule) -> list[TxFinding]:
        out: list[TxFinding] = []
        if rule.expected_selectors is not None and record.tx_selector not in rule.expected_selectors:
            out.append(
                _finding(
                    record,
                    kind="RULE_VIOLATION",
                    check="unexpected-selector",
                    project=proj.name,
                    event=rule.name,
                    confidence=CONFIRMED,
                    detail={
                        "selector": record.tx_selector,
                        "expected": sorted(rule.expected_selectors),
                    },
                )
            )
        if not rule.predicates:
            return out
        try:
            decoded = decode_event(rule.params, record.topics, record.data)
        except DecodeError as exc:
            out.append(
                _finding(
                    record,
                    kind="RULE_VIOLATION",
                    check="malformed-data",
                    project=proj.name,
                    event=rule.name,
                    confidence=CONFIRMED,
                    detail={"error": str(exc)},
                )
            )
            return out
        for pred in rule.predicates:
            if not pred.holds(decoded[pred.param]):
                got = decoded[pred.param]
                out.append(
                    _finding(
                        record,
                        kind="RULE_VIOLATION",
                        check="predicate",
                        project=proj.name,
                        event=rule.name,
                        confidence=CONFIRMED,
                        detail={
                            "param": pred.param,
                            "op": pred.op,
                            "bound": pred.value,
                            "got": got.hex() if isinstance(got, bytes) else got,
                        },
                    )
                )
        return out

    # -- per-transaction blend check ----------------------------------

    def _flush_tx(self) -> list[TxFinding]:
        logs, self._tx_logs = self._tx_logs, []
        if not logs:
            return []
        out: list[TxFinding] = []
        for proj in self.ruleset.projects:
            authentic: list[LogRecord] = []
            foreign: list[LogRecord] = []
            for rec in logs:
                topic0 = rec.topic0
                if topic0 not in proj.rules_by_topic:
                    continue
                (authentic if rec.address in proj.authentic_emitters else foreign).append(rec)
            if authentic and foreign:
                first = foreign[0]
                out.append(
                    _finding(
                        first,
                        kind="BLENDED_EVENT",
                        check=None,
                        project=proj.name,
                        event=proj.rules_by_topic[first.topic0].name,
                        confidence=POTENTIAL,
                        detail={
                            "authentic_logs": [r.log_index for r in authentic],
                            "foreign_logs": [r.log_index for r in foreign],
                            "foreign_emitters": sorted({r.address for r in foreign}),
                        },
                    )
                )
        return out

    # -- transfer spoofing --------------------------------------------

    def _spoof_check(self, record: LogRecord) -> list[TxFinding]:
        if record.topic0 != TRANSFER_TOPIC:
            return []
        if len(record.topics) == 3:
            standard = "erc20"
            detail_extra = {"value": _data_word(record.data, 0)}
        elif len(record.topics) == 4:
            standard = "erc721"
            detail_extra = {"tokenId": int(record.topics[3], 16)}
        else:
            return []
        from_addr = _topic_address(record.topics[1])
        to_addr = _topic_address(record.topics[2])
        if from_addr == ZERO_ADDRESS or to_addr == ZERO_ADDRESS:
            return []
        if record.tx_from == from_addr:
            return []
        token = record.address
        if self._allowance.get((token, from_addr, record.tx_from)):
            return []
        if self._operator.get((token, from_addr, record.tx_from)):
            return []
        detail = {
            "standard": standard,
            "from": from_addr,
            "to": to_addr,
            "txFrom": record.tx_from,
            **detail_extra,
        }
        if self.caveats:
            detail["approval_window_incomplete"] = True
        return [
            _finding(
                record,
                kind="TRANSFER_SPOOFING",
                check=None,
                project=None,
                event="Transfer",
                confidence=POTENTIAL,
                detail=detail,
            )
        ]

    def _fold_approval(self, record: LogRecord) -> None:
        if record.topic0 == APPROVAL_TOPIC and len(record.topics) == 3:
            value = _data_word(record.data, 0)
            if value is None:
                return
            owner = _topic_address(record.topics[1])
            spender = _topic_address(record.topics[2])
            self._allowance[(record.address, owner, spender)] = value > 0
        elif record.topic0 == APPROVAL_FOR_ALL_TOPIC and len(record.topics) == 3:
            flag = _data_word(record.data, 0)
            if flag is None:
                return
            owner = _topic_address(record.topics[1])
            operator = _topic_address(record.topics[2])
            self._operator[(record.address, owner, operator)] = flag != 0


def scan_records(
    records: Iterable[LogRecord],
    ruleset: Ruleset | None = None,
    spoofing: bool = True,
) -> tuple[list[TxFinding], list[str]]:
    """Scan a full record stream.  Returns the findings, in the order the
    scanner emits them, and the caveats."""
    scanner = Scanner(ruleset, spoofing=spoofing)
    findings: list[TxFinding] = []
    for record in records:
        findings.extend(scanner.feed(record))
    findings.extend(scanner.finish())
    return findings, list(scanner.caveats)
