"""The former log scanner, kept as a test oracle.

One pass, one record at a time: the per-log rule checks and the spoofing
check emit as each record arrives, judged by the approvals seen so far,
and a transaction's blend check runs when the stream moves past it.  It
defers nothing, so it shares no control flow with the package's fold,
whose `scan_records`, streaming `Scanner` and joined byte ranges must
each give exactly its findings, in its order.
"""

from __future__ import annotations

from typing import Iterable

from phantomscan.txscan.abi import DecodeError, decode_event
from phantomscan.txscan.records import LogRecord
from phantomscan.txscan.rules import Ruleset
from phantomscan.txscan.scan import (
    APPROVAL_FOR_ALL_TOPIC,
    APPROVAL_TOPIC,
    CONFIRMED,
    POTENTIAL,
    TRANSFER_TOPIC,
    ZERO_ADDRESS,
    TxFinding,
    _blend_check,
    _data_word,
    _finding,
    _out_of_order,
    _topic_address,
)


class ReferenceScanner:
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
            raise _out_of_order(record, self._cursor, record.lineno)
        self._cursor = pos
        if not self._started:
            self._start(record)
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

    def _start(self, record: LogRecord) -> None:
        """Take `record` as the stream's first."""
        self._started = True
        if self.spoofing and record.block_number > 0:
            self.caveats.append(
                f"scan starts at block {record.block_number}; approvals granted "
                "earlier are invisible, so spoofing findings may include "
                "transfers that were in fact authorized"
            )

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
        return _blend_check(self.ruleset, logs)

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
        if self._approved((record.address, from_addr, record.tx_from)):
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

    def _approved(self, key: tuple[str, str, str]) -> bool:
        """Whether the approvals seen so far let the spender of `key`, a
        (token, owner, spender), move the owner's tokens."""
        return bool(self._allowance.get(key) or self._operator.get(key))

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


def reference_scan_records(
    records: Iterable[LogRecord],
    ruleset: Ruleset | None = None,
    spoofing: bool = True,
) -> tuple[list[TxFinding], list[str]]:
    """Scan a full record stream.  Returns the findings, in the order the
    scanner emits them, and the caveats."""
    scanner = ReferenceScanner(ruleset, spoofing=spoofing)
    findings: list[TxFinding] = []
    for record in records:
        findings.extend(scanner.feed(record))
    findings.extend(scanner.finish())
    return findings, list(scanner.caveats)
