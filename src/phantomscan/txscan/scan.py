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

There is one scanner: a fold of records into a `RangeScan`.  The only
state one record passes to the next is the order cursor, the open
transaction, the approval maps and the stream's first record, and each
joins exactly, as in a parallel prefix scan.  So `scan_range` folds one
byte range of a corpus file apart from the others (in any order, process
or executor), and `join_ranges` joins the ranges' folds in file order
into the findings, caveats and first error of one pass.  `scan_records`
is the join of one range, the whole stream, and the streaming `Scanner`
is a view of a fold that starts the stream: it returns each finding once
it is settled and keeps no finding it has returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .abi import DecodeError, decode_event
from .records import LogRecord, RecordError, read_records
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


def _out_of_order(record: LogRecord, cursor: tuple[int, int], lineno: int) -> RecordError:
    return RecordError(lineno, f"records out of order: block {record.block_number} log "
                               f"{record.log_index} after block {cursor[0]} log {cursor[1]}")


def _topic_address(topic_hex: str) -> str:
    return "0x" + topic_hex[-40:]


def _data_word(data_hex: str, index: int) -> int | None:
    raw = data_hex[2:] if data_hex.startswith("0x") else data_hex
    chunk = raw[index * 64 : (index + 1) * 64]
    return int(chunk, 16) if len(chunk) == 64 else None


@dataclass(slots=True)
class RangeScan:
    """The scan of one byte range of a corpus: its own findings, and what
    `join_ranges` needs to settle the rest with the ranges before it.
    Line numbers count from the range's first line."""

    findings: list = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)  # from the stream's first record
    lines: int = 0  # lines read
    first: LogRecord | None = None
    last: tuple[int, int] | None = None  # (block, log index) of the last record
    # the logs of the range's first transaction, which may have begun in an
    # earlier range, and the index in `findings` where its blend check goes
    # once a second transaction starts (None: it runs to the range's end);
    # a range that starts the stream has no such transaction, and index 0
    head: list[LogRecord] = field(default_factory=list)
    head_end: int | None = None
    tail: list[LogRecord] = field(default_factory=list)  # the last one's, when not the first
    # spoofing findings an earlier range's approval may cancel: (index in
    # `findings`, (token, owner, spender), allowance unset here, operator unset here)
    candidates: list[tuple[int, tuple[str, str, str], bool, bool]] = field(default_factory=list)
    allowance: dict = field(default_factory=dict)  # the approval state the range set
    operator: dict = field(default_factory=dict)
    # the first error: ("record", line, message), ("input", 0, message) for an
    # OSError, or ("internal", 0, message) for a failure of the scan itself
    error: tuple[str, int, str] | None = None


class _Fold:
    """The log scanner: a fold of records, sorted by (blockNumber, logIndex)
    with each transaction's logs contiguous, into a `RangeScan`.

    A record's rule and spoofing checks run when it arrives, and a
    transaction's blend check when the fold moves past it.  The join
    settles what an earlier range could change (the first transaction's
    blend check, and a spoofing finding whose approval entries the fold
    has not set), unless the fold starts the stream, and the last
    transaction's blend check, which a later range may continue.
    """

    def __init__(self, ruleset: Ruleset | None, spoofing: bool, starts_stream: bool):
        self.ruleset = ruleset or Ruleset()
        self.spoofing = spoofing
        self.starts_stream = starts_stream
        self.scan = RangeScan(head_end=0 if starts_stream else None)
        self._tx_logs: list[LogRecord] = []

    def feed(self, record: LogRecord) -> None:
        scan = self.scan
        pos = (record.block_number, record.log_index)
        if scan.last is not None and pos <= scan.last:
            raise _out_of_order(record, scan.last, record.lineno)
        scan.last = pos
        if scan.first is None:
            scan.first = record
            if self.starts_stream:
                self.caveat_from(record)
        if self._tx_logs and self._tx_logs[0].tx_hash != record.tx_hash:
            logs, self._tx_logs = self._tx_logs, []
            if scan.head_end is None:
                scan.head, scan.head_end = logs, len(scan.findings)
            else:
                scan.findings += _blend_check(self.ruleset, logs)
        self._tx_logs.append(record)
        scan.findings += self._rule_checks(record)
        if self.spoofing:
            self._spoof_check(record)
            self._fold_approval(record)

    def finish(self) -> RangeScan:
        """The scan, with the open transaction's logs left to the join."""
        scan = self.scan
        if scan.head_end is None:
            scan.head = self._tx_logs
        else:
            scan.tail = self._tx_logs
        self._tx_logs = []
        return scan

    def caveat_from(self, first: LogRecord) -> None:
        """Take `first` as the stream's first record."""
        if self.spoofing and first.block_number > 0:
            self.scan.caveats.append(
                f"scan starts at block {first.block_number}; approvals granted "
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

    # -- transfer spoofing --------------------------------------------

    def _spoof_check(self, record: LogRecord) -> None:
        if record.topic0 != TRANSFER_TOPIC:
            return
        if len(record.topics) == 3:
            standard = "erc20"
            detail_extra = {"value": _data_word(record.data, 0)}
        elif len(record.topics) == 4:
            standard = "erc721"
            detail_extra = {"tokenId": int(record.topics[3], 16)}
        else:
            return
        from_addr = _topic_address(record.topics[1])
        to_addr = _topic_address(record.topics[2])
        if ZERO_ADDRESS in (from_addr, to_addr) or record.tx_from == from_addr:
            return
        scan = self.scan
        # whether the approvals seen so far let the sender move the owner's tokens
        key = (record.address, from_addr, record.tx_from)
        allowed, operator = scan.allowance.get(key), scan.operator.get(key)
        if allowed or operator:
            return
        detail = {"standard": standard, "from": from_addr, "to": to_addr,
                  "txFrom": record.tx_from, **detail_extra}
        if scan.caveats:
            detail["approval_window_incomplete"] = True
        if not self.starts_stream and (allowed is None or operator is None):
            # an approval in an earlier range may have authorized it
            scan.candidates.append((len(scan.findings), key, allowed is None, operator is None))
        scan.findings.append(_finding(record, kind="TRANSFER_SPOOFING", check=None, project=None,
                                      event="Transfer", confidence=POTENTIAL, detail=detail))

    def _fold_approval(self, record: LogRecord) -> None:
        """Record an allowance or operator flag, granted or revoked."""
        if record.topic0 == APPROVAL_TOPIC:
            approvals = self.scan.allowance
        elif record.topic0 == APPROVAL_FOR_ALL_TOPIC:
            approvals = self.scan.operator
        else:
            return
        word = _data_word(record.data, 0)
        if len(record.topics) == 3 and word is not None:
            owner, spender = _topic_address(record.topics[1]), _topic_address(record.topics[2])
            approvals[(record.address, owner, spender)] = word != 0


def _blend_check(ruleset: Ruleset, logs: list[LogRecord]) -> list[TxFinding]:
    """The blended-event findings of one transaction's logs."""
    out: list[TxFinding] = []
    for proj in ruleset.projects:
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


def scan_records(records: Iterable[LogRecord], ruleset: Ruleset | None = None,
                 spoofing: bool = True) -> tuple[list[TxFinding], list[str]]:
    """Scan a full record stream, the join of one range: the findings, in
    the order the scanner emits them, and the caveats."""
    fold = _Fold(ruleset, spoofing, starts_stream=True)
    for record in records:
        fold.feed(record)
    return join_ranges([fold.finish()], fold.ruleset)


class Scanner:
    """Streaming log scanner.  feed() each record in order, then finish().

    A view of a fold that starts the stream, so no finding waits on an
    earlier range: each call returns the findings it settles, in the order
    of `scan_records`, and the scanner keeps no finding it has returned."""

    def __init__(self, ruleset: Ruleset | None = None, spoofing: bool = True):
        self._fold = _Fold(ruleset, spoofing, starts_stream=True)
        self.caveats = self._fold.scan.caveats
        self._finished = False

    def feed(self, record: LogRecord) -> list[TxFinding]:
        if self._finished:
            raise RuntimeError("scanner already finished")
        self._fold.feed(record)
        scan = self._fold.scan
        found, scan.findings = scan.findings, []
        return found

    def finish(self) -> list[TxFinding]:
        if self._finished:
            raise RuntimeError("scanner already finished")
        self._finished = True
        return join_ranges([self._fold.finish()], self._fold.ruleset)[0]


# -- byte ranges of a corpus file ------------------------------------------


def scan_range(path: str | Path, start: int = 0, end: int | None = None,
               ruleset: Ruleset | None = None, spoofing: bool = True) -> RangeScan:
    """Scan bytes [start, end) of the corpus file at `path` (end None: to
    the end of the file).  Both must be line boundaries, as `line_ranges`
    cuts them.  A record or input error ends the range's scan and is kept
    in its `error`; anything else is raised."""
    fold = _Fold(ruleset, spoofing, starts_stream=not start)
    scan = fold.scan

    def lines(fh):
        left = end - start if end is not None else None
        for line in fh:
            scan.lines += 1
            yield line
            if left is not None:
                left -= len(line)
                if left <= 0:
                    return

    try:
        with open(path, "rb") as fh:
            if start:
                try:  # the stream's first record sets the caveats of every range
                    first = next(read_records(fh), None)
                except RecordError:
                    first = None  # the scan stops at or before this line
                if first is not None:
                    fold.caveat_from(first)
                fh.seek(start)
            for record in read_records(lines(fh)):
                fold.feed(record)
        fold.finish()
    except RecordError as exc:
        scan.error = ("record", exc.lineno, exc.reason)
    except OSError as exc:
        scan.error = ("input", 0, str(exc))
    return scan


def join_ranges(scans: Iterable[RangeScan], ruleset: Ruleset | None = None,
                wrap: Callable = lambda finding: finding) -> tuple[list, list[str]]:
    """The findings and caveats of one pass over a corpus, from the scans
    of its byte ranges in file order, with `wrap` applied to each finding
    made here (the blend checks of transactions at the ranges' edges) as
    the ranges' own findings already are, if at all.  Raises the first
    error in file order, with its line counted from the start of the file;
    the scans after it are not read."""
    ruleset = ruleset or Ruleset()
    findings: list = []
    caveats: list[str] = []
    allowance: dict = {}
    operator: dict = {}
    open_tx: list[LogRecord] = []  # the logs of the transaction open at the cut
    cursor: tuple[int, int] | None = None
    lineno = 0  # lines before the range

    for scan in scans:
        first = scan.first
        if first is not None:
            if cursor is None:
                caveats = scan.caveats
            elif (first.block_number, first.log_index) <= cursor:
                raise _out_of_order(first, cursor, lineno + first.lineno)
        if scan.error is not None:
            kind, line, message = scan.error
            if kind == "record":
                raise RecordError(lineno + line, message)
            raise (OSError if kind == "input" else RuntimeError)(message)
        lineno += scan.lines
        if first is None:
            continue

        dropped = {i for i, key, allowance_unset, operator_unset in scan.candidates
                   if allowance_unset and allowance.get(key)
                   or operator_unset and operator.get(key)}

        def part(lo: int, hi: int | None = None) -> list:
            found = scan.findings[lo:hi]
            return [f for i, f in enumerate(found, lo) if i not in dropped] if dropped else found

        if open_tx and open_tx[0].tx_hash != first.tx_hash:
            findings += map(wrap, _blend_check(ruleset, open_tx))
            open_tx = []
        open_tx = open_tx + scan.head
        if scan.head_end is None:
            findings += part(0)
        else:
            findings += part(0, scan.head_end)
            findings += map(wrap, _blend_check(ruleset, open_tx))
            findings += part(scan.head_end)
            open_tx = scan.tail
        cursor = scan.last
        allowance.update(scan.allowance)
        operator.update(scan.operator)
    findings += map(wrap, _blend_check(ruleset, open_tx))
    return findings, list(caveats)
