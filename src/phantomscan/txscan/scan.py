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

A corpus file can also be scanned in byte ranges, each apart from the
others (`scan_range`, in any order, process or executor), and the
ranges' scans joined in file order (`join_ranges`).  The only state one
record passes to the next is the order cursor, the open transaction, the
approval maps and the stream's first record, and each of these joins
exactly, as in a parallel prefix scan: the join gives the findings,
caveats and first error of one pass over the whole file, in its order.
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
    return RecordError(
        lineno,
        f"records out of order: block {record.block_number} log {record.log_index} "
        f"after block {cursor[0]} log {cursor[1]}",
    )


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


# -- byte ranges of a corpus file ------------------------------------------


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
    # once a second transaction starts (None: it runs to the range's end)
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


class _RangeScanner(Scanner):
    """A Scanner over one range of a stream.  It leaves to the join the
    blend checks of the range's first and last transactions, and decides a
    transfer's spoofing check only if the range itself set the approval
    entries that could authorize it."""

    def __init__(self, scan: RangeScan, ruleset: Ruleset | None, spoofing: bool):
        super().__init__(ruleset, spoofing)
        self.scan = scan
        self.caveats = scan.caveats
        self._allowance = scan.allowance
        self._operator = scan.operator
        self._undecided: tuple | None = None

    def feed(self, record: LogRecord) -> list[TxFinding]:
        scan = self.scan
        if scan.first is None:
            scan.first = record
        out = super().feed(record)
        scan.findings += out
        if self._undecided is not None:  # the spoofing finding, last of `out`
            scan.candidates.append((len(scan.findings) - 1, *self._undecided))
            self._undecided = None
        return out

    def finish(self) -> list[TxFinding]:
        if self._finished:
            raise RuntimeError("scanner already finished")
        self._finished = True
        scan = self.scan
        if scan.head_end is None:
            scan.head = self._tx_logs
        else:
            scan.tail = self._tx_logs
        scan.last = self._cursor
        self._tx_logs = []
        return []

    def _flush_tx(self) -> list[TxFinding]:
        scan = self.scan
        if scan.head_end is not None:
            return super()._flush_tx()
        scan.head, self._tx_logs = self._tx_logs, []
        scan.head_end = len(scan.findings)  # `feed` adds this record's findings after
        return []

    def _approved(self, key: tuple[str, str, str]) -> bool:
        allowed = self._allowance.get(key)
        operator = self._operator.get(key)
        if allowed or operator:
            return True
        if allowed is None or operator is None:
            self._undecided = (key, allowed is None, operator is None)
        return False


def scan_range(path: str | Path, start: int = 0, end: int | None = None,
               ruleset: Ruleset | None = None, spoofing: bool = True) -> RangeScan:
    """Scan bytes [start, end) of the corpus file at `path` (end None: to
    the end of the file).  Both must be line boundaries, as `line_ranges`
    cuts them.  A record or input error ends the range's scan and is kept
    in its `error`; anything else is raised."""
    scan = RangeScan()
    scanner = _RangeScanner(scan, ruleset, spoofing)

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
                    scanner._start(first)
                fh.seek(start)
            for record in read_records(lines(fh)):
                scanner.feed(record)
        scanner.finish()
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
