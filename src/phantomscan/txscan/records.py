"""Transaction log records: one JSON object per line.

Required fields: txHash, logIndex, blockNumber, address, topics, data,
txFrom, txTo, txSelector.  txSelector may be null for plain value
transfers.  Hex strings are normalized to lowercase; topics are the raw
32-byte log topics including the signature topic at position 0.
"""

from __future__ import annotations

import json
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


class RecordError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.reason = message
        super().__init__(f"line {lineno}: {message}")


# fullmatch: `$` would also accept a final newline
_HEX32 = re.compile(r"0x[0-9a-fA-F]{64}").fullmatch
_HEX20 = re.compile(r"0x[0-9a-fA-F]{40}").fullmatch
_HEX4 = re.compile(r"0x[0-9a-fA-F]{8}").fullmatch
_HEX = re.compile(r"0x[0-9a-fA-F]*").fullmatch
_MISSING = object()


@dataclass(slots=True, unsafe_hash=True)
class LogRecord:
    tx_hash: str
    log_index: int
    block_number: int
    address: str
    topics: tuple[str, ...]
    data: str
    tx_from: str
    tx_to: str | None
    tx_selector: str | None
    lineno: int = field(default=0, compare=False, repr=False)  # 0 when not read from a file
    # the signature topic, topics[0] as an int
    topic0: int | None = field(kw_only=True, compare=False, repr=False)


def _invalid(lineno: int, name: str, value, message: str) -> RecordError:
    """The error for field ``name``: missing, or present with a bad ``value``."""
    if value is _MISSING:
        return RecordError(lineno, f"missing field '{name}'")
    return RecordError(lineno, message)


def _check_in_order(obj: dict, lineno: int) -> None:
    """Raise the first error of an invalid record: each field is checked for
    presence, then validity, in this order.  Return for a valid one."""
    get = obj.get
    tx_hash = get("txHash", _MISSING)
    if not isinstance(tx_hash, str) or not _HEX32(tx_hash):
        raise _invalid(lineno, "txHash", tx_hash, "txHash must be a 32-byte hex string")
    address = get("address", _MISSING)
    if not isinstance(address, str) or not _HEX20(address):
        raise _invalid(lineno, "address", address, "address must be a 20-byte hex string")
    tx_from = get("txFrom", _MISSING)
    if not isinstance(tx_from, str) or not _HEX20(tx_from):
        raise _invalid(lineno, "txFrom", tx_from, "txFrom must be a 20-byte hex string")
    tx_to = get("txTo", _MISSING)
    if tx_to is not None and (not isinstance(tx_to, str) or not _HEX20(tx_to)):
        raise _invalid(lineno, "txTo", tx_to, "txTo must be a 20-byte hex string or null")
    selector = get("txSelector", _MISSING)
    if selector is not None and (not isinstance(selector, str) or not _HEX4(selector)):
        raise _invalid(lineno, "txSelector", selector,
                       "txSelector must be a 4-byte hex string or null")
    log_index = get("logIndex", _MISSING)
    block_number = get("blockNumber", _MISSING)
    for name, v in (("logIndex", log_index), ("blockNumber", block_number)):
        if v is _MISSING:
            raise RecordError(lineno, f"missing field '{name}'")
    for name, v in (("logIndex", log_index), ("blockNumber", block_number)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise RecordError(lineno, f"{name} must be a non-negative integer")
    topics = get("topics", _MISSING)
    if not isinstance(topics, list) or not 0 <= len(topics) <= 4:
        raise _invalid(lineno, "topics", topics, "topics must be a list of 0 to 4 entries")
    for t in topics:
        if not isinstance(t, str) or not _HEX32(t):
            raise RecordError(lineno, "every topic must be a 32-byte hex string")
    data = get("data", _MISSING)
    if not isinstance(data, str) or not _HEX(data) or len(data) % 2:
        raise _invalid(lineno, "data", data, "data must be an even-length hex string")


# A record's string fields joined by "\n": txHash, address, txFrom, txTo and
# txSelector ("" when null), data, then each topic.  One pattern per layout
# (topic count and null fields) checks them all; no segment of a pattern takes
# "\n", and a pattern has a segment per joined field, so a match splits the text
# at the joins only.  One pattern for every layout would let a field holding
# "\n" shift the fields after it by a slot.
_LAYOUTS: list = [None] * 20  # topic count + 5 if txTo is null + 10 if txSelector is null


def _layout(index: int):
    """The `fullmatch` of layout `index`, compiled on first use."""
    check = _LAYOUTS[index]
    if check is None:
        to = "" if index % 10 >= 5 else "0x[0-9a-fA-F]{40}"
        selector = "" if index >= 10 else "0x[0-9a-fA-F]{8}"
        topics = ["0x[0-9a-fA-F]{64}"] * (index % 5)
        check = _LAYOUTS[index] = re.compile("\n".join(
            ("0x[0-9a-fA-F]{64}", "0x[0-9a-fA-F]{40}", "0x[0-9a-fA-F]{40}", to, selector,
             "0x[0-9a-fA-F]*", *topics))).fullmatch
    return check


def parse_record(obj: dict, lineno: int = 0) -> LogRecord:
    get = obj.get
    tx_to = get("txTo", _MISSING)  # null, unlike a missing key, is valid
    selector = get("txSelector", _MISSING)
    log_index = get("logIndex")
    block_number = get("blockNumber")
    topics = get("topics")
    data = get("data")
    try:
        text = "\n".join((get("txHash"), get("address"), get("txFrom"), tx_to or "",
                          selector or "", data, *topics))
    except TypeError:  # a field that is not a string
        text = None
    if (text is None or type(log_index) is not int or log_index < 0
            or type(block_number) is not int or block_number < 0
            or type(topics) is not list or len(topics) > 4 or len(data) % 2
            or not _layout(len(topics) + 5 * (tx_to is None) + 10 * (selector is None))(text)):
        # invalid, or valid with a str, int or list subclass where JSON gives the type
        _check_in_order(obj, lineno)
    tx_hash, address, tx_from, tx_to, selector, data, *topics = text.lower().split("\n")
    return LogRecord(tx_hash, log_index, block_number, address, tuple(topics), data, tx_from,
                     tx_to or None, selector or None, lineno,
                     topic0=int(topics[0], 16) if topics else None)


def read_records(lines: Iterable[str | bytes]) -> Iterator[LogRecord]:
    """Parse JSONL content, skipping blank lines; a bytes line is decoded here."""
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode()
            except UnicodeDecodeError as exc:
                raise RecordError(lineno, f"invalid UTF-8: byte {line[exc.start]:#04x} at "
                                          f"offset {exc.start}: {exc.reason}") from exc
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(lineno, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # a number of more digits than int() converts
            raise RecordError(lineno, f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise RecordError(lineno, "invalid JSON: nested too deeply") from exc
        if not isinstance(obj, dict):
            raise RecordError(lineno, "each line must be a JSON object")
        yield parse_record(obj, lineno)


def read_records_file(path: str | Path) -> Iterator[LogRecord]:
    with open(path, "rb") as fh:  # lines end at LF; `read_records` decodes each
        yield from read_records(fh)


# The smallest byte range `line_ranges` makes.  On a 2-vCPU VM, `scan-logs`
# of a corpus cut into two ranges against one pass (median of 12 runs each):
# a 512 KiB corpus 10% slower, 1 MiB even, 2 MiB 4% faster, 4 MiB 15%
# faster.  The fork, the pickled result and the join cost about what
# scanning a 512 KiB range apart saves; 1 MiB leaves a margin.
MIN_RANGE_BYTES = 1 << 20


def line_ranges(path: str | Path, parts: int) -> list[tuple[int, int | None]]:
    """Cut the file at `path` at line boundaries into at most `parts` byte
    ranges (start, end) of about equal size, in file order; the last one's
    end is None, which reads to the end of the file.  There is at most one
    range per MIN_RANGE_BYTES of the file, so a file smaller than twice that,
    or one that is not regular (a pipe, a terminal), is one range."""
    info = os.stat(path)
    parts = min(parts, info.st_size // MIN_RANGE_BYTES) if stat.S_ISREG(info.st_mode) else 1
    starts = [0]
    if parts > 1:
        with open(path, "rb") as fh:
            for i in range(1, parts):
                target = info.st_size * i // parts
                if target <= starts[-1]:
                    continue  # a long line ran past it
                fh.seek(target - 1)
                fh.readline()  # to just after the first LF at or past target - 1
                if fh.tell() < info.st_size:
                    starts.append(fh.tell())
    return list(zip(starts, [*starts[1:], None]))
