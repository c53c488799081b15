"""Transaction log records: one JSON object per line.

Required fields: txHash, logIndex, blockNumber, address, topics, data,
txFrom, txTo, txSelector.  txSelector may be null for plain value
transfers.  Hex strings are normalized to lowercase; topics are the raw
32-byte log topics including the signature topic at position 0.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator


class RecordError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


_HEX32 = re.compile(r"^0x[0-9a-fA-F]{64}$")
_HEX20 = re.compile(r"^0x[0-9a-fA-F]{40}$")
_HEX4 = re.compile(r"^0x[0-9a-fA-F]{8}$")
_HEXDATA = re.compile(r"^0x(?:[0-9a-fA-F]{2})*$")


@dataclass(frozen=True)
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

    @cached_property
    def topic0(self) -> int | None:
        return int(self.topics[0], 16) if self.topics else None


def parse_record(obj: dict, lineno: int = 0) -> LogRecord:
    def need(field: str):
        if field not in obj:
            raise RecordError(lineno, f"missing field '{field}'")
        return obj[field]

    tx_hash = need("txHash")
    if not isinstance(tx_hash, str) or not _HEX32.match(tx_hash):
        raise RecordError(lineno, "txHash must be a 32-byte hex string")
    address = need("address")
    if not isinstance(address, str) or not _HEX20.match(address):
        raise RecordError(lineno, "address must be a 20-byte hex string")
    tx_from = need("txFrom")
    if not isinstance(tx_from, str) or not _HEX20.match(tx_from):
        raise RecordError(lineno, "txFrom must be a 20-byte hex string")
    tx_to = need("txTo")
    if tx_to is not None and (not isinstance(tx_to, str) or not _HEX20.match(tx_to)):
        raise RecordError(lineno, "txTo must be a 20-byte hex string or null")
    selector = need("txSelector")
    if selector is not None and (not isinstance(selector, str) or not _HEX4.match(selector)):
        raise RecordError(lineno, "txSelector must be a 4-byte hex string or null")
    log_index = need("logIndex")
    block_number = need("blockNumber")
    for name, v in (("logIndex", log_index), ("blockNumber", block_number)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise RecordError(lineno, f"{name} must be a non-negative integer")
    topics = need("topics")
    if not isinstance(topics, list) or not 0 <= len(topics) <= 4:
        raise RecordError(lineno, "topics must be a list of 0 to 4 entries")
    for t in topics:
        if not isinstance(t, str) or not _HEX32.match(t):
            raise RecordError(lineno, "every topic must be a 32-byte hex string")
    data = need("data")
    if not isinstance(data, str) or not _HEXDATA.match(data):
        raise RecordError(lineno, "data must be an even-length hex string")

    return LogRecord(
        tx_hash=tx_hash.lower(),
        log_index=log_index,
        block_number=block_number,
        address=address.lower(),
        topics=tuple(t.lower() for t in topics),
        data=data.lower(),
        tx_from=tx_from.lower(),
        tx_to=tx_to.lower() if tx_to else None,
        tx_selector=selector.lower() if selector else None,
        lineno=lineno,
    )


def read_records(lines: Iterable[str]) -> Iterator[LogRecord]:
    """Parse JSONL content, skipping blank lines."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(lineno, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise RecordError(lineno, "each line must be a JSON object")
        yield parse_record(obj, lineno)


def read_records_file(path: str | Path) -> Iterator[LogRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        yield from read_records(fh)
