"""The former log-record parser, kept as a test oracle.

Each field is checked for presence, then validity, in a fixed order,
with one `fullmatch` per hex field; the first failing check names the
error.  It builds the same `LogRecord` the package's `parse_record`
builds, `lineno` and `topic0` included.
"""

from __future__ import annotations

import re

from phantomscan.txscan.records import LogRecord, RecordError

# fullmatch: `$` would also accept a final newline
_HEX32 = re.compile(r"0x[0-9a-fA-F]{64}").fullmatch
_HEX20 = re.compile(r"0x[0-9a-fA-F]{40}").fullmatch
_HEX4 = re.compile(r"0x[0-9a-fA-F]{8}").fullmatch
_HEX = re.compile(r"0x[0-9a-fA-F]*").fullmatch
_MISSING = object()


def _invalid(lineno: int, name: str, value, message: str) -> RecordError:
    """The error for field ``name``: missing, or present with a bad ``value``."""
    if value is _MISSING:
        return RecordError(lineno, f"missing field '{name}'")
    return RecordError(lineno, message)


def reference_parse_record(obj: dict, lineno: int = 0) -> LogRecord:
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

    return LogRecord(
        tx_hash=tx_hash.lower(),
        log_index=log_index,
        block_number=block_number,
        address=address.lower(),
        topics=tuple(map(str.lower, topics)),
        data=data.lower(),
        tx_from=tx_from.lower(),
        tx_to=tx_to.lower() if tx_to else None,
        tx_selector=selector.lower() if selector else None,
        lineno=lineno,
        topic0=int(topics[0], 16) if topics else None,
    )
