"""Event-log corpus scanning: ruleset checks, blend detection, spoofing."""

from .abi import DecodeError, decode_data, decode_event, decode_topic
from .records import (
    LogRecord,
    RecordError,
    line_ranges,
    parse_record,
    read_records,
    read_records_file,
)
from .rules import (
    EventParam,
    EventRule,
    Predicate,
    Project,
    Ruleset,
    RulesError,
    event_topic0,
    load_rules,
    load_rules_file,
)
from .scan import (
    APPROVAL_FOR_ALL_TOPIC,
    APPROVAL_TOPIC,
    TRANSFER_TOPIC,
    RangeScan,
    Scanner,
    TxFinding,
    join_ranges,
    scan_range,
    scan_records,
)

__all__ = [
    "APPROVAL_FOR_ALL_TOPIC",
    "APPROVAL_TOPIC",
    "TRANSFER_TOPIC",
    "DecodeError",
    "EventParam",
    "EventRule",
    "LogRecord",
    "Predicate",
    "Project",
    "RangeScan",
    "RecordError",
    "Ruleset",
    "RulesError",
    "Scanner",
    "TxFinding",
    "decode_data",
    "decode_event",
    "decode_topic",
    "event_topic0",
    "join_ranges",
    "line_ranges",
    "load_rules",
    "load_rules_file",
    "parse_record",
    "read_records",
    "read_records_file",
    "scan_range",
    "scan_records",
]
