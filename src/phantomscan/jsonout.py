"""Indented, key-sorted JSON text: the one writer behind every `--json` report.

`dumps(value)` returns exactly `json.dumps(value, indent=2,
sort_keys=True)`.  The standard library uses its C encoder only when
`indent` is None; with an indent it falls back to a generator that
yields one small string per token and joins them all at the end, a few
million strings for a large scan report.  This writer builds each
container's text once from its items' texts instead, and it encodes
strings with the same C routine, so the bytes are the same.

`iterdumps(members)` yields the same text for an object in pieces: a
member whose value is an iterator is written as an array, one piece per
item, so a report is written one finding at a time and its whole text
is never held in memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _encode_str

_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value) -> str:
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """The `"key": ` text that starts a member, the key coerced as `json` coerces it."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _scalar(key)
    return _encode_str(key) + ": "


def dumps(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, built container by container."""
    return _writer()(value, "\n")


def iterdumps(members: dict) -> Iterator[str]:
    """The text of `dumps(members)` in pieces, where a member whose value is
    an iterator stands for the array of its items and gets one piece per item."""
    write = _writer()
    sep = "{\n  "
    for key in sorted(members):
        value = members[key]
        if not isinstance(value, Iterator):
            yield sep + _key(key) + write(value, "\n  ")
        else:
            opening = sep + _key(key) + "["
            empty = True
            for item in value:
                yield (opening if empty else ",") + "\n    " + write(item, "\n    ")
                empty = False
            yield opening + "]" if empty else "\n  ]"
        sep = ",\n  "
    yield "{}" if sep == "{\n  " else "\n}"


def _writer():
    """A `write(value, newline)` that returns the text of `value` whose lines
    after the first start with `newline`; it remembers the shapes of the
    objects it has written."""
    # the keys of an object whose keys are all str, in its order -> each key and
    # its `_key` text, in sorted order
    shapes: dict[tuple, list[tuple[str, str]]] = {}

    def write(value, newline: str) -> str:
        if isinstance(value, dict):
            return write_object(value, newline)
        if isinstance(value, (list, tuple)):
            return write_array(value, newline)
        return _scalar(value)

    def write_object(value: dict, newline: str) -> str:
        if not value:
            return "{}"
        shape = tuple(value)
        members = shapes.get(shape)
        if members is None:
            members = [(key, _key(key)) for key in sorted(value)]
            if all(type(key) is str for key in shape):
                shapes[shape] = members
        inner = newline + "  "
        parts = []
        add = parts.append
        for key, prefix in members:
            item = value[key]
            kind = type(item)
            if kind is str:
                add(prefix + _encode_str(item))
            elif kind is int:
                add(prefix + int.__repr__(item))
            elif item is None:
                add(prefix + "null")
            elif kind is dict:
                add(prefix + write_object(item, inner))
            elif kind is list:
                add(prefix + write_array(item, inner))
            else:
                add(prefix + write(item, inner))
        parts[0] = "{" + inner + parts[0]
        parts[-1] += newline + "}"
        return ("," + inner).join(parts)

    def write_array(value, newline: str) -> str:
        if not value:
            return "[]"
        inner = newline + "  "
        parts = []
        add = parts.append
        for item in value:
            kind = type(item)
            if kind is str:
                add(_encode_str(item))
            elif kind is int:
                add(int.__repr__(item))
            elif kind is dict:
                add(write_object(item, inner))
            else:
                add(write(item, inner))
        parts[0] = "[" + inner + parts[0]
        parts[-1] += newline + "]"
        return ("," + inner).join(parts)

    return write
