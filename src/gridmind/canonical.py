"""Canonical text encodings and the one way in for outside input.

Everything the engine writes out (fact lines, trace records, planner
requests) must be byte-identical across runs, so all float formatting and
JSON emission goes through this module instead of repr()/json.dumps().

`dumps` writes a record in one pass. It looks up the value's exact type
in one table: `str` (`encode_basestring`), `float`, `int`, `bool`, `None`,
`list` and `tuple`, and `dict`; a list or a dict is one join over its
items' texts. Float texts come from a memo of at most 1024 entries (a run
writes few distinct floats many times); 0.0 and -0.0 share a key and a
text, and a non-finite float raises every time and is never stored. A
5-item list shaped like a fact row (`str`, `str`, a `str`, `int` or
`float` object, a `float` confidence and an `int` tick) is written by one
f-string. These are the types the engine builds, and each has one text:
a value of any other type, a subclass of one of them included, is a
TypeError, as is a dict key that is no instance of `str`; a non-finite
float is a ValueError.

Every file the engine reads in is read by `read_text`, all outside JSON
(config files, planner responses, trace lines) is parsed by `parse_json`,
and bad outside input raises an `InputError` (`path:line: message`), which
the CLI reports as `error: ...` with exit code 3.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from json.encoder import encode_basestring

FLOAT_DECIMALS = 6
_FLOAT_SPEC = f".{FLOAT_DECIMALS}f"
_NEGATIVE_ZERO = "-0." + "0" * FLOAT_DECIMALS


class InputError(ValueError):
    """Bad outside input, located at a file and line when known."""

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        where = (path or "") + (f":{line_no}" if line_no is not None else "")
        super().__init__(f"{where}: {message}" if where else message)


def read_text(path: str, error: type[InputError], what: str) -> str:
    """The file's text; one that cannot be opened or is not UTF-8 is `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise error(f"cannot read {what}: {exc}", path=path) from exc


def parse_json(text: str) -> object:
    """The JSON value of outside text. Malformed text, text nested too
    deeply to parse and integers too long to convert all raise ValueError
    (`json.JSONDecodeError` is one), so each reader maps one exception to
    its documented error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def fmt_float(value: float) -> str:
    """Render a float with exactly six decimals, normalizing -0.0."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot canonicalize non-finite float {value!r}")
    text = format(value, _FLOAT_SPEC)
    if text == _NEGATIVE_ZERO:
        return text[1:]
    return text


def fmt_literal(value: object) -> str:
    """Canonical token for a fact object: symbol, int, or float."""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid fact literal")
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value or any(c in value for c in "|\n\r "):
            raise ValueError(f"invalid symbol token: {value!r}")
        return value
    raise TypeError(f"unsupported literal type: {type(value).__name__}")


# the encoder's float texts: a traffic run writes 1549 floats, 88 of
# them distinct
_float_text = lru_cache(maxsize=1024)(fmt_float)


def dumps(value: object) -> str:
    """Canonical JSON: insertion-ordered keys, floats at six decimals.

    json.dumps renders floats with repr(), which is not stable enough for
    byte-exact replay, hence this small hand-rolled emitter.
    """
    return _ENCODERS.get(type(value), _unsupported)(value)


def _list_text(value: list | tuple) -> str:
    if len(value) == 5:
        subject, relation, obj, confidence, tick = value
        if (
            type(subject) is str
            and type(relation) is str
            and type(confidence) is float
            and type(tick) is int
        ):
            encode = _SCALARS.get(type(obj))
            if encode is not None:  # a fact row
                return (
                    f"[{encode_basestring(subject)},{encode_basestring(relation)},"
                    f"{encode(obj)},{_float_text(confidence)},{tick}]"
                )
    get = _ENCODERS.get
    return "[" + ",".join([get(type(item), _unsupported)(item) for item in value]) + "]"


def _dict_text(value: dict) -> str:
    get = _ENCODERS.get
    # encode_basestring raises TypeError for a key that is not a str
    items = [
        encode_basestring(key) + ":" + get(type(item), _unsupported)(item)
        for key, item in value.items()
    ]
    return "{" + ",".join(items) + "}"


def _unsupported(value: object) -> str:
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


# a fact row's object: a symbol, an int or a float
_SCALARS = {str: encode_basestring, int: int.__repr__, float: _float_text}
_ENCODERS = {
    **_SCALARS,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
}
