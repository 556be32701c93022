"""Canonical text encodings and the one way in for outside input.

Everything the engine writes out (fact lines, trace records, planner
requests) must be byte-identical across runs, so all float formatting and
JSON emission goes through this module instead of repr()/json.dumps().

Every file the engine reads in is read by `read_text`, all outside JSON
(config files, planner responses, trace lines) is parsed by `parse_json`,
and bad outside input raises an `InputError` (`path:line: message`), which
the CLI reports as `error: ...` with exit code 3.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring

FLOAT_DECIMALS = 6


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
    text = format(value, f".{FLOAT_DECIMALS}f")
    if text == f"-0.{'0' * FLOAT_DECIMALS}":
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


def dumps(value: object) -> str:
    """Canonical JSON: insertion-ordered keys, floats at six decimals.

    json.dumps renders floats with repr(), which is not stable enough for
    byte-exact replay, hence this small hand-rolled emitter.
    """
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(value: object, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _emit(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonicalize {type(value).__name__}")
