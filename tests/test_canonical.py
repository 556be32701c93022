"""Canonical encodings: the byte-stability layer everything rests on."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.canonical import dumps, fmt_float, fmt_literal


def test_floats_always_six_decimals():
    assert fmt_float(0.9) == "0.900000"
    assert fmt_float(1 / 3) == "0.333333"
    assert fmt_float(2) == "2.000000"


def test_negative_zero_normalized():
    assert fmt_float(-0.0) == "0.000000"
    assert fmt_float(-1e-9) == "0.000000"


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


def test_literal_tokens():
    assert fmt_literal("cup") == "cup"
    assert fmt_literal(3) == "3"
    assert fmt_literal(0.5) == "0.500000"
    with pytest.raises(ValueError):
        fmt_literal("has space")
    with pytest.raises(ValueError):
        fmt_literal("pipe|token")
    with pytest.raises(TypeError):
        fmt_literal(True)


def test_dumps_preserves_insertion_order():
    line = dumps({"b": 1, "a": 2})
    assert line == '{"b":1,"a":2}'


def test_dumps_is_valid_json_with_fixed_floats():
    payload = {"x": 0.1, "items": [1, "two", None, True], "nested": {"y": -0.0}}
    line = dumps(payload)
    assert '"x":0.100000' in line
    assert '"y":0.000000' in line
    assert json.loads(line) == {
        "x": 0.1, "items": [1, "two", None, True], "nested": {"y": 0.0},
    }


def test_dumps_escapes_strings():
    assert dumps({"s": 'say "hi"\n'}) == '{"s":"say \\"hi\\"\\n"}'


def test_dumps_rejects_non_string_keys_and_unknown_types():
    with pytest.raises(TypeError):
        dumps({1: "x"})
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_dumps_identical_across_calls():
    payload = {"weights": {"temporal": 1 / 3, "spatial": 1 / 3, "conceptual": 1 / 3}}
    assert dumps(payload) == dumps(payload)


# every code point, lone surrogates and control characters included
ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()))


@settings(max_examples=300)
@given(ANY_TEXT)
def test_dumps_strings_and_keys_like_json_dumps(text):
    assert dumps(text) == json.dumps(text, ensure_ascii=False)
    assert dumps({text: [text]}) == json.dumps({text: [text]}, ensure_ascii=False, separators=(",", ":"))
