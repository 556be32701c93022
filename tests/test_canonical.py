"""Canonical encodings: the byte-stability layer everything rests on."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.canonical import _float_text, dumps, fmt_float, fmt_literal
from oracles import reference_dumps


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


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Unknown:
    pass


def test_dumps_raises_type_error_for_a_type_the_engine_does_not_build():
    # a subclass is not written as its base: each type has one text
    for bad in (_Str("s"), _Int(1), _Float(0.5), _Unknown(), {1: "x"}):
        for shape in (bad, [bad], {"k": bad}, ["s", "r", bad, 0.5, 0]):
            with pytest.raises(TypeError):
                dumps(shape)


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, -1e-9, 1e-9, 0.5, float("nan"), float("inf"), -float("inf")]
)
INTS = st.integers() | st.integers(-(10**40), 10**40)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    FLOATS,
    ANY_TEXT,
    st.builds(_Unknown),
    st.sampled_from([b"x", {1, 2}, object()]),
)
KEYS = ANY_TEXT | st.builds(_Str, ANY_TEXT) | st.sampled_from([1, 0.5, None, True, ("k",), _Str("s")])


@st.composite
def fact_rows(draw, values):
    """[s, r, o, c, t] as the engine writes facts, sometimes with one slot
    swapped for a bool, None, a list or a dict."""
    row = [
        draw(ANY_TEXT), draw(ANY_TEXT), draw(ANY_TEXT | INTS | FLOATS), draw(FLOATS), draw(INTS)
    ]
    if draw(st.booleans()):
        swap = st.booleans() | st.none() | st.lists(values, max_size=3)
        row[draw(st.integers(0, 4))] = draw(swap | st.dictionaries(ANY_TEXT, values, max_size=3))
    return row if draw(st.booleans()) else tuple(row)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(KEYS, children, max_size=5)
        | fact_rows(children)
    )


VALUES = st.recursive(SCALARS | fact_rows(SCALARS), _containers, max_leaves=30)


def _nest(value, wrappers):
    for kind, key in wrappers:
        value = {"list": [value], "tuple": (value, 0), "dict": {key: value}}[kind]
    return value


# values wrapped up to 24 deep in lists, tuples and dicts
DEEP = st.builds(
    _nest, VALUES, st.lists(st.tuples(st.sampled_from(["list", "tuple", "dict"]), ANY_TEXT), max_size=24)
)


def _outcome(encode, value):
    """The text `encode` writes for `value`, or the type of what it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=600)
@given(VALUES | DEEP)
def test_dumps_writes_or_raises_what_the_reference_does(value):
    assert _outcome(dumps, value) == _outcome(reference_dumps, value)


@settings(max_examples=300)
@given(fact_rows(VALUES))
def test_dumps_writes_fact_rows_and_their_lookalikes_as_the_reference_does(row):
    assert _outcome(dumps, row) == _outcome(reference_dumps, row)


@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["huge", "huge-negative"])
def test_an_int_past_the_str_limit_fails_as_in_the_reference(value):
    for shape in (value, [value], ["s", "r", value, 1.0, 0], ["s", "r", "o", 1.0, value], {"k": value}):
        assert _outcome(dumps, shape) == _outcome(reference_dumps, shape)


def test_float_texts_are_memoised_within_their_bound():
    assert dumps(-0.0) == dumps(0.0) == "0.000000"
    assert dumps([0.0, -0.0, -1e-9]) == "[0.000000,0.000000,0.000000]"
    for _ in range(2):  # a non-finite float raises every time
        with pytest.raises(ValueError):
            dumps([float("nan")])
    for i in range(3000):
        assert dumps(i + 0.25) == f"{i}.250000"
    assert _float_text.cache_info().currsize <= 1024
