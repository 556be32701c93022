"""Declarative data file parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind.agent import data_root
from gridmind.cli import main
from gridmind.rulefmt import (
    RuleFileError,
    parse_atom,
    parse_composition,
    parse_exclusions,
    parse_hazard_rules,
    parse_lexicon,
    parse_rule_line,
    parse_rules,
)
from oracles import composition_table


def test_parse_simple_rule():
    rule = parse_rule_line(
        "rule spill 0.9: isa(?x, cup), has_state(?x, knocked_over), Contains(?x, ?y) -> has_state(?y, spilled)"
    )
    assert rule.name == "spill"
    assert rule.weight == 0.9
    assert len(rule.premises) == 3
    assert rule.conclusion.relation == "has_state"


def test_parse_rule_with_guard():
    rule = parse_rule_line("rule big 1.0: size(?x, ?s) | ?s >= 3 -> has_state(?x, big)")
    assert len(rule.guards) == 1
    assert rule.guards[0].op == ">="
    assert rule.guards[0].right == 3


def test_dimension_tags():
    atom = parse_atom("Near(?a, ?b)@S")
    assert atom.dim == "spatial"
    assert parse_atom("Near(?a, ?b)").dim is None


def test_rule_errors_carry_line_numbers():
    with pytest.raises(RuleFileError) as exc:
        parse_rules("# fine\nrule broken 1.0: isa(?x cup) -> has_state(?x, odd)\n")
    assert ":2:" in str(exc.value)


@pytest.mark.parametrize(
    "body, constant",
    [
        ("isa(?x, nan) -> has_state(?x, odd)", "nan"),
        ("isa(inf, ?x) -> has_state(?x, odd)", "inf"),
        ("isa(?x, cup) -> size(?x, -inf)", "-inf"),
        ("isa(?x, cup) -> has_state(?x, a|b)", "'a|b'"),
    ],
    ids=["premise-object", "premise-subject", "conclusion-object", "conclusion-symbol"],
)
def test_constant_that_is_no_fact_literal_rejected_at_its_line(body, constant):
    with pytest.raises(RuleFileError) as exc:
        parse_rules(f"# fine\nrule broken 1.0: {body}\n")
    assert str(exc.value).startswith(f":2: rule broken: constant {constant} in ")
    assert "is not a fact literal" in str(exc.value)


def test_premise_with_a_number_subject_refused_at_its_line(tmp_path, capsys):
    # no fact has a number subject, so the premise could never match
    rules = tmp_path / "r.txt"
    rules.write_text("# fine\nrule r 1.0: Near(5, ?x) -> isa(?x, thing)\n")
    kb = str(data_root().joinpath("kbs", "vase_room.kb"))
    assert main(["query", kb, "isa(?a, ?b)", "--rules", str(rules)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {rules}:2: rule r: subject 5 in Near is not a symbol\n"


def test_unbound_conclusion_rejected():
    with pytest.raises(RuleFileError):
        parse_rule_line("rule bad 1.0: isa(?x, cup) -> has_state(?y, spilled)")


def test_duplicate_rule_names_rejected():
    text = (
        "rule a 1.0: isa(?x, cup) -> has_state(?x, seen)\n"
        "rule a 1.0: isa(?x, mug) -> has_state(?x, seen)\n"
    )
    with pytest.raises(RuleFileError):
        parse_rules(text)


def test_hazard_rules_must_span_two_dimensions():
    single = "rule flat 1.0: has_state(?x, wet)@C, has_state(?x, hot)@C -> hazard(?x, burn)"
    with pytest.raises(RuleFileError):
        parse_hazard_rules(single)
    untagged = "rule loose 1.0: has_state(?x, wet), Near(?x, ?y)@S -> hazard(?x, slip)"
    with pytest.raises(RuleFileError):
        parse_hazard_rules(untagged)
    good = "rule ok 1.0: has_state(?x, wet)@C, Near(?x, ?y)@S -> hazard(?x, slip)"
    assert len(parse_hazard_rules(good)) == 1


def test_parse_composition_table():
    rules = parse_composition("compose OnTopOf LeftOf -> LeftOf\ncompose LeftOf LeftOf -> LeftOf\n")
    assert composition_table(rules) == {("OnTopOf", "LeftOf"): "LeftOf", ("LeftOf", "LeftOf"): "LeftOf"}
    with pytest.raises(RuleFileError):
        parse_composition("compose OnTopOf LeftOf LeftOf\n")
    with pytest.raises(RuleFileError, match="duplicate composition entry"):
        parse_composition("compose LeftOf LeftOf -> LeftOf\ncompose LeftOf LeftOf -> Above\n")


def test_composition_entry_is_the_two_premise_rule():
    [rule] = parse_composition("compose OnTopOf LeftOf -> LeftOf\n")
    assert rule == parse_rule_line(
        "rule compose-OnTopOf-LeftOf 1.0: OnTopOf(?a, ?b), LeftOf(?b, ?c) | ?a != ?c -> LeftOf(?a, ?c)"
    )


def test_parse_exclusions_and_lexicon():
    assert parse_exclusions("opposite LeftOf RightOf\n") == [("LeftOf", "RightOf")]
    lexicon = parse_lexicon("affords cup hold_liquid\naffords mop clean_floor scrub\n")
    assert lexicon["cup"] == ("hold_liquid",)
    assert lexicon["mop"] == ("clean_floor", "scrub")
    with pytest.raises(RuleFileError):
        parse_lexicon("affords cup\n")


def test_shipped_data_files_load(rule_data):
    table = composition_table(rule_data.composition)
    assert table[("OnTopOf", "LeftOf")] == "LeftOf"
    assert ("LeftOf", "Near") not in table
    assert ("LeftOf", "RightOf") in rule_data.exclusions
    assert rule_data.lexicon["cup"] == ("hold_liquid",)
    assert len(rule_data.hazard_rules) == 2
    assert all(len(r.dimensions()) >= 2 for r in rule_data.hazard_rules)


RULE_PIECES = st.sampled_from([
    "rule r 0.5:", "rule", "A(?x, ?y)", "B(?y, 1)", "@T", "@S", ",", "|", "?x > 2", "->",
    "1e400", "nan", "0", "C(a,b)", "#",
])


@settings(max_examples=200)
@given(st.one_of(st.text(), st.lists(RULE_PIECES, max_size=10).map(" ".join)))
def test_rule_text_raises_only_rule_file_errors(text):
    try:
        parse_rules(text)
    except RuleFileError:
        pass


COMPOSITION_PIECES = st.sampled_from(["compose", "LeftOf", "Above", "?a", "->", "#", "5", "\n"])


@settings(max_examples=200)
@given(st.one_of(st.text(), st.lists(COMPOSITION_PIECES, max_size=12).map(" ".join)))
def test_composition_text_raises_only_rule_file_errors(text):
    try:
        rules = parse_composition(text)
    except RuleFileError:
        return
    assert len(composition_table(rules)) == len(rules)
